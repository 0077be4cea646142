"""Intraprocedural lockset/flow analysis shared by the concurrency rules.

The per-node syntactic rules (SSTD001–006) can tell whether an access is
*lexically* inside ``with self._lock:``.  The concurrency rules
(SSTD003, SSTD007, SSTD008, SSTD010) need more: which locks are held on
every path reaching a statement, what a call's receiver *is* (a queue,
a thread, a lock, an instance of a project class), and whether a
guarded value leaks out of its lock's scope.  This module computes
exactly that, once per class, and the rules consume the result.

Two layers:

- :class:`ClassAttrModel` — a lightweight per-class attribute model.
  It records the ``# guarded-by:`` / ``# lock-alias:`` annotations (the
  same ones SSTD003 polices) and infers a coarse type for every
  ``self.<attr>`` assigned in the class body: lock, condition, queue
  (bounded or not), thread, process, event.  Inference is constructor
  pattern matching (``threading.Lock()``, ``queue.Queue(8)``,
  ``ctx.Process(...)``, list comprehensions of those), so it needs no
  imports resolved at runtime.  It additionally records, per attribute,
  the *constructor text* of class-valued attributes
  (``self.obs = Observability(...)``) — including values threaded
  through annotated ``__init__`` parameters — which the project call
  graph (:mod:`repro.devtools.lint.callgraph`) uses to resolve
  cross-class calls like ``self.obs.metrics.inc(...)``.

- :func:`analyze_class` — a lockset walker over each method body.  It
  propagates the set of held locks through the statement graph:
  ``with self._lock:`` blocks, local lock aliases (``lock = self._lock``
  then ``with lock:``), ``Condition`` aliases, explicit
  ``.acquire()``/``.release()`` pairs, and ``# holds-lock:`` entry
  annotations.  Branches are joined conservatively (a lock counts as
  held after an ``if`` only when both arms hold it); loop bodies are
  iterated to a lockset fixpoint so a release inside the loop is not
  forgotten after it.  The walker emits a stream of events — attribute
  accesses, calls, and lock-scope escapes — each stamped with the
  lockset at that program point.

Known approximations (see DESIGN.md for the full list): the analysis is
intraprocedural — one file at a time — but callers may supply
``helper_effects`` (net lock acquire/release effects of same-class
helpers, computed by the call-graph layer) so ``self._take_lock()``
idioms propagate.  Nested ``def`` bodies inherit the lexical lockset of
their definition site, ``except`` handlers are walked with the ``try``
entry lockset (the dominant ``with``-based idiom unwinds to exactly
that), and ``finally`` bodies run on the intersection of the normal and
exceptional locksets.

:func:`exception_caught` models the builtin exception hierarchy for the
resource-lifecycle rule (SSTD014): whether an enclosing handler stops
an exception, and so whether a held resource leaks past it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from repro.devtools.lint.engine import FileContext
from repro.devtools.lint.names import dotted_name

__all__ = [
    "ALIAS_RE",
    "AccessEvent",
    "AttrInfo",
    "CallEvent",
    "ClassAttrModel",
    "ClassFlow",
    "EscapeEvent",
    "EXC_BASES",
    "GUARDED_RE",
    "HOLDS_RE",
    "MethodFlow",
    "OWNS_RESOURCE_RE",
    "analyze_class",
    "analyze_function",
    "annotation_class",
    "blocking_reason",
    "exception_caught",
    "iter_class_flows",
    "nonblocking_call",
    "self_attr",
]

GUARDED_RE = re.compile(r"#\s*guarded-by:\s*(\w+)")
ALIAS_RE = re.compile(r"#\s*lock-alias:\s*(\w+)")
HOLDS_RE = re.compile(r"#\s*holds-lock:\s*(\w+)")
#: ``# owns-resource:`` — sanctions storing an acquired resource on an
#: attribute, transferring lifecycle ownership to the object (SSTD014).
OWNS_RESOURCE_RE = re.compile(r"#\s*owns-resource:")

_LOCK_CTORS = frozenset({"Lock", "RLock"})
_QUEUE_CTORS = frozenset(
    {"Queue", "PriorityQueue", "LifoQueue", "SimpleQueue", "JoinableQueue"}
)
_MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "deque", "defaultdict", "OrderedDict", "Counter"}
)
#: Constructor names that denote library plumbing, not project classes.
_NON_CLASS_CTORS = (
    _LOCK_CTORS
    | _QUEUE_CTORS
    | _MUTABLE_CTORS
    | {
        "Condition",
        "Event",
        "Thread",
        "Process",
        "Semaphore",
        "BoundedSemaphore",
        "tuple",
        "frozenset",
        "str",
        "int",
        "float",
        "bool",
    }
)


def is_mutable_container(expr: ast.expr) -> bool:
    """True for initializers that build a mutable container.

    Snapshotting an immutable guarded value (an int counter, a flag)
    under the lock is the sanctioned copy-out idiom; only *aliases* to
    mutable containers race after the lock is released, so the escape
    analysis keys off this predicate.
    """
    if isinstance(
        expr,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
    ):
        return True
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func) or ""
        return name.rsplit(".", 1)[-1] in _MUTABLE_CTORS
    return False


def self_attr(node: ast.expr) -> Optional[str]:
    """``attr`` for a plain ``self.<attr>`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def annotation_class(ann: Optional[ast.expr]) -> Optional[str]:
    """Candidate class name carried by a type annotation.

    ``Observability``, ``Observability | None``,
    ``Optional[Observability]``, and the stringified forms all yield
    ``"Observability"``; unions of two real classes yield nothing (the
    choice would be a guess).
    """
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            ann = ast.parse(ann.value, mode="eval").body
        except SyntaxError:
            return None
    candidates: list[str] = []
    for node in ast.walk(ann):
        name = None
        if isinstance(node, (ast.Name, ast.Attribute)):
            # Skip inner parts of an Attribute chain we already took.
            name = dotted_name(node)
        if name is None:
            continue
        last = name.rsplit(".", 1)[-1]
        if last in ("None", "Optional", "Union") or not last[:1].isupper():
            continue
        if name not in candidates:
            candidates.append(name)
        # Only consider the outermost chain once.
        break
    return candidates[0] if len(candidates) == 1 else None


@dataclass(frozen=True, slots=True)
class AttrInfo:
    """Coarse inferred type of one attribute or local variable.

    Attributes:
        kind: One of ``lock``, ``condition``, ``queue``, ``thread``,
            ``process``, ``event``.
        bounded: Queues only — True when constructed with a nonzero
            capacity (``put`` can block).
        daemon: Threads/processes only — constructed ``daemon=True``.
        container: True when the binding holds a *collection* of the
            kind (``self._threads = [Thread(...) for ...]``).
    """

    kind: str
    bounded: bool = False
    daemon: bool = False
    container: bool = False


def _truthy_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and bool(node.value)


def _classify_ctor(call: ast.Call) -> Optional[AttrInfo]:
    """AttrInfo for a recognized constructor call, else None."""
    name = dotted_name(call.func)
    if name is None:
        return None
    last = name.rsplit(".", 1)[-1]
    if last in _LOCK_CTORS:
        return AttrInfo("lock")
    if last == "Condition":
        return AttrInfo("condition")
    if last == "Event":
        return AttrInfo("event")
    if last in _QUEUE_CTORS:
        size: Optional[ast.expr] = call.args[0] if call.args else None
        for kw in call.keywords:
            if kw.arg == "maxsize":
                size = kw.value
        bounded = size is not None and (
            not isinstance(size, ast.Constant) or _truthy_constant(size)
        )
        return AttrInfo("queue", bounded=bounded)
    if last in ("Thread", "Process"):
        daemon = any(
            kw.arg == "daemon" and _truthy_constant(kw.value)
            for kw in call.keywords
        )
        return AttrInfo(last.lower(), daemon=daemon)
    return None


def classify_value(expr: ast.expr) -> Optional[AttrInfo]:
    """Classify the value side of an assignment (ctor or collection of)."""
    if isinstance(expr, ast.Call):
        return _classify_ctor(expr)
    elements: list[ast.expr] = []
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        elements = list(expr.elts)
    elif isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        elements = [expr.elt]
    for element in elements:
        if isinstance(element, ast.Call):
            info = _classify_ctor(element)
            if info is not None:
                return AttrInfo(
                    info.kind,
                    bounded=info.bounded,
                    daemon=info.daemon,
                    container=True,
                )
    return None


def _ctor_class_text(expr: ast.expr, params: Mapping[str, str]) -> Optional[str]:
    """Raw dotted class text a value expression instantiates, if any.

    ``Observability(...)`` yields ``"Observability"``;
    ``Observability.from_env()`` yields ``"Observability.from_env"``
    (the call-graph layer decides whether that is a classmethod
    factory); a bare parameter name annotated with a class yields the
    annotated class; ``a if c else b`` tries both branches.
    """
    if isinstance(expr, ast.Call):
        name = dotted_name(expr.func)
        if name is None:
            return None
        if name.rsplit(".", 1)[-1] in _NON_CLASS_CTORS:
            return None
        return name
    if isinstance(expr, ast.Name):
        return params.get(expr.id)
    if isinstance(expr, ast.IfExp):
        return _ctor_class_text(expr.body, params) or _ctor_class_text(
            expr.orelse, params
        )
    return None


class ClassAttrModel:
    """Annotations plus inferred attribute types for one class body."""

    def __init__(self, ctx: FileContext, cls: ast.ClassDef) -> None:
        self.name = cls.name
        #: ``# guarded-by:`` — attr name -> guarding lock attr name.
        self.guards: dict[str, str] = {}
        #: ``# lock-alias:`` — condition attr name -> lock it wraps.
        self.aliases: dict[str, str] = {}
        #: Coarse type per ``self.<attr>``.
        self.attrs: dict[str, AttrInfo] = {}
        #: Attrs initialized to a mutable container (escape candidates).
        self.mutable: set[str] = set()
        #: Raw dotted class text per class-valued ``self.<attr>``.
        self.attr_classes: dict[str, str] = {}
        for node in ast.walk(cls):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            else:
                targets = [node.target] if node.value is not None else []
            attr_names = [
                attr for attr in map(self_attr, targets) if attr is not None
            ]
            if not attr_names:
                continue
            line = ctx.line_text(node.lineno)
            guarded = GUARDED_RE.search(line)
            alias = ALIAS_RE.search(line)
            value = node.value
            info = classify_value(value) if value is not None else None
            for attr in attr_names:
                if guarded is not None:
                    self.guards[attr] = guarded.group(1)
                if alias is not None:
                    self.aliases[attr] = alias.group(1)
                if info is not None:
                    self.attrs[attr] = info
                if value is not None and is_mutable_container(value):
                    self.mutable.add(attr)
        self._collect_attr_classes(cls)

    def _collect_attr_classes(self, cls: ast.ClassDef) -> None:
        """Infer project-class-valued attributes, method by method.

        A second pass (rather than part of the main walk) because the
        parameter-annotation lookup needs the enclosing method's
        signature, which ``ast.walk`` over the class body loses.
        """
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params: dict[str, str] = {}
            args = method.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                candidate = annotation_class(arg.annotation)
                if candidate is not None:
                    params[arg.arg] = candidate
            for node in ast.walk(method):
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    list(node.targets)
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                attr_names = [
                    a for a in map(self_attr, targets) if a is not None
                ]
                if not attr_names:
                    continue
                text: Optional[str] = None
                if isinstance(node, ast.AnnAssign):
                    text = annotation_class(node.annotation)
                if text is None and node.value is not None:
                    text = _ctor_class_text(node.value, params)
                if text is None:
                    continue
                for attr in attr_names:
                    self.attr_classes.setdefault(attr, text)

    def lock_names(self) -> frozenset[str]:
        """Attr names that denote a lock (guard targets or Lock-typed)."""
        named = set(self.guards.values())
        typed = {a for a, i in self.attrs.items() if i.kind == "lock"}
        return frozenset(named | typed)

    def lock_for_attr(self, attr: str) -> Optional[str]:
        """Canonical lock represented by entering ``with self.<attr>:``.

        A lock attribute stands for itself; a ``# lock-alias:`` condition
        stands for the lock it wraps; anything else is not a lock.
        """
        if attr in self.aliases:
            return self.aliases[attr]
        if attr in self.lock_names():
            return attr
        if self.attrs.get(attr, AttrInfo("")).kind == "condition":
            # A Condition with no alias annotation guards as itself.
            return attr
        return None


@dataclass(frozen=True, slots=True)
class AccessEvent:
    """One read or write of ``self.<attr>`` at a known lockset."""

    node: ast.Attribute
    attr: str
    held: frozenset[str]
    write: bool
    method: str


@dataclass(frozen=True, slots=True)
class CallEvent:
    """One call site, with receiver text and the lockset at the call."""

    node: ast.Call
    callee: Optional[str]  # dotted text, e.g. "self._results.put"
    held: frozenset[str]
    method: str


@dataclass(frozen=True, slots=True)
class EscapeEvent:
    """A guarded value captured under its lock, used after release."""

    node: ast.AST
    attr: str
    lock: str
    via: str
    method: str


@dataclass(slots=True)
class MethodFlow:
    """Everything the walker learned about one method body."""

    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    entry_locks: frozenset[str]
    accesses: list[AccessEvent] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    escapes: list[EscapeEvent] = field(default_factory=list)
    local_types: dict[str, AttrInfo] = field(default_factory=dict)
    #: Raw dotted class text per project-class-valued local variable.
    local_classes: dict[str, str] = field(default_factory=dict)
    #: Parameter name -> annotated class text (``def f(self, obs:
    #: Observability)``), used to resolve calls through parameters.
    params: dict[str, str] = field(default_factory=dict)
    #: Lockset at the end of the body (net ``.acquire()`` effects show
    #: up here; ``with`` blocks always balance).
    exit_locks: frozenset[str] = frozenset()


@dataclass(slots=True)
class ClassFlow:
    """Attribute model plus per-method flow summaries for one class."""

    node: ast.ClassDef
    model: ClassAttrModel
    methods: dict[str, MethodFlow] = field(default_factory=dict)

    def requires(self, method_name: str) -> frozenset[str]:
        """Locks a method is documented to need on entry (holds-lock)."""
        flow = self.methods.get(method_name)
        return flow.entry_locks if flow is not None else frozenset()


class _MethodWalker:
    """Walks one method body propagating the held lockset."""

    def __init__(
        self,
        model: ClassAttrModel,
        flow: MethodFlow,
        helper_effects: Mapping[str, tuple[frozenset[str], frozenset[str]]]
        | None = None,
        params: Mapping[str, str] | None = None,
    ) -> None:
        self.model = model
        self.flow = flow
        #: Same-class helper name -> (locks acquired, locks released) at
        #: exit; supplied by the call-graph layer's effects fixpoint.
        self.helper_effects = helper_effects or {}
        self.params = params or {}
        # Local name -> canonical lock it aliases (lock = self._lock).
        self.local_locks: dict[str, str] = {}
        # Local name -> (guarded attr, lock) captured while lock held.
        self.captures: dict[str, tuple[str, str]] = {}
        # Probe depth > 0 while re-walking a loop body to find its
        # lockset fixpoint; events are suppressed so nothing duplicates.
        self._probe = 0

    # -- statement level ------------------------------------------------
    def walk_block(
        self, stmts: list[ast.stmt], held: frozenset[str]
    ) -> frozenset[str]:
        for stmt in stmts:
            held = self.walk_stmt(stmt, held)
        return held

    def _probe_block(
        self, stmts: list[ast.stmt], held: frozenset[str]
    ) -> frozenset[str]:
        """Walk a block without emitting events, restoring alias state."""
        saved = (
            dict(self.local_locks),
            dict(self.captures),
            dict(self.flow.local_types),
            dict(self.flow.local_classes),
        )
        self._probe += 1
        try:
            return self.walk_block(stmts, held)
        finally:
            self._probe -= 1
            self.local_locks, self.captures = dict(saved[0]), dict(saved[1])
            self.flow.local_types = dict(saved[2])
            self.flow.local_classes = dict(saved[3])

    def _loop_entry(
        self, body: list[ast.stmt], held: frozenset[str]
    ) -> frozenset[str]:
        """Lockset holding at the top of every loop iteration.

        Iterates to a fixpoint: a lock released (or acquired) inside the
        body changes what later iterations — and the code after the
        loop — may assume.  Locksets only shrink under intersection, so
        this converges in at most ``len(held)`` probes.
        """
        entry = held
        while True:
            out = self._probe_block(body, entry)
            joined = entry & out
            if joined == entry:
                return entry
            entry = joined

    def walk_stmt(self, stmt: ast.stmt, held: frozenset[str]) -> frozenset[str]:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held
            for item in stmt.items:
                self.visit_expr(item.context_expr, inner)
                lock = self._lock_of(item.context_expr)
                if lock is not None:
                    inner = inner | {lock}
                if item.optional_vars is not None:
                    self.visit_expr(item.optional_vars, inner, store=True)
            self.walk_block(stmt.body, inner)
            return held
        if isinstance(stmt, ast.If):
            self.visit_expr(stmt.test, held)
            after_body = self.walk_block(stmt.body, held)
            after_else = self.walk_block(stmt.orelse, held)
            return after_body & after_else
        if isinstance(stmt, (ast.While,)):
            entry = self._loop_entry(stmt.body, held)
            self.visit_expr(stmt.test, entry)
            out = self.walk_block(stmt.body, entry)
            self.walk_block(stmt.orelse, entry)
            # The loop may run zero times, so only locks surviving both
            # the skip path and a full iteration are held afterwards.
            return held & entry & out
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.visit_expr(stmt.iter, held)
            self._bind_loop_target(stmt.target, stmt.iter)
            entry = self._loop_entry(stmt.body, held)
            self.visit_expr(stmt.target, entry, store=True)
            out = self.walk_block(stmt.body, entry)
            self.walk_block(stmt.orelse, entry)
            return held & entry & out
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            after_body = self.walk_block(stmt.body, held)
            for handler in stmt.handlers:
                self.walk_block(handler.body, held)
            after_orelse = self.walk_block(stmt.orelse, after_body)
            # ``finally`` runs on the normal path (after body/orelse) and
            # on the exceptional path (lockset conservatively the entry
            # set); its own effects apply to whatever survives both.
            return self.walk_block(stmt.finalbody, held & after_orelse)
        if isinstance(stmt, ast.Assign):
            self.visit_expr(stmt.value, held)
            for target in stmt.targets:
                self._track_assignment(target, stmt.value, held)
                self.visit_expr(target, held, store=True)
            return self._apply_lock_calls(stmt.value, held)
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.visit_expr(stmt.value, held)
                self._track_assignment(stmt.target, stmt.value, held)
            self.visit_expr(stmt.target, held, store=True)
            return held
        if isinstance(stmt, ast.AugAssign):
            self.visit_expr(stmt.value, held)
            self.visit_expr(stmt.target, held, store=True)
            return held
        if isinstance(stmt, ast.Expr):
            self.visit_expr(stmt.value, held)
            return self._apply_lock_calls(stmt.value, held)
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.visit_expr(child, held)
            return held
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs run later; lexical lockset is an approximation
            # that matches how the repo uses worker-loop closures.
            self.walk_block(stmt.body, held)
            return held
        if isinstance(stmt, ast.ClassDef):
            return held
        # Pass/Break/Continue/Import/Global/Nonlocal: no lock effects.
        return held

    # -- expression level -----------------------------------------------
    def visit_expr(
        self, expr: ast.expr, held: frozenset[str], store: bool = False
    ) -> None:
        if isinstance(expr, ast.Attribute):
            attr = self_attr(expr)
            if attr is not None:
                if not self._probe:
                    self.flow.accesses.append(
                        AccessEvent(
                            node=expr,
                            attr=attr,
                            held=held,
                            write=store
                            or isinstance(expr.ctx, (ast.Store, ast.Del)),
                            method=self.flow.name,
                        )
                    )
                return
            self.visit_expr(expr.value, held)
            return
        if isinstance(expr, ast.Name):
            if not store:
                captured = self.captures.get(expr.id)
                if captured is not None and captured[1] not in held:
                    attr, lock = captured
                    if not self._probe:
                        self.flow.escapes.append(
                            EscapeEvent(
                                node=expr,
                                attr=attr,
                                lock=lock,
                                via=expr.id,
                                method=self.flow.name,
                            )
                        )
            return
        if isinstance(expr, ast.Call):
            if not self._probe:
                self.flow.calls.append(
                    CallEvent(
                        node=expr,
                        callee=dotted_name(expr.func),
                        held=held,
                        method=self.flow.name,
                    )
                )
            self.visit_expr(expr.func, held)
            for arg in expr.args:
                self.visit_expr(arg, held)
            for kw in expr.keywords:
                self.visit_expr(kw.value, held)
            return
        if isinstance(expr, ast.Lambda):
            self.visit_expr(expr.body, held)
            return
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in expr.generators:
                self.visit_expr(gen.iter, held)
                for cond in gen.ifs:
                    self.visit_expr(cond, held)
            if isinstance(expr, ast.DictComp):
                self.visit_expr(expr.key, held)
                self.visit_expr(expr.value, held)
            else:
                self.visit_expr(expr.elt, held)
            return
        if isinstance(expr, ast.Starred):
            self.visit_expr(expr.value, held, store=store)
            return
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                self.visit_expr(element, held, store=store)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.visit_expr(child, held)

    # -- helpers --------------------------------------------------------
    def _lock_of(self, expr: ast.expr) -> Optional[str]:
        """Canonical lock acquired by ``with <expr>:``, if any."""
        attr = self_attr(expr)
        if attr is not None:
            return self.model.lock_for_attr(attr)
        if isinstance(expr, ast.Name):
            return self.local_locks.get(expr.id)
        return None

    def _track_assignment(
        self, target: ast.expr, value: ast.expr, held: frozenset[str]
    ) -> None:
        """Record local lock aliases, captures, and ctor types."""
        if not isinstance(target, ast.Name):
            return
        name = target.id
        # Reassignment invalidates whatever the name stood for.
        self.local_locks.pop(name, None)
        self.captures.pop(name, None)
        self.flow.local_types.pop(name, None)
        self.flow.local_classes.pop(name, None)
        value_attr = self_attr(value)
        if value_attr is not None:
            lock = self.model.lock_for_attr(value_attr)
            if lock is not None:
                self.local_locks[name] = lock
                return
            guard = self.model.guards.get(value_attr)
            if (
                guard is not None
                and guard in held
                and value_attr in self.model.mutable
            ):
                self.captures[name] = (value_attr, guard)
            info = self.model.attrs.get(value_attr)
            if info is not None:
                self.flow.local_types[name] = info
            cls_text = self.model.attr_classes.get(value_attr)
            if cls_text is not None:
                self.flow.local_classes[name] = cls_text
            return
        info = classify_value(value)
        if info is not None:
            self.flow.local_types[name] = info
            return
        cls_text = _ctor_class_text(value, self.params)
        if cls_text is not None:
            self.flow.local_classes[name] = cls_text

    def _bind_loop_target(self, target: ast.expr, source: ast.expr) -> None:
        """``for t in self._threads:`` types ``t`` from the container."""
        if not isinstance(target, ast.Name):
            return
        info: Optional[AttrInfo] = None
        attr = self_attr(source)
        if attr is not None:
            info = self.model.attrs.get(attr)
        elif isinstance(source, ast.Name):
            info = self.flow.local_types.get(source.id)
        if info is not None and info.container:
            self.flow.local_types[target.id] = AttrInfo(
                info.kind, bounded=info.bounded, daemon=info.daemon
            )

    def _apply_lock_calls(
        self, expr: ast.expr, held: frozenset[str]
    ) -> frozenset[str]:
        """``self._lock.acquire()`` / ``.release()`` statement effects.

        Also applies the net lock effects of same-class helper calls
        (``self._take_lock()``) when the call-graph layer supplied an
        effects table.
        """
        if not isinstance(expr, ast.Call):
            return held
        callee = dotted_name(expr.func)
        if (
            self.helper_effects
            and callee is not None
            and callee.startswith("self.")
            and "." not in callee[len("self."):]
        ):
            effects = self.helper_effects.get(callee[len("self."):])
            if effects is not None:
                acquired, released = effects
                return (held | acquired) - released
        if not (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("acquire", "release")
        ):
            return held
        lock = self._lock_of(expr.func.value)
        if lock is None:
            return held
        if expr.func.attr == "acquire":
            return held | {lock}
        return held - {lock}


def _entry_locks(
    ctx: FileContext, method: ast.FunctionDef | ast.AsyncFunctionDef
) -> frozenset[str]:
    """Locks declared held on entry via ``# holds-lock:`` near the def."""
    held: set[str] = set()
    first_body_line = method.body[0].lineno if method.body else method.lineno
    for lineno in range(method.lineno, first_body_line + 1):
        match = HOLDS_RE.search(ctx.line_text(lineno))
        if match is not None:
            held.add(match.group(1))
    return frozenset(held)


def _params_of(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, str]:
    """Parameter name -> annotated class text for one signature."""
    params: dict[str, str] = {}
    args = node.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        candidate = annotation_class(arg.annotation)
        if candidate is not None:
            params[arg.arg] = candidate
    return params


def analyze_class(
    ctx: FileContext,
    cls: ast.ClassDef,
    helper_effects: Mapping[str, tuple[frozenset[str], frozenset[str]]]
    | None = None,
) -> ClassFlow:
    """Build the attribute model and walk every method of ``cls``.

    ``helper_effects`` maps same-class method names to their net
    (acquired, released) lock effects at exit — the call-graph layer
    computes it by fixpoint so ``self._take_lock()`` helpers propagate.
    """
    model = ClassAttrModel(ctx, cls)
    flow = ClassFlow(node=cls, model=model)
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _params_of(node)
        method = MethodFlow(
            name=node.name,
            node=node,
            entry_locks=_entry_locks(ctx, node),
            params=params,
        )
        walker = _MethodWalker(
            model, method, helper_effects=helper_effects, params=params
        )
        method.exit_locks = walker.walk_block(node.body, method.entry_locks)
        flow.methods[node.name] = method
    return flow


def _empty_model() -> ClassAttrModel:
    """An attribute model with nothing in it (module-level functions)."""
    model = ClassAttrModel.__new__(ClassAttrModel)
    model.name = ""
    model.guards = {}
    model.aliases = {}
    model.attrs = {}
    model.mutable = set()
    model.attr_classes = {}
    return model


def analyze_function(
    ctx: FileContext, node: ast.FunctionDef | ast.AsyncFunctionDef
) -> MethodFlow:
    """Walk a module-level function body with an empty attribute model.

    Module-level functions have no ``self`` locks, so their entry
    lockset is empty and only local aliases/ctor types are tracked; the
    call graph still needs their call and blocking-leaf events.
    """
    params = _params_of(node)
    flow = MethodFlow(
        name=node.name, node=node, entry_locks=frozenset(), params=params
    )
    walker = _MethodWalker(_empty_model(), flow, params=params)
    flow.exit_locks = walker.walk_block(node.body, frozenset())
    return flow


def iter_class_flows(ctx: FileContext) -> Iterator[ClassFlow]:
    """Analyze every class in the file (including nested classes).

    When the file was linted as part of a whole-project run the
    project's memoized (effects-aware) flows are served instead of
    re-walking; standalone runs get the plain intraprocedural result.
    """
    project = getattr(ctx, "project", None)
    if project is not None and project.has_module(ctx.module):
        yield from project.class_flows(ctx.module)
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            yield analyze_class(ctx, node)


# ---------------------------------------------------------------------------
# Blocking-call classification (shared by SSTD008 and the call graph)
# ---------------------------------------------------------------------------


def nonblocking_call(call: ast.Call, meth: str) -> bool:
    """True for ``get(False)`` / ``put(x, False)`` / ``block=False``."""
    index = 0 if meth == "get" else 1
    if len(call.args) > index:
        arg = call.args[index]
        return isinstance(arg, ast.Constant) and arg.value is False
    for kw in call.keywords:
        if kw.arg == "block":
            return isinstance(kw.value, ast.Constant) and kw.value.value is False
    return False


def blocking_reason(
    event: CallEvent,
    model: ClassAttrModel | None,
    method: MethodFlow,
    imports,
) -> Optional[str]:
    """Why this call blocks, or None.  ``imports`` is a names.ImportMap.

    The classification is receiver-typed: ``join``/``start`` on threads
    and processes, blocking ``get``/bounded ``put`` on queues,
    ``time.sleep``, and ``.drain()``.  ``Condition.wait``/``notify`` are
    exempt (``wait`` releases the lock it wraps by design).
    """
    callee = event.callee
    if callee is None:
        return None
    root, _, rest = callee.partition(".")
    resolved = f"{imports.aliases.get(root, root)}.{rest}" if rest else root
    if resolved == "time.sleep":
        return "calls time.sleep()"
    receiver, _, meth = callee.rpartition(".")
    if not receiver:
        return None
    info: Optional[AttrInfo] = None
    if receiver.startswith("self."):
        attr = receiver[len("self."):]
        if "." not in attr and model is not None:
            info = model.attrs.get(attr)
    elif "." not in receiver:
        info = method.local_types.get(receiver)
    if meth == "join":
        root = receiver.split(".", 1)[0]
        if root != "self" and root in imports.aliases:
            return None  # module-level join (os.path.join)
        if info is not None and info.kind not in (
            "thread",
            "process",
            "queue",
        ):
            return None  # a str/list/lock receiver; join is not blocking
        return f"calls {receiver}.join(), which blocks until exit,"
    if meth == "drain":
        return (
            f"calls {receiver}.drain(), which blocks until every "
            "outstanding task finishes,"
        )
    if meth in ("get", "put"):
        if info is None or info.kind != "queue":
            return None
        if nonblocking_call(event.node, meth):
            return None
        if meth == "put" and not info.bounded:
            return None  # unbounded put never blocks
        return f"calls blocking {receiver}.{meth}()"
    if meth == "start":
        if info is not None and info.kind in ("thread", "process"):
            return f"spawns a {info.kind} via {receiver}.start()"
        return None
    return None


# ---------------------------------------------------------------------------
# Builtin exception hierarchy (SSTD014's handler model)
# ---------------------------------------------------------------------------

#: Transitive *builtin* exception bases, so ``except OSError`` is known
#: to stop a ``FileNotFoundError`` without importing anything.  Project
#: exception hierarchies are not modeled (documented false negative);
#: in this repo every raised class is a builtin.
EXC_BASES: dict[str, frozenset[str]] = {
    name: frozenset(bases)
    for name, bases in {
        "ArithmeticError": ("Exception",),
        "AssertionError": ("Exception",),
        "AttributeError": ("Exception",),
        "BlockingIOError": ("OSError", "Exception"),
        "BrokenPipeError": ("ConnectionError", "OSError", "Exception"),
        "BufferError": ("Exception",),
        "ChildProcessError": ("OSError", "Exception"),
        "ConnectionAbortedError": ("ConnectionError", "OSError", "Exception"),
        "ConnectionError": ("OSError", "Exception"),
        "ConnectionRefusedError": ("ConnectionError", "OSError", "Exception"),
        "ConnectionResetError": ("ConnectionError", "OSError", "Exception"),
        "EOFError": ("Exception",),
        "FileExistsError": ("OSError", "Exception"),
        "FileNotFoundError": ("OSError", "Exception"),
        "FloatingPointError": ("ArithmeticError", "Exception"),
        "GeneratorExit": ("BaseException",),
        "ImportError": ("Exception",),
        "IndexError": ("LookupError", "Exception"),
        "InterruptedError": ("OSError", "Exception"),
        "IsADirectoryError": ("OSError", "Exception"),
        "KeyError": ("LookupError", "Exception"),
        "KeyboardInterrupt": ("BaseException",),
        "LookupError": ("Exception",),
        "MemoryError": ("Exception",),
        "ModuleNotFoundError": ("ImportError", "Exception"),
        "NotADirectoryError": ("OSError", "Exception"),
        "NotImplementedError": ("RuntimeError", "Exception"),
        "OSError": ("Exception",),
        "OverflowError": ("ArithmeticError", "Exception"),
        "PermissionError": ("OSError", "Exception"),
        "ProcessLookupError": ("OSError", "Exception"),
        "RecursionError": ("RuntimeError", "Exception"),
        "RuntimeError": ("Exception",),
        "StopAsyncIteration": ("Exception",),
        "StopIteration": ("Exception",),
        "SystemExit": ("BaseException",),
        "TimeoutError": ("OSError", "Exception"),
        "TypeError": ("Exception",),
        "UnicodeDecodeError": ("UnicodeError", "ValueError", "Exception"),
        "UnicodeEncodeError": ("UnicodeError", "ValueError", "Exception"),
        "UnicodeError": ("ValueError", "Exception"),
        "ValueError": ("Exception",),
        "ZeroDivisionError": ("ArithmeticError", "Exception"),
    }.items()
}

#: ``except Exception`` does not stop these (they subclass BaseException).
_NOT_EXCEPTION = frozenset({"SystemExit", "KeyboardInterrupt", "GeneratorExit"})


def exception_caught(name: str, frame: frozenset[str]) -> bool:
    """Would a handler catching the classes in ``frame`` stop ``name``?

    ``name`` may be dotted (matched by last segment) or ``"*"`` — an
    exception of statically unknown class, which only ``except
    Exception``/``BaseException``/bare ``except`` are assumed to stop.
    Unknown (non-builtin) raised classes are treated as ``Exception``
    subclasses, the overwhelmingly common case; the rare
    ``BaseException`` subclass slipping through a broad handler is an
    accepted false negative.
    """
    if "*" in frame or "BaseException" in frame:
        return True
    short = name.rsplit(".", 1)[-1]
    if short == "*":
        return "Exception" in frame
    if short in frame or name in frame:
        return True
    bases = EXC_BASES.get(short)
    if bases is not None and any(base in frame for base in bases):
        return True
    return "Exception" in frame and short not in _NOT_EXCEPTION
