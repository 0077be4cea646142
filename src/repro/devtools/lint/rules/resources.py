"""SSTD014: resource lifecycle — a resource is released on every path.

A ``multiprocessing.shared_memory`` segment that misses its
``close_and_unlink`` pins ``/dev/shm`` until reboot, and the
retry-heavy Work Queue runtime (paper §IV-A) creates and destroys
executors, queues, and segments constantly.  This rule makes
release-on-every-path a *checked* property: a tracked resource must not
leak on a normal or an exceptional path.

A declarative registry (:data:`RESOURCE_SPECS`) maps acquire calls to
their release methods; the walker tracks each binding through the
function's statements: a statement that may raise, reached while a
resource is held with no enclosing ``finally`` releasing it (and no
enclosing handler absorbing the exception), leaks it.  ``with``-managed
acquires and ``finally``-covered releases are clean.  Ownership can be
handed off: returning the resource, passing it to a call, storing it in
a container, or assigning it to an attribute annotated
``# owns-resource:`` all transfer the release obligation.

Known false negatives (DESIGN.md §10): resources reaching a binding
through an *unresolved* call (``stack.publish()`` where ``stack``'s
class came from an untyped factory), acquires nested inside larger
expressions, aliases (``b = a`` moves tracking, it does not fork it),
releases hidden behind helper calls in ``finally`` bodies, and
bindings whose state differs across branches (joined to *maybe*, never
flagged).  The analysis prefers silence to false alarms.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.names import ImportMap, dotted_name

__all__ = [
    "EXC_BASES",
    "RESOURCE_SPECS",
    "ResourceLeakRule",
    "ResourceSpec",
    "exception_caught",
    "resource_returners",
]

#: ``# owns-resource:`` — sanctions storing an acquired resource on an
#: attribute, transferring lifecycle ownership to the object.
OWNS_RESOURCE_RE = re.compile(r"#\s*owns-resource:")


@dataclass(frozen=True, slots=True)
class ResourceSpec:
    """Acquire→release contract for one resource family.

    Attributes:
        kind: Stable registry key (also used in messages).
        what: Human phrase for diagnostics.
        acquire: Canonical dotted names whose call acquires the
            resource (module functions, constructors, factory
            methods); matched against import-canonicalized call text
            and against resolved call-graph targets.
        release: Method names on the binding that release it.
        context_manager: The acquired object is a context manager
            whose ``__exit__`` releases it (``with`` = guaranteed
            release).
    """

    kind: str
    what: str
    acquire: tuple[str, ...]
    release: tuple[str, ...]
    context_manager: bool = False


#: The declarative acquire→release registry.  Adding a resource family
#: is one entry here; the walker is generic over it.
RESOURCE_SPECS: tuple[ResourceSpec, ...] = (
    ResourceSpec(
        kind="shm-segment",
        what="published shared-memory segment",
        acquire=("repro.system.shm.publish_arrays",),
        release=("close_and_unlink",),
        context_manager=False,
    ),
    ResourceSpec(
        kind="shm-attachment",
        what="attached shared-memory segment",
        acquire=("repro.system.shm.attach",),
        release=("close",),
        context_manager=True,
    ),
    ResourceSpec(
        kind="work-queue",
        what="work-queue executor",
        acquire=(
            "repro.workqueue.process.ProcessWorkQueue",
        ),
        release=("shutdown",),
        context_manager=False,
    ),
    ResourceSpec(
        kind="executor",
        what="pool executor",
        acquire=(
            "concurrent.futures.ThreadPoolExecutor",
            "concurrent.futures.ProcessPoolExecutor",
        ),
        release=("shutdown",),
        context_manager=True,
    ),
    ResourceSpec(
        kind="file",
        what="open file",
        acquire=("open", "io.open"),
        release=("close",),
        context_manager=True,
    ),
    ResourceSpec(
        kind="tracer-span",
        what="tracer span",
        acquire=("repro.obs.spans.SpanTracer.span",),
        release=(),
        context_manager=True,
    ),
    ResourceSpec(
        kind="trajectory-recorder",
        what="controller trajectory recorder",
        acquire=("repro.control.controller.TrajectoryRecorder",),
        release=("close",),
        context_manager=True,
    ),
)

_SPEC_BY_KIND = {spec.kind: spec for spec in RESOURCE_SPECS}


def _strip_init(qual: str) -> str:
    return qual[: -len(".__init__")] if qual.endswith(".__init__") else qual


def _spec_for_name(canon: str) -> Optional[ResourceSpec]:
    for spec in RESOURCE_SPECS:
        if canon in spec.acquire:
            return spec
    return None


def resource_returners(project) -> dict[str, str]:
    """qualname -> resource kind for functions returning an acquire.

    Transitive fixpoint over the call graph's returned-call refs:
    ``_make_executor`` returns ``ProcessWorkQueue(...)`` directly, and a
    wrapper returning ``_make_executor(...)`` inherits the kind.  The
    result is memoized on the project object.
    """
    cached = getattr(project, "_sstd_resource_returners", None)
    if cached is not None:
        return cached
    out: dict[str, str] = {}
    returned = getattr(project, "returned", {})

    def kind_of(ref: str, targets: tuple[str, ...]) -> Optional[str]:
        for target in targets:
            kind = out.get(target)
            if kind is not None:
                return kind
            spec = _spec_for_name(_strip_init(target))
            if spec is not None:
                return spec.kind
        spec = _spec_for_name(_strip_init(ref.partition(":")[2]))
        return spec.kind if spec is not None else None

    changed = True
    while changed:
        changed = False
        for qual, entries in returned.items():
            if qual in out:
                continue
            for ref, targets in entries:
                kind = kind_of(ref, targets)
                if kind is not None:
                    out[qual] = kind
                    changed = True
                    break
    project._sstd_resource_returners = out
    return out


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


# ---------------------------------------------------------------------------
# The per-function lifecycle walker
# ---------------------------------------------------------------------------

_HELD = "held"
_RELEASED = "released"
_MAYBE = "maybe"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


@dataclass(slots=True)
class _Binding:
    name: str
    spec: ResourceSpec
    node: ast.AST  # acquire site
    reported: bool = False


@dataclass(frozen=True, slots=True)
class _Frame:
    """Protection one enclosing try/with contributes to its body.

    ``released_pairs`` — ``(binding name, method)`` release calls a
    ``finally`` guarantees; ``cm_names`` — bindings a ``with`` exit
    releases; ``absorbs`` — a broad handler stops any exception here;
    ``catches`` — classes the handlers stop (filters explicit raises).
    """

    released_pairs: frozenset[tuple[str, str]] = frozenset()
    cm_names: frozenset[str] = frozenset()
    absorbs: bool = False
    catches: frozenset[str] = frozenset()

    def protects(self, name: str, spec: ResourceSpec) -> bool:
        if name in self.cm_names:
            return True
        return any(
            (name, meth) in self.released_pairs for meth in spec.release
        )


def _handler_catch_names(handler: ast.ExceptHandler) -> tuple[str, ...]:
    if handler.type is None:
        return ("*",)
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    return tuple(dotted_name(node) or "*" for node in types)


def _released_in(stmts: list[ast.stmt]) -> frozenset[tuple[str, str]]:
    """``(name, method)`` calls anywhere in a ``finally`` body."""
    pairs: set[tuple[str, str]] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                pairs.add((node.func.value.id, node.func.attr))
    return frozenset(pairs)


def _exprs_may_raise(*exprs: Optional[ast.expr]) -> bool:
    """Any call (hence any possible exception) in the given expressions."""
    for expr in exprs:
        if expr is None:
            continue
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, _DEFS):
                continue
            if isinstance(node, ast.Call):
                return True
            stack.extend(ast.iter_child_nodes(node))
    return False


class _LifecycleWalker:
    """Tracks resource bindings through one function body."""

    def __init__(
        self,
        ctx: FileContext,
        imports: ImportMap,
        resolved: dict[ast.Call, tuple[str, ...]],
        returners: dict[str, str],
    ) -> None:
        self.ctx = ctx
        self.imports = imports
        self.resolved = resolved
        self.returners = returners
        #: (node, message) per leak.
        self.leaks: list[tuple[ast.AST, str]] = []

    # -- registry matching ----------------------------------------------
    def _canon(self, callee: str) -> str:
        root, _, rest = callee.partition(".")
        target = self.imports.aliases.get(root, root)
        return f"{target}.{rest}" if rest else target

    def acquire_spec(self, call: ast.Call) -> Optional[ResourceSpec]:
        targets = self.resolved.get(call, ())
        if targets:
            # The call resolved into the project: trust the call graph
            # (a local helper shadowing ``open`` must not match the
            # file spec syntactically).
            for target in targets:
                kind = self.returners.get(target)
                if kind is not None:
                    return _SPEC_BY_KIND[kind]
                spec = _spec_for_name(_strip_init(target))
                if spec is not None:
                    return spec
            return None
        callee = dotted_name(call.func)
        if not callee:
            return None
        return _spec_for_name(self._canon(callee))

    # -- findings --------------------------------------------------------
    def report_leak(
        self, binding: _Binding, site: ast.AST, why: str
    ) -> None:
        if binding.reported:
            return
        binding.reported = True
        release = (
            " or ".join(f"{m}()" for m in binding.spec.release)
            or "its context manager"
        )
        message = (
            f"{binding.spec.what} '{binding.name}' "
            f"(acquired at line {binding.node.lineno}) {why}; release it "
            f"with {release} in a finally block"
            + (
                " or use it as a context manager"
                if binding.spec.context_manager
                else ""
            )
        )
        self.leaks.append((site, message))

    # -- the walk --------------------------------------------------------
    def run(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        env = self.walk(func.body, {}, ())
        for name, (state, binding) in env.items():
            if state == _HELD and not binding.reported:
                self.report_leak(
                    binding,
                    binding.node,
                    "is still held when the function exits",
                )

    def walk(
        self,
        stmts: list[ast.stmt],
        env: dict[str, tuple[str, _Binding]],
        frames: tuple[_Frame, ...],
    ) -> dict[str, tuple[str, _Binding]]:
        for stmt in stmts:
            env = self.walk_stmt(stmt, env, frames)
        return env

    def _escapes(
        self, frames: tuple[_Frame, ...], exc: Optional[str] = None
    ) -> bool:
        """Would an exception here propagate out of the function?"""
        for frame in frames:
            if frame.absorbs:
                return False
            if exc is not None and exception_caught(exc, frame.catches):
                return False
        return True

    def check_exceptional(
        self,
        site: ast.AST,
        env: dict[str, tuple[str, _Binding]],
        frames: tuple[_Frame, ...],
        exc: Optional[str] = None,
        exempt: frozenset[str] = frozenset(),
    ) -> None:
        """Flag held, unprotected bindings at a may-raise statement."""
        if not self._escapes(frames, exc):
            return
        for name, (state, binding) in env.items():
            if state != _HELD or name in exempt:
                continue
            if any(frame.protects(name, binding.spec) for frame in frames):
                continue
            self.report_leak(
                binding,
                site,
                "leaks if this statement raises (no enclosing finally or "
                "with releases it)",
            )

    # -- expression effects ---------------------------------------------
    def _release_targets(self, stmt: ast.stmt) -> frozenset[str]:
        """Binding names whose release method this statement calls."""
        names: set[str] = set()
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                names.add(node.func.value.id)
        return frozenset(names)

    def transfer(self, env: dict, name: str) -> None:
        env.pop(name, None)

    def scan_expr(
        self,
        expr: Optional[ast.expr],
        env: dict[str, tuple[str, _Binding]],
        top_discard: bool = False,
    ) -> None:
        """Apply release / transfer effects within an expression.

        ``top_discard``: the expression is a bare ``Expr`` statement,
        so a top-level acquire call's result is dropped on the floor —
        an immediate leak (unless it is itself a release/use call).
        """
        if expr is None:
            return
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, _DEFS):
                # Closure capture of a held binding = hand-off.
                for inner in ast.walk(node):
                    if (
                        isinstance(inner, ast.Name)
                        and isinstance(inner.ctx, ast.Load)
                        and inner.id in env
                    ):
                        self.transfer(env, inner.id)
                continue
            if isinstance(node, ast.Call):
                self._scan_call(node, env, discard=(node is expr and top_discard))
            stack.extend(ast.iter_child_nodes(node))

    def _scan_call(
        self,
        call: ast.Call,
        env: dict[str, tuple[str, _Binding]],
        discard: bool = False,
    ) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            bound = env.get(func.value.id)
            if bound is not None and func.attr in bound[1].spec.release:
                env[func.value.id] = (_RELEASED, bound[1])
                return
        # Passing a binding to a call hands its ownership over.
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Starred):
                arg = arg.value
            if isinstance(arg, ast.Name) and arg.id in env:
                self.transfer(env, arg.id)
        if discard:
            spec = self.acquire_spec(call)
            if spec is not None:
                name = dotted_name(call.func) or spec.kind
                message = (
                    f"{spec.what} acquired by {name}(...) is discarded — "
                    "nothing can ever release it; bind it and release in "
                    "a finally block"
                    + (
                        " or use a with statement"
                        if spec.context_manager
                        else ""
                    )
                )
                self.leaks.append((call, message))

    # -- statement dispatch ----------------------------------------------
    def walk_stmt(
        self,
        stmt: ast.stmt,
        env: dict[str, tuple[str, _Binding]],
        frames: tuple[_Frame, ...],
    ) -> dict[str, tuple[str, _Binding]]:
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            return self._walk_try(stmt, env, frames)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._walk_with(stmt, env, frames)
        if isinstance(stmt, ast.If):
            if _exprs_may_raise(stmt.test):
                self.check_exceptional(stmt, env, frames)
            self.scan_expr(stmt.test, env)
            env_body = self.walk(stmt.body, dict(env), frames)
            env_else = self.walk(stmt.orelse, dict(env), frames)
            return _join(env_body, env_else)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            if _exprs_may_raise(stmt.iter):
                self.check_exceptional(stmt, env, frames)
            self.scan_expr(stmt.iter, env)
            env_body = self.walk(stmt.body, dict(env), frames)
            env_body = self.walk(stmt.orelse, env_body, frames)
            return _join(env, env_body)
        if isinstance(stmt, ast.While):
            if _exprs_may_raise(stmt.test):
                self.check_exceptional(stmt, env, frames)
            self.scan_expr(stmt.test, env)
            env_body = self.walk(stmt.body, dict(env), frames)
            env_body = self.walk(stmt.orelse, env_body, frames)
            return _join(env, env_body)
        if isinstance(stmt, _DEFS[:3]):
            # Nested def/class: capture of a held binding is a hand-off.
            for inner in ast.walk(stmt):
                if (
                    isinstance(inner, ast.Name)
                    and isinstance(inner.ctx, ast.Load)
                    and inner.id in env
                ):
                    self.transfer(env, inner.id)
            return env
        return self._walk_simple(stmt, env, frames)

    def _walk_simple(
        self,
        stmt: ast.stmt,
        env: dict[str, tuple[str, _Binding]],
        frames: tuple[_Frame, ...],
    ) -> dict[str, tuple[str, _Binding]]:
        if isinstance(stmt, ast.Raise):
            exc_target = (
                stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            )
            exc = dotted_name(exc_target) if exc_target is not None else "*"
            self.check_exceptional(stmt, env, frames, exc=exc or "*")
            self.scan_expr(stmt.exc, env)
            return env
        if isinstance(stmt, ast.Return):
            # ``finally`` frames run on return too; a held binding not
            # protected and not returned leaks on this normal path.
            if isinstance(stmt.value, ast.Name) and stmt.value.id in env:
                self.transfer(env, stmt.value.id)
            elif stmt.value is not None:
                if _exprs_may_raise(stmt.value):
                    self.check_exceptional(stmt, env, frames)
                self.scan_expr(stmt.value, env)
            for name, (state, binding) in list(env.items()):
                if state != _HELD:
                    continue
                if any(f.protects(name, binding.spec) for f in frames):
                    continue
                self.report_leak(
                    binding, stmt, "is still held at this return"
                )
            return env
        # Generic may-raise check first (release calls exempt their own
        # receiver: a failing release is not usefully "a leak of the
        # thing being released").
        if _exprs_may_raise(*_stmt_exprs(stmt)):
            self.check_exceptional(
                stmt, env, frames, exempt=self._release_targets(stmt)
            )
        if isinstance(stmt, ast.Assign):
            self._walk_assign(stmt, env)
            return env
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._walk_assign_value(stmt.target, stmt.value, env, stmt)
            return env
        if isinstance(stmt, ast.Expr):
            self.scan_expr(stmt.value, env, top_discard=True)
            return env
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.transfer(env, target.id)
            return env
        for expr in _stmt_exprs(stmt):
            self.scan_expr(expr, env)
        return env

    def _walk_assign(self, stmt: ast.Assign, env: dict) -> None:
        for target in stmt.targets:
            self._walk_assign_value(target, stmt.value, env, stmt)

    def _walk_assign_value(
        self,
        target: ast.expr,
        value: ast.expr,
        env: dict[str, tuple[str, _Binding]],
        stmt: ast.stmt,
    ) -> None:
        spec = (
            self.acquire_spec(value) if isinstance(value, ast.Call) else None
        )
        if spec is not None:
            if isinstance(target, ast.Name):
                self.scan_expr(value, env)
                env[target.id] = (
                    _HELD,
                    _Binding(name=target.id, spec=spec, node=value),
                )
                return
            if isinstance(target, ast.Attribute):
                if self._owns_annotated(stmt):
                    self.scan_expr(value, env)
                    return
                message = (
                    f"{spec.what} stored on attribute "
                    f"'{dotted_name(target) or target.attr}' without an "
                    "'# owns-resource:' annotation; the lifecycle is "
                    "untracked from here — annotate the assignment to "
                    "transfer ownership to the object (which must "
                    f"release it) or keep it local"
                )
                self.leaks.append((stmt, message))
                return
            # Tuple/subscript target: treat as container hand-off.
            self.scan_expr(value, env)
            return
        if isinstance(value, ast.Name) and value.id in env:
            bound = env.pop(value.id)
            if isinstance(target, ast.Name):
                env[target.id] = (bound[0], bound[1])
            # attribute / container store: hand-off (owns-resource is
            # only demanded for *direct* acquire-to-attribute stores;
            # aliased stores are a documented gap).
            return
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            for elt in value.elts:
                if isinstance(elt, ast.Name) and elt.id in env:
                    self.transfer(env, elt.id)
        self.scan_expr(value, env)
        if isinstance(target, ast.Name) and target.id in env:
            # Rebinding a tracked name to something else loses it.
            env.pop(target.id, None)

    def _owns_annotated(self, stmt: ast.stmt) -> bool:
        end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
        for lineno in range(stmt.lineno, min(end, stmt.lineno + 4) + 1):
            if OWNS_RESOURCE_RE.search(self.ctx.line_text(lineno)):
                return True
        return False

    # -- compound statements ---------------------------------------------
    def _walk_try(
        self,
        stmt,
        env: dict[str, tuple[str, _Binding]],
        frames: tuple[_Frame, ...],
    ) -> dict[str, tuple[str, _Binding]]:
        catches: set[str] = set()
        for handler in stmt.handlers:
            catches.update(_handler_catch_names(handler))
        absorbs = bool(catches) and exception_caught("*", frozenset(catches))
        fin_pairs = _released_in(stmt.finalbody)
        body_frame = _Frame(
            released_pairs=fin_pairs,
            absorbs=absorbs,
            catches=frozenset(catches),
        )
        fin_frame = _Frame(released_pairs=fin_pairs)
        entry = dict(env)
        env_body = self.walk(stmt.body, dict(env), frames + (body_frame,))
        env_after = self.walk(
            stmt.orelse, dict(env_body), frames + (fin_frame,)
        )
        # Handlers run from an unknown point in the body: conservative
        # entry state is the join of try-entry and body-exit.
        handler_entry = _join(entry, env_body)
        for handler in stmt.handlers:
            env_handler = self.walk(
                handler.body, dict(handler_entry), frames + (fin_frame,)
            )
            env_after = _join(env_after, env_handler)
        return self.walk(stmt.finalbody, env_after, frames)

    def _walk_with(
        self,
        stmt,
        env: dict[str, tuple[str, _Binding]],
        frames: tuple[_Frame, ...],
    ) -> dict[str, tuple[str, _Binding]]:
        if any(_exprs_may_raise(item.context_expr) for item in stmt.items):
            self.check_exceptional(stmt, env, frames)
        cm_names: set[str] = set()
        exit_released: list[str] = []
        for item in stmt.items:
            ce = item.context_expr
            spec = self.acquire_spec(ce) if isinstance(ce, ast.Call) else None
            if spec is not None and isinstance(item.optional_vars, ast.Name):
                # ``with acquire() as x:`` — guaranteed release at exit.
                name = item.optional_vars.id
                env[name] = (_HELD, _Binding(name=name, spec=spec, node=ce))
                cm_names.add(name)
                exit_released.append(name)
                continue
            if spec is not None:
                # Anonymous ``with acquire():`` — released at exit.
                continue
            if isinstance(ce, ast.Name) and ce.id in env:
                # ``with q:`` over an already-held binding.
                cm_names.add(ce.id)
                exit_released.append(ce.id)
                continue
            self.scan_expr(ce, env)
        frame = _Frame(cm_names=frozenset(cm_names))
        env = self.walk(stmt.body, env, frames + (frame,))
        for name in exit_released:
            bound = env.get(name)
            if bound is not None:
                env[name] = (_RELEASED, bound[1])
        return env


def _join(
    a: dict[str, tuple[str, "_Binding"]],
    b: dict[str, tuple[str, "_Binding"]],
) -> dict[str, tuple[str, "_Binding"]]:
    """Merge branch environments; disagreement demotes to *maybe*."""
    out: dict[str, tuple[str, _Binding]] = {}
    for name in set(a) | set(b):
        ia, ib = a.get(name), b.get(name)
        if ia is None and ib is None:
            continue
        if ia is None or ib is None:
            present = ia or ib
            out[name] = (_MAYBE, present[1])
        elif ia[0] == ib[0] and ia[1] is ib[1]:
            out[name] = ia
        else:
            out[name] = (_MAYBE, ia[1])
    return out


def _stmt_exprs(stmt: ast.stmt) -> list[ast.expr]:
    return [
        child
        for child in ast.iter_child_nodes(stmt)
        if isinstance(child, ast.expr)
    ]


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _iter_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Top-level functions and class methods (nested defs excluded:
    the walker treats closure capture as a hand-off, and analyzing a
    closure without its capture environment would re-flag transfers)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub


def _run_walker(ctx: FileContext) -> _LifecycleWalker:
    imports = ImportMap(ctx.tree)
    resolved: dict[ast.Call, tuple[str, ...]] = {}
    returners: dict[str, str] = {}
    project = getattr(ctx, "project", None)
    if project is not None and project.has_module(ctx.module):
        # Keyed by the call node of the tree this walker reads (the
        # project adopted this context's parse).
        for site in project.resolved_calls(ctx.module):
            if site.targets:
                resolved[site.node] = site.targets
        returners = resource_returners(project)
    walker = _LifecycleWalker(ctx, imports, resolved, returners)
    for func in _iter_functions(ctx.tree):
        walker.run(func)
    return walker


@register
class ResourceLeakRule(Rule):
    rule_id = "SSTD014"
    summary = "acquired resources are released on every path"
    needs_project = True
    sanction = (
        "# owns-resource: on an attribute-store line transfers the "
        "release obligation to the object; with/finally-covered "
        "releases, returns, and call-argument hand-offs are clean by "
        "construction"
    )
    example = (
        "def bad():\n"
        "    owner = shm.publish_arrays(arrays)   # SSTD014\n"
        "    risky()        # may raise -> segment leaks\n"
        "    owner.close_and_unlink()\n"
        "\n"
        "def good():\n"
        "    owner = shm.publish_arrays(arrays)\n"
        "    try:\n"
        "        risky()\n"
        "    finally:\n"
        "        owner.close_and_unlink()\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        walker = _run_walker(ctx)
        for node, message in walker.leaks:
            yield self.finding(ctx, node, message)
