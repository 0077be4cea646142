"""Project-wide call graph and bottom-up function summaries.

The flow walker (:mod:`repro.devtools.lint.flow`) is deliberately
intraprocedural: one class at a time, one level of ``self.<helper>()``.
That misses the hazards the paper's master/worker runtime grows into —
a blocking call reached through a module-level helper or a cross-class
handoff (``workqueue.process`` → ``obs.metrics``), a ``# holds-lock:``
helper called from another class, a resource handed out by a factory.
This module closes the gap in three stages:

1. **Per-module summaries** (:class:`ModuleInfo`).  Each file is
   reduced to a record of every function/method with its calls
   (canonicalized against the file's imports but *unresolved* — no
   other module's content is consulted), the lockset held at each call,
   its declared ``# holds-lock:`` entry locks, whether it contains a
   *leaf* blocking call, and the calls whose result it may return,
   plus per-class metadata (bases, methods, class-valued attributes).

2. **Global resolution** (:class:`ProjectAnalysis`).  Call references
   are resolved across modules: re-exports are followed through
   package ``__init__`` import maps, ``Class.method`` and constructor
   calls land on the defining class (searching bases), classmethod
   factories (``Observability.from_env()``) resolve to the class they
   build, and attribute chains (``self.obs.metrics.inc``) walk the
   class-valued attribute tables.

3. **The may-block fixpoint.**  A function blocks if it has a leaf
   blocking call or calls one that may block; the call chain to the
   blocking leaf is kept for SSTD008's diagnostic.

Known false-negative limits (see DESIGN.md): dynamic dispatch through
untyped values, callables stored in containers, monkey-patching, and
receivers the attribute tables cannot type are all invisible; the
analysis is deliberately unsound-but-useful, tuned to the annotation
discipline this repo already enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional

from repro.devtools.lint.engine import FileContext, module_name_for
from repro.devtools.lint.flow import (
    ClassFlow,
    MethodFlow,
    analyze_class,
    analyze_function,
    blocking_reason,
)
from repro.devtools.lint.names import ImportMap, dotted_name

__all__ = [
    "BlockSummary",
    "CallRef",
    "ClassInfo",
    "FunctionNode",
    "ModuleInfo",
    "ProjectAnalysis",
    "ResolvedCall",
    "build_module_info",
    "build_project",
    "build_project_for_context",
]

_FOLLOW_LIMIT = 16  # re-export chains are short; bound the walk anyway


# ---------------------------------------------------------------------------
# Per-module summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CallRef:
    """One call site, canonicalized but not yet resolved.

    ``ref`` grammar:

    - ``path:<dotted>`` — a plain or imported name (module function,
      class constructor, ``Class.method``); resolution follows
      re-exports.
    - ``attr:<class path>.<attr chain>.<meth>`` — a method call on a
      typed receiver (``self.<helper>``, ``self.obs.metrics.inc``, a
      local/parameter of a known class).
    """

    ref: str
    held: tuple[str, ...]
    line: int
    col: int


@dataclass(frozen=True, slots=True)
class FunctionNode:
    """Summary of one function or method body."""

    qualname: str
    cls: Optional[str]
    name: str
    line: int
    col: int
    entry_locks: tuple[str, ...]
    #: (reason, line, col) of the first *leaf* blocking call, if any.
    block: Optional[tuple[str, int, int]]
    calls: tuple[CallRef, ...]
    #: Canonical refs of calls whose result this function may return
    #: (``return f(...)`` or ``x = f(...) ... return x``); the resource
    #: rule chases these to find acquire-wrappers like ``_make_executor``.
    returned_refs: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ClassInfo:
    """Metadata the resolver needs about one class."""

    name: str
    module: str
    bases: tuple[str, ...]
    methods: tuple[str, ...]
    #: attr -> canonical class path (``obs`` -> ``repro.obs.Observability``).
    attr_classes: Mapping[str, str]


@dataclass(slots=True)
class ModuleInfo:
    """Everything the project layer keeps about one module.

    Contains no resolved cross-module facts: it is built from the
    module's own text and imports alone.
    """

    module: str
    path: str
    imports: dict[str, str]
    functions: list[FunctionNode]
    classes: dict[str, ClassInfo]


def _class_effects_fixpoint(
    ctx: FileContext, cls: ast.ClassDef
) -> ClassFlow:
    """Analyze a class, iterating same-class helper lock effects.

    ``self._take()`` / ``self._give()`` helpers change the lockset at
    their call sites; one ``analyze_class`` pass computes each method's
    net effects, the next applies them, until stable (bounded — the
    lattice of (acquired, released) pairs over a class's few locks is
    tiny).
    """
    effects: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    flow = analyze_class(ctx, cls)
    for _ in range(4):
        new: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
        for name, method in flow.methods.items():
            acquired = method.exit_locks - method.entry_locks
            released = method.entry_locks - method.exit_locks
            if acquired or released:
                new[name] = (acquired, released)
        if new == effects:
            break
        effects = new
        flow = analyze_class(ctx, cls, helper_effects=effects)
    return flow


class _RefBuilder:
    """Canonicalizes call references against one module's namespace."""

    def __init__(
        self,
        module: str,
        imports: dict[str, str],
        class_names: frozenset[str],
        func_names: frozenset[str],
    ) -> None:
        self.module = module
        self.imports = imports
        self.class_names = class_names
        self.func_names = func_names

    def canon(self, text: str) -> str:
        """Qualify a raw dotted class text against this module."""
        root, _, rest = text.partition(".")
        if root in self.class_names:
            return f"{self.module}.{text}"
        target = self.imports.get(root)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        return text

    def ref_for(
        self,
        callee: Optional[str],
        cls_name: Optional[str],
        attr_classes: Mapping[str, str],
        method: MethodFlow,
    ) -> Optional[str]:
        if not callee:
            return None
        root, _, rest = callee.partition(".")
        if root == "self":
            if not rest:
                return None
            first, _, chain = rest.partition(".")
            if not chain:
                if cls_name is None:
                    return None
                return f"attr:{self.module}.{cls_name}.{first}"
            base = attr_classes.get(first)
            if base is None:
                return None
            return f"attr:{self.canon(base)}.{chain}"
        local = method.local_classes.get(root) or method.params.get(root)
        if local is not None:
            if not rest:
                return None  # bare ``instance()`` — __call__, out of scope
            return f"attr:{self.canon(local)}.{rest}"
        if not rest:
            if root in self.func_names or root in self.class_names:
                return f"path:{self.module}.{root}"
            target = self.imports.get(root)
            return f"path:{target}" if target else None
        if root in self.class_names:
            return f"path:{self.module}.{callee}"
        target = self.imports.get(root)
        return f"path:{target}.{rest}" if target else None


def build_module_info(
    ctx: FileContext,
    flows: Optional[dict[str, ClassFlow]] = None,
) -> ModuleInfo:
    """Reduce one parsed file to its summary.

    ``flows``, when given, is filled with the (effects-aware) per-class
    flows computed along the way so callers can reuse them instead of
    re-walking.
    """
    imports = ImportMap(ctx.tree)
    top_classes = [
        node for node in ctx.tree.body if isinstance(node, ast.ClassDef)
    ]
    top_funcs = [
        node
        for node in ctx.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    refs = _RefBuilder(
        module=ctx.module,
        imports=imports.aliases,
        class_names=frozenset(c.name for c in top_classes),
        func_names=frozenset(f.name for f in top_funcs),
    )

    functions: list[FunctionNode] = []
    classes: dict[str, ClassInfo] = {}

    def globalize(cls_name: str, locks: Iterable[str]) -> tuple[str, ...]:
        return tuple(
            sorted(f"{ctx.module}.{cls_name}.{lock}" for lock in locks)
        )

    def node_for(
        method: MethodFlow,
        cls_name: Optional[str],
        attr_classes: Mapping[str, str],
        model,
    ) -> FunctionNode:
        qual = (
            f"{ctx.module}.{cls_name}.{method.name}"
            if cls_name
            else f"{ctx.module}.{method.name}"
        )
        block: Optional[tuple[str, int, int]] = None
        calls: list[CallRef] = []
        for event in method.calls:
            if block is None:
                reason = blocking_reason(event, model, method, imports)
                if reason is not None:
                    # The flow-layer phrasing ends with a splice comma
                    # ("... blocks until exit,"); summaries store the
                    # clause standalone.
                    block = (
                        reason.rstrip(","),
                        event.node.lineno,
                        event.node.col_offset,
                    )
            ref = refs.ref_for(event.callee, cls_name, attr_classes, method)
            if ref is not None:
                held = (
                    globalize(cls_name, event.held)
                    if cls_name
                    else tuple(sorted(event.held))
                )
                calls.append(
                    CallRef(
                        ref=ref,
                        held=held,
                        line=event.node.lineno,
                        col=event.node.col_offset,
                    )
                )
        entry = (
            globalize(cls_name, method.entry_locks) if cls_name else ()
        )
        return FunctionNode(
            qualname=qual,
            cls=cls_name,
            name=method.name,
            line=method.node.lineno,
            col=method.node.col_offset,
            entry_locks=entry,
            block=block,
            calls=tuple(calls),
            returned_refs=_returned_refs(
                method, cls_name, attr_classes, refs
            ),
        )

    for cls in top_classes:
        flow = _class_effects_fixpoint(ctx, cls)
        if flows is not None:
            flows[cls.name] = flow
        model = flow.model
        classes[cls.name] = ClassInfo(
            name=cls.name,
            module=ctx.module,
            bases=tuple(
                refs.canon(text)
                for text in (dotted_name(base) for base in cls.bases)
                if text is not None
            ),
            methods=tuple(flow.methods),
            attr_classes={
                attr: refs.canon(text)
                for attr, text in model.attr_classes.items()
            },
        )
        for method in flow.methods.values():
            functions.append(
                node_for(method, cls.name, model.attr_classes, model)
            )

    for func in top_funcs:
        method = analyze_function(ctx, func)
        functions.append(node_for(method, None, {}, None))

    return ModuleInfo(
        module=ctx.module,
        path=ctx.path,
        imports=dict(imports.aliases),
        functions=functions,
        classes=classes,
    )


def _returned_refs(
    method: MethodFlow,
    cls_name: Optional[str],
    attr_classes: Mapping[str, str],
    refs: _RefBuilder,
) -> tuple[str, ...]:
    """Canonical refs of calls whose result the function may return.

    Covers ``return f(...)`` directly and the two-step
    ``x = f(...) ... return x`` (last assignment wins — branches are
    not path-sensitive here; over-approximating the returned set only
    makes *more* functions count as resource constructors, which is
    the safe direction for leak tracking).  Nested ``def`` bodies are
    skipped: their returns are not this function's returns.
    """
    assigned: dict[str, str] = {}
    out: list[str] = []

    def ref_of(call: ast.Call) -> Optional[str]:
        return refs.ref_for(
            dotted_name(call.func), cls_name, attr_classes, method
        )

    def scan(stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.Assign):
                ref = (
                    ref_of(stmt.value)
                    if isinstance(stmt.value, ast.Call)
                    else None
                )
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if ref is not None:
                            assigned[target.id] = ref
                        else:
                            assigned.pop(target.id, None)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                value = stmt.value
                ref = None
                if isinstance(value, ast.Call):
                    ref = ref_of(value)
                elif isinstance(value, ast.Name):
                    ref = assigned.get(value.id)
                if ref is not None and ref not in out:
                    out.append(ref)
            for name in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, name, None)
                if isinstance(sub, list) and sub and isinstance(sub[0], ast.stmt):
                    scan(sub)
            for handler in getattr(stmt, "handlers", ()) or ():
                scan(handler.body)

    scan(method.node.body)
    return tuple(out)


# ---------------------------------------------------------------------------
# Global resolution and the may-block fixpoint
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BlockSummary:
    """Why (and where, and through whom) a function may block."""

    reason: str
    chain: tuple[str, ...]
    path: str
    line: int
    col: int

    def describe(self) -> str:
        if len(self.chain) <= 1:
            return self.reason
        return f"{self.reason} via {' -> '.join(self.chain)}"


@dataclass(slots=True)
class ResolvedCall:
    """A call site with its resolved target qualnames (for rules)."""

    caller: str
    targets: tuple[str, ...]
    held: tuple[str, ...]
    line: int
    col: int


class ProjectAnalysis:
    """Resolved call graph plus bottom-up summaries for a file set."""

    def __init__(
        self,
        modules: dict[str, ModuleInfo],
        sources: Mapping[str, tuple[str, str]],
    ) -> None:
        #: module -> ModuleInfo
        self.modules = modules
        #: module -> (path, source); feeds lazy FileContext creation.
        self._sources = dict(sources)
        self._contexts: dict[str, FileContext] = {}
        self._flows: dict[str, list[ClassFlow]] = {}
        self._build_flows: dict[str, dict[str, ClassFlow]] = {}
        #: ``module.Class`` -> ClassInfo
        self.class_index: dict[str, ClassInfo] = {}
        #: qualname -> (module, FunctionNode)
        self.functions: dict[str, tuple[str, FunctionNode]] = {}
        self._func_names: dict[str, frozenset[str]] = {}
        for module, info in modules.items():
            names = set()
            for fn in info.functions:
                self.functions[fn.qualname] = (module, fn)
                if fn.cls is None:
                    names.add(fn.name)
            self._func_names[module] = frozenset(names)
            for name, cls in info.classes.items():
                self.class_index[f"{module}.{name}"] = cls
        #: module -> resolved call sites (for the rules).
        self._module_calls: dict[str, list[ResolvedCall]] = {
            m: [] for m in modules
        }
        #: qualname -> declared entry locks (``# holds-lock:``).
        self.entry_locks: dict[str, frozenset[str]] = {
            q: frozenset(fn.entry_locks)
            for q, (_, fn) in self.functions.items()
        }
        self._resolved: dict[str, list[tuple[CallRef, tuple[str, ...]]]] = {}
        self._resolve_all()
        self.blocking: dict[str, BlockSummary] = {}
        self._blocking_fixpoint()
        #: qualname -> ((canonical ref, resolved targets), ...) for
        #: calls whose result the function may return.
        self.returned: dict[
            str, tuple[tuple[str, tuple[str, ...]], ...]
        ] = {
            fn.qualname: tuple(
                (ref, self.resolve_ref(ref)) for ref in fn.returned_refs
            )
            for info in modules.values()
            for fn in info.functions
            if fn.returned_refs
        }

    # -- module access ---------------------------------------------------
    def has_module(self, module: str) -> bool:
        return module in self.modules

    def context(self, module: str) -> FileContext:
        """Parse (memoized) the module's source, project attached."""
        ctx = self._contexts.get(module)
        if ctx is None:
            path, source = self._sources[module]
            ctx = FileContext.from_source(source, path=path, module=module)
            ctx.project = self
            self._contexts[module] = ctx
        return ctx

    def adopt_context(self, ctx: FileContext) -> None:
        """Reuse an already-parsed context (build-time parses)."""
        ctx.project = self
        self._contexts.setdefault(ctx.module, ctx)

    def adopt_flows(self, module: str, flows: dict[str, ClassFlow]) -> None:
        """Seed the flow memo with build-time per-class flows.

        Only top-level classes are built eagerly; nested classes are
        filled in lazily by :meth:`class_flows`.
        """
        self._build_flows[module] = flows

    def class_flows(self, module: str) -> list[ClassFlow]:
        """Effects-aware flows for every class in the module (memoized)."""
        cached = self._flows.get(module)
        if cached is not None:
            return cached
        ctx = self.context(module)
        prebuilt = self._build_flows.get(module, {})
        flows: list[ClassFlow] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            flow = prebuilt.get(node.name)
            if flow is None or flow.node is not node:
                flow = _class_effects_fixpoint(ctx, node)
            flows.append(flow)
        self._flows[module] = flows
        return flows

    def resolved_calls(self, module: str) -> list[ResolvedCall]:
        return self._module_calls.get(module, [])

    # -- name resolution -------------------------------------------------
    def _follow(self, path: str) -> str:
        """Follow ``from X import y`` re-export chains to a fixpoint."""
        for _ in range(_FOLLOW_LIMIT):
            mod, _, name = path.rpartition(".")
            if not name or mod not in self.modules:
                return path
            target = self.modules[mod].imports.get(name)
            if target is None or target == path:
                return path
            path = target
        return path

    def resolve_class(self, path: str) -> Optional[ClassInfo]:
        return self.class_index.get(self._follow(path))

    def _instance_class(self, path: str) -> Optional[ClassInfo]:
        """Class an expression of canonical ``path`` evaluates to.

        Handles the classmethod-factory idiom: ``X.from_env`` resolves
        to ``X`` when ``from_env`` is one of ``X``'s methods.
        """
        cls = self.resolve_class(path)
        if cls is not None:
            return cls
        prefix, _, last = path.rpartition(".")
        if not prefix:
            return None
        cls = self.resolve_class(prefix)
        if cls is not None and self._find_method(cls, last):
            return cls
        return None

    def _find_method(
        self, cls: ClassInfo, meth: str, _depth: int = 0
    ) -> Optional[str]:
        """Qualname of ``meth`` on ``cls`` or its bases, else None."""
        if _depth > 8:
            return None
        if meth in cls.methods:
            return f"{cls.module}.{cls.name}.{meth}"
        for base in cls.bases:
            parent = self.resolve_class(base)
            if parent is not None and parent is not cls:
                found = self._find_method(parent, meth, _depth + 1)
                if found is not None:
                    return found
        return None

    def resolve_ref(self, ref: str) -> tuple[str, ...]:
        """Qualnames a canonical reference may land on (possibly none)."""
        kind, _, spec = ref.partition(":")
        if kind == "path":
            path = self._follow(spec)
            mod, _, name = path.rpartition(".")
            if mod in self.modules and name in self._func_names[mod]:
                return (f"{mod}.{name}",)
            cls = self.class_index.get(path)
            if cls is not None:  # constructor call
                init = self._find_method(cls, "__init__")
                return (init,) if init else ()
            prefix, _, meth = path.rpartition(".")
            if prefix:
                cls = self.resolve_class(prefix)
                if cls is not None:  # Class.method / classmethod
                    found = self._find_method(cls, meth)
                    return (found,) if found else ()
            return ()
        if kind == "attr":
            # <class path>.<attr chain>.<meth>; the class path itself
            # contains dots, so peel segments off the right.
            segments = spec.split(".")
            for split in range(len(segments) - 1, 0, -1):
                cls = self._instance_class(".".join(segments[:split]))
                if cls is None:
                    continue
                chain = segments[split:]
                for attr in chain[:-1]:
                    nxt = cls.attr_classes.get(attr)
                    cls = (
                        self._instance_class(nxt)
                        if nxt is not None
                        else None
                    )
                    if cls is None:
                        break
                if cls is None:
                    continue
                found = self._find_method(cls, chain[-1])
                return (found,) if found else ()
            return ()
        return ()

    def _resolve_all(self) -> None:
        for module in sorted(self.modules):
            for fn in self.modules[module].functions:
                resolved: list[tuple[CallRef, tuple[str, ...]]] = []
                for call in fn.calls:
                    targets = self.resolve_ref(call.ref)
                    resolved.append((call, targets))
                    self._module_calls[module].append(
                        ResolvedCall(
                            caller=fn.qualname,
                            targets=targets,
                            held=call.held,
                            line=call.line,
                            col=call.col,
                        )
                    )
                self._resolved[fn.qualname] = resolved

    def _blocking_fixpoint(self) -> None:
        for qual in sorted(self.functions):
            module, fn = self.functions[qual]
            if fn.block is not None:
                reason, line, col = fn.block
                self.blocking[qual] = BlockSummary(
                    reason=reason,
                    chain=(qual,),
                    path=self.modules[module].path,
                    line=line,
                    col=col,
                )
        changed = True
        while changed:
            changed = False
            for qual in sorted(self.functions):
                if qual in self.blocking:
                    continue
                for call, targets in self._resolved.get(qual, ()):
                    inner = next(
                        (
                            self.blocking[t]
                            for t in targets
                            if t in self.blocking
                        ),
                        None,
                    )
                    if inner is not None:
                        self.blocking[qual] = BlockSummary(
                            reason=inner.reason,
                            chain=(qual,) + inner.chain,
                            path=inner.path,
                            line=inner.line,
                            col=inner.col,
                        )
                        changed = True
                        break


# ---------------------------------------------------------------------------
# Project construction
# ---------------------------------------------------------------------------


def build_project(entries: Iterable[tuple[Path, str]]) -> ProjectAnalysis:
    """Build the project analysis for ``(path, source)`` pairs.

    Files that fail to parse are skipped (the engine reports their
    syntax error separately).
    """
    modules: dict[str, ModuleInfo] = {}
    sources: dict[str, tuple[str, str]] = {}
    contexts: list[FileContext] = []
    built_flows: dict[str, dict[str, ClassFlow]] = {}
    for path, source in entries:
        module = module_name_for(Path(path))
        try:
            ctx = FileContext.from_source(source, path=str(path), module=module)
        except SyntaxError:
            continue
        flows: dict[str, ClassFlow] = {}
        modules[module] = build_module_info(ctx, flows=flows)
        built_flows[module] = flows
        contexts.append(ctx)
        sources[module] = (str(path), source)
    project = ProjectAnalysis(modules, sources)
    for ctx in contexts:
        project.adopt_context(ctx)
    for module, flows in built_flows.items():
        project.adopt_flows(module, flows)
    return project


def build_project_for_context(ctx: FileContext) -> ProjectAnalysis:
    """Single-file project for standalone ``lint_source`` runs."""
    flows: dict[str, ClassFlow] = {}
    info = build_module_info(ctx, flows=flows)
    project = ProjectAnalysis(
        {ctx.module: info}, {ctx.module: (ctx.path, ctx.source)}
    )
    project.adopt_context(ctx)
    project.adopt_flows(ctx.module, flows)
    return project
