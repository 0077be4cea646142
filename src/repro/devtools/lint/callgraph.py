"""Project-wide call resolution for the resource-lifecycle rule (SSTD014).

SSTD014 must know that ``executor = self._make_executor()`` acquires a
``ProcessWorkQueue`` and that ``stack.publish()`` returns a
shared-memory owner, although neither call names the resource.  This
module resolves such calls across the linted file set in two stages:

1. **Per-module summaries** (:class:`ModuleInfo`).  Each file is
   reduced to a record of every function/method with its calls
   (canonicalized against the file's imports but *unresolved* — no
   other module's content is consulted) and the calls whose result it
   may return, plus per-class metadata (bases, methods, class-valued
   attributes).  Receivers are typed from constructor calls, annotated
   parameters and annotated assignments (:func:`annotation_class`).

2. **Global resolution** (:class:`ProjectAnalysis`).  Call references
   are resolved across modules: re-exports are followed through
   package ``__init__`` import maps, ``Class.method`` and constructor
   calls land on the defining class (searching bases), classmethod
   factories (``Observability.from_env()``) resolve to the class they
   build, and attribute chains (``self.obs.metrics.inc``) walk the
   class-valued attribute tables.

Known false-negative limits (see DESIGN.md): dynamic dispatch through
untyped values, callables stored in containers, monkey-patching, and
receivers the attribute tables cannot type are all invisible; an
unresolvable call stays unresolved rather than guessed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional

from repro.devtools.lint.engine import FileContext, module_name_for
from repro.devtools.lint.names import ImportMap, dotted_name, self_attr

__all__ = [
    "CallRef",
    "ClassInfo",
    "FunctionNode",
    "ModuleInfo",
    "ProjectAnalysis",
    "ResolvedCall",
    "annotation_class",
    "build_module_info",
    "build_project",
    "build_project_for_context",
]

_FOLLOW_LIMIT = 16  # re-export chains are short; bound the walk anyway

_Function = ast.FunctionDef | ast.AsyncFunctionDef


# ---------------------------------------------------------------------------
# Receiver typing
# ---------------------------------------------------------------------------


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


def _params_of(node: _Function) -> dict[str, str]:
    """Parameter name -> annotated class text for one signature."""
    params: dict[str, str] = {}
    args = node.args
    for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        candidate = annotation_class(arg.annotation)
        if candidate is not None:
            params[arg.arg] = candidate
    return params


def _ctor_class_text(expr: ast.expr, params: Mapping[str, str]) -> Optional[str]:
    """Raw dotted class text a value expression instantiates, if any.

    ``Observability(...)`` yields ``"Observability"``;
    ``Observability.from_env()`` yields ``"Observability.from_env"``
    (resolution decides whether that is a classmethod factory); a bare
    parameter name annotated with a class yields the annotated class;
    ``a if c else b`` tries both branches.  Library constructors
    (``threading.Lock()``, ``list()``) yield text too; it simply never
    resolves to a project class.
    """
    if isinstance(expr, ast.Call):
        return dotted_name(expr.func)
    if isinstance(expr, ast.Name):
        return params.get(expr.id)
    if isinstance(expr, ast.IfExp):
        return _ctor_class_text(expr.body, params) or _ctor_class_text(
            expr.orelse, params
        )
    return None


def _attr_classes(cls: ast.ClassDef) -> dict[str, str]:
    """Raw dotted class text per class-valued ``self.<attr>``.

    The first typed assignment wins; an annotation beats the value, and
    parameters are typed from the enclosing method's signature.
    """
    out: dict[str, str] = {}
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _params_of(method)
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets, text = node.targets, None
            elif isinstance(node, ast.AnnAssign):
                targets, text = [node.target], annotation_class(node.annotation)
            else:
                continue
            attrs = [a for a in map(self_attr, targets) if a is not None]
            if not attrs:
                continue
            if text is None and node.value is not None:
                text = _ctor_class_text(node.value, params)
            if text is None:
                continue
            for attr in attrs:
                out.setdefault(attr, text)
    return out


@dataclass(slots=True)
class _Body:
    """The calls of one function body and the classes of its locals."""

    calls: list[ast.Call]
    #: Local name -> raw class text of its last assignment.
    local_classes: dict[str, str]
    params: dict[str, str]


def _scan_body(func: _Function, attr_classes: Mapping[str, str]) -> _Body:
    """Collect a body's calls and type its locals, in source order.

    Nested ``def`` bodies are scanned as part of the function (they run
    in its scope); nested classes are not.  A local keeps the class of
    its last assignment, so a rebinding to an untyped value forgets it.
    """
    body = _Body(calls=[], local_classes={}, params=_params_of(func))

    def assign(target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        body.local_classes.pop(target.id, None)
        attr = self_attr(value)
        text = (
            attr_classes.get(attr)
            if attr is not None
            else _ctor_class_text(value, body.params)
        )
        if text is not None:
            body.local_classes[target.id] = text

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in node.body:
                visit(stmt)
            return
        if isinstance(node, ast.Call):
            body.calls.append(node)
        for child in ast.iter_child_nodes(node):
            visit(child)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                assign(target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            assign(node.target, node.value)

    for stmt in func.body:
        visit(stmt)
    return body


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

    ``node`` is the call itself, in the module's parsed tree: a chained
    call (``attach(h).close()``) starts where its receiver call starts,
    so a source position names two calls.
    """

    ref: str
    node: ast.Call


@dataclass(frozen=True, slots=True)
class FunctionNode:
    """Summary of one function or method body."""

    qualname: str
    cls: Optional[str]
    name: str
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
        body: _Body,
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
        local = body.local_classes.get(root) or body.params.get(root)
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


def build_module_info(ctx: FileContext) -> ModuleInfo:
    """Reduce one parsed file to its summary."""
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

    def node_for(
        func: _Function, cls_name: Optional[str], attr_classes: Mapping[str, str]
    ) -> FunctionNode:
        body = _scan_body(func, attr_classes)

        def ref_of(call: ast.Call) -> Optional[str]:
            return refs.ref_for(
                dotted_name(call.func), cls_name, attr_classes, body
            )

        calls = []
        for call in body.calls:
            ref = ref_of(call)
            if ref is not None:
                calls.append(CallRef(ref=ref, node=call))
        owner = f"{ctx.module}.{cls_name}" if cls_name else ctx.module
        return FunctionNode(
            qualname=f"{owner}.{func.name}",
            cls=cls_name,
            name=func.name,
            calls=tuple(calls),
            returned_refs=_returned_refs(func, ref_of),
        )

    functions: list[FunctionNode] = []
    classes: dict[str, ClassInfo] = {}
    for cls in top_classes:
        attr_classes = _attr_classes(cls)
        methods = [
            node
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        classes[cls.name] = ClassInfo(
            name=cls.name,
            module=ctx.module,
            bases=tuple(
                refs.canon(text)
                for text in (dotted_name(base) for base in cls.bases)
                if text is not None
            ),
            methods=tuple(method.name for method in methods),
            attr_classes={
                attr: refs.canon(text) for attr, text in attr_classes.items()
            },
        )
        functions.extend(
            node_for(method, cls.name, attr_classes) for method in methods
        )
    functions.extend(node_for(func, None, {}) for func in top_funcs)

    return ModuleInfo(
        module=ctx.module,
        path=ctx.path,
        imports=dict(imports.aliases),
        functions=functions,
        classes=classes,
    )


def _returned_refs(func: _Function, ref_of) -> tuple[str, ...]:
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

    scan(func.body)
    return tuple(out)


# ---------------------------------------------------------------------------
# Global resolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ResolvedCall:
    """A call site with the qualnames it may land on (possibly none)."""

    targets: tuple[str, ...]
    node: ast.Call


class ProjectAnalysis:
    """Resolved call graph over a file set."""

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
        #: ``module.Class`` -> ClassInfo
        self.class_index: dict[str, ClassInfo] = {}
        self._func_names: dict[str, frozenset[str]] = {}
        for module, info in modules.items():
            self._func_names[module] = frozenset(
                fn.name for fn in info.functions if fn.cls is None
            )
            for name, cls in info.classes.items():
                self.class_index[f"{module}.{name}"] = cls
        #: module -> resolved call sites (for the rules).
        self._module_calls: dict[str, list[ResolvedCall]] = {
            module: [
                ResolvedCall(
                    targets=self.resolve_ref(call.ref), node=call.node
                )
                for fn in info.functions
                for call in fn.calls
            ]
            for module, info in sorted(modules.items())
        }
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
    for path, source in entries:
        module = module_name_for(Path(path))
        try:
            ctx = FileContext.from_source(source, path=str(path), module=module)
        except SyntaxError:
            continue
        modules[module] = build_module_info(ctx)
        contexts.append(ctx)
        sources[module] = (str(path), source)
    project = ProjectAnalysis(modules, sources)
    for ctx in contexts:
        project.adopt_context(ctx)
    return project


def build_project_for_context(ctx: FileContext) -> ProjectAnalysis:
    """Single-file project for standalone ``lint_source`` runs."""
    project = ProjectAnalysis(
        {ctx.module: build_module_info(ctx)},
        {ctx.module: (ctx.path, ctx.source)},
    )
    project.adopt_context(ctx)
    return project
