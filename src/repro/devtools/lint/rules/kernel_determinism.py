"""SSTD013: kernel code must not order work by set/dict-view iteration.

The report table, the batched HMM kernels and the job scheduler are the
reproducibility surface of the system: two runs over the same claim set
must produce the same claim rows, bit-identical posteriors and the same
task order.  Iterating a ``set``
(or ``frozenset``) breaks that silently — iteration order depends on
the per-process hash seed (``PYTHONHASHSEED``), so feeding it into a
floating-point accumulation reorders the additions (FP addition is not
associative) and feeding it into a work list reorders dispatch.  Dict
views are insertion-ordered in CPython, but in kernel code the
insertion order itself routinely derives from set operations or
directory listings, so the same discipline applies: make the order
explicit.

The rule only fires in the kernel modules (:data:`TARGET_MODULES` —
``repro.core.acs``, whose claim encoding and row order feed the shard
stacks, ``repro.hmm.batch``, ``repro.hmm.utils``, ``repro.system.jobs``
and the ``repro.hmm.kernels`` package); everywhere else set iteration
is fine and linting it would be noise.
It flags:

- ``for x in <set-like>`` whose body *accumulates* (any augmented
  assignment, ``.append``/``.extend``/``.insert`` on a list, or a
  ``yield``) — order reaches the result;
- ``list(...)``/``tuple(...)``/``sum(...)`` over a set-like — an
  ordered (or order-sensitively reduced) value built straight from an
  unordered one;
- list comprehensions drawing from a set-like (generator expressions
  are judged at the consuming call site instead).

Order-insensitive consumers — ``sorted``, ``min``, ``max``, ``any``,
``all``, ``len``, ``set``, ``frozenset`` — are never flagged;
``sorted(...)`` is the canonical fix.  A genuinely order-free use
(e.g. integer counters, commutative exact reductions) is sanctioned in
place with an ``# order-independent`` comment on the line.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.lint.engine import FileContext, Rule, register

__all__ = ["KernelDeterminismRule", "TARGET_MODULES"]

#: Modules whose outputs must be bit-reproducible across runs.
TARGET_MODULES = (
    "repro.core.acs",
    "repro.hmm.batch",
    "repro.hmm.kernels",
    "repro.hmm.kernels.numpy_ref",
    "repro.hmm.utils",
    "repro.system.jobs",
)

ORDER_INDEPENDENT_RE = re.compile(r"#\s*order-independent\b")

_SET_CTORS = {"set", "frozenset"}
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
}
_DICT_VIEWS = {"keys", "values", "items"}
_ORDERING_CONSUMERS = {"list", "tuple", "sum"}
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet"}


def _annotation_is_set(annotation: "ast.expr | None") -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


class _SetTracker:
    """Names bound to set-like values within one function body."""

    def __init__(self, fn: ast.AST) -> None:
        self.names: set[str] = set()
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
            ):
                if _annotation_is_set(arg.annotation):
                    self.names.add(arg.arg)
        # Two passes so `a = b` picks up a later-classified `b`.
        for _ in range(2):
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    if self.is_setlike(node.value):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                self.names.add(target.id)
                elif isinstance(node, ast.AnnAssign):
                    if isinstance(node.target, ast.Name) and (
                        _annotation_is_set(node.annotation)
                        or (
                            node.value is not None
                            and self.is_setlike(node.value)
                        )
                    ):
                        self.names.add(node.target.id)

    def is_setlike(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_setlike(node.left) or self.is_setlike(node.right)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CTORS:
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in _SET_METHODS and self.is_setlike(func.value):
                    return True
        return False

    def unordered_kind(self, node: ast.expr) -> "str | None":
        """Describe an order-unstable iteration source, or ``None``."""
        if self.is_setlike(node):
            return "set"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_VIEWS
            and not node.args
        ):
            return f"dict .{node.func.attr}() view"
        return None


def _walk_shallow(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs.

    Nested functions (and methods of nested classes) are visited by
    their own top-level pass with their own :class:`_SetTracker`, so
    descending here would double-report them.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _accumulates(body: list[ast.stmt]) -> "str | None":
    """Why the loop body is order-sensitive, or ``None``."""
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                return "accumulates with an augmented assignment"
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return "yields in iteration order"
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"append", "extend", "insert"}
            ):
                return f"builds an ordered list via .{node.func.attr}()"
    return None


@register
class KernelDeterminismRule(Rule):
    rule_id = "SSTD013"
    summary = "kernel modules must not depend on set/dict-view order"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module not in TARGET_MODULES:
            return
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tracker = _SetTracker(fn)
            yield from self._check_function(ctx, fn, tracker)

    def _sanctioned(self, ctx: FileContext, node: ast.AST) -> bool:
        return bool(ORDER_INDEPENDENT_RE.search(ctx.line_text(node.lineno)))

    def _check_function(
        self, ctx: FileContext, fn: ast.AST, tracker: _SetTracker
    ) -> Iterator[Finding]:
        for node in _walk_shallow(fn):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                kind = tracker.unordered_kind(node.iter)
                if kind is None or self._sanctioned(ctx, node):
                    continue
                why = _accumulates(node.body)
                if why is None:
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"loop over a {kind} {why}; iteration order is not "
                    "reproducible across runs — iterate "
                    "'sorted(...)' (or mark the line "
                    "'# order-independent' if the reduction is "
                    "commutative and exact)",
                )
            elif isinstance(node, ast.Call):
                func = node.func
                if not (
                    isinstance(func, ast.Name)
                    and func.id in _ORDERING_CONSUMERS
                    and node.args
                ):
                    continue
                kind = tracker.unordered_kind(node.args[0])
                if kind is None or self._sanctioned(ctx, node):
                    continue
                verb = (
                    "reduces"
                    if func.id == "sum"
                    else "materializes an ordered sequence from"
                )
                yield self.finding(
                    ctx,
                    node,
                    f"{func.id}() {verb} a {kind}; the result depends "
                    "on hash-randomized iteration order — apply "
                    "'sorted(...)' first (or mark the line "
                    "'# order-independent')",
                )
            elif isinstance(node, ast.ListComp):
                if not node.generators:
                    continue
                kind = tracker.unordered_kind(node.generators[0].iter)
                if kind is None or self._sanctioned(ctx, node):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"list comprehension over a {kind} fixes an "
                    "arbitrary order into the result — comprehend over "
                    "'sorted(...)' (or mark the line "
                    "'# order-independent')",
                )
