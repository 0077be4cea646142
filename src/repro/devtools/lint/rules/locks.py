"""SSTD003: lock discipline for annotated shared attributes.

``repro.obs`` is the one package whose state is shared across threads:
the metric registry and the span tracer are written from whichever
thread a caller runs on.  An attribute that may only be touched under
a lock says so on the assignment that creates it:

    self._counters: dict[str, float] = {}  # guarded-by: _lock

Outside ``__init__`` (which runs before any other thread can see the
object), ``self.<attr>`` may then only appear lexically inside
``with self.<lock>:`` — in the method itself or in a function nested in
it.  The check is per class and purely lexical: a local alias of the
lock, an ``acquire()``/``release()`` pair or a caller that holds the
lock does not count, so code that needs one is restructured into a
``with`` block.

The rule is annotation-driven, so it is safe to run repo-wide: files
without annotations produce no findings.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.names import self_attr

__all__ = ["LockDisciplineRule"]

_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*(\w+)")


def _guards(ctx: FileContext, cls: ast.ClassDef) -> dict[str, str]:
    """``# guarded-by:`` annotations: attr name -> lock attr name."""
    guards: dict[str, str] = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        match = _GUARDED_RE.search(ctx.line_text(node.lineno))
        if match is None:
            continue
        for attr in filter(None, map(self_attr, targets)):
            guards[attr] = match.group(1)
    return guards


def _unguarded(
    node: ast.AST, guards: dict[str, str], held: frozenset[str]
) -> Iterator[tuple[ast.Attribute, str]]:
    """Guarded ``self.<attr>`` accesses under ``node`` outside their lock."""
    if isinstance(node, ast.ClassDef):
        return  # a nested class has its own ``self``
    attr = self_attr(node)
    if attr is not None and attr in guards and guards[attr] not in held:
        yield node, guards[attr]
    if isinstance(node, (ast.With, ast.AsyncWith)):
        for item in node.items:
            yield from _unguarded(item, guards, held)
        inner = held | {
            lock
            for lock in (self_attr(item.context_expr) for item in node.items)
            if lock is not None
        }
        for stmt in node.body:
            yield from _unguarded(stmt, guards, inner)
        return
    for child in ast.iter_child_nodes(node):
        yield from _unguarded(child, guards, held)


@register
class LockDisciplineRule(Rule):
    rule_id = "SSTD003"
    summary = "guarded attributes only touched inside 'with self.<lock>:'"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guards = _guards(ctx, cls)
            if not guards:
                continue
            for method in cls.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) or method.name == "__init__":
                    continue
                for stmt in method.body:
                    for access, lock in _unguarded(stmt, guards, frozenset()):
                        yield self.finding(
                            ctx,
                            access,
                            f"self.{access.attr} is declared "
                            f"'# guarded-by: {lock}' but "
                            f"{method.name}() accesses it outside "
                            f"'with self.{lock}:'; move the access into "
                            "that block",
                        )
