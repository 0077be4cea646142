"""SSTD001: no bare or silently-swallowing broad ``except``.

A distributed run hides errors well enough already — a worker that
swallows an exception turns a crashed Truth Discovery job into a
silently missing estimate.  Bare ``except:`` is always flagged (it also
catches ``KeyboardInterrupt`` / ``SystemExit``).  ``except Exception``
/ ``except BaseException`` is flagged when the handler *swallows*: it
neither re-raises nor binds the exception for inspection (``as exc``).

In the runtime packages (``repro.workqueue``, ``repro.system``,
``repro.cluster``) binding is not enough: a named broad handler that
does not re-raise hides faults the paper's recovery path (§IV-C) is
supposed to observe, so "record and continue" must be an explicit
decision — a ``# deliberate: <reason>`` comment on the ``except`` line
or the first line of its body.  The pattern in
:mod:`repro.workqueue.process`, which records task errors as data, is
sanctioned that way.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.rules._util import in_runtime_package

__all__ = ["BroadExceptRule"]

_BROAD = {"Exception", "BaseException"}

#: ``# deliberate: <reason>`` — the reason is mandatory prose.
DELIBERATE_RE = re.compile(r"#\s*deliberate:\s*\S")


def _broad_names(handler_type: ast.expr | None) -> list[str]:
    """Over-broad exception class names mentioned by the handler."""
    if handler_type is None:
        return []
    exprs = (
        list(handler_type.elts)
        if isinstance(handler_type, ast.Tuple)
        else [handler_type]
    )
    names = []
    for expr in exprs:
        if isinstance(expr, ast.Name) and expr.id in _BROAD:
            names.append(expr.id)
    return names


def _contains_raise(body: list[ast.stmt]) -> bool:
    return any(isinstance(node, ast.Raise) for stmt in body for node in ast.walk(stmt))


def _deliberate(ctx: FileContext, handler: ast.ExceptHandler) -> bool:
    lines = [handler.lineno]
    if handler.body:
        lines.append(handler.body[0].lineno)
    return any(DELIBERATE_RE.search(ctx.line_text(line)) for line in lines)


@register
class BroadExceptRule(Rule):
    rule_id = "SSTD001"
    summary = "no bare except; broad except must re-raise or bind the error"
    sanction = (
        "# deliberate: <reason> on the except line (or the first line "
        "of its body) sanctions a named broad handler that does not "
        "re-raise in the runtime packages"
    )
    example = (
        "try:\n"
        "    output = task.run()\n"
        "except Exception as exc:  # deliberate: task errors are data\n"
        "    error = TaskError.from_exception(exc)\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        runtime = in_runtime_package(ctx.module)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare 'except:' swallows every error including "
                    "KeyboardInterrupt; catch a specific exception",
                )
                continue
            broad = _broad_names(node.type)
            if not broad or _contains_raise(node.body):
                continue
            if node.name is None:
                yield self.finding(
                    ctx,
                    node,
                    f"'except {broad[0]}' swallows errors silently; "
                    "re-raise, bind it ('as exc') and record it, or "
                    "catch a specific exception",
                )
            elif runtime and not _deliberate(ctx, node):
                yield self.finding(
                    ctx,
                    node,
                    f"'except {broad[0]} as {node.name}' in runtime package "
                    f"{ctx.module} does not re-raise; the recovery path "
                    "cannot observe what it swallows — re-raise, narrow "
                    "the class, or give the reason in '# deliberate: "
                    "<reason>'",
                )
