"""SSTD009: process-queue payloads must be statically picklable.

:class:`repro.workqueue.process.ProcessWorkQueue` ships task payloads
across a process boundary, so they must pickle.  The runtime rejects
lambdas and closures at submit time, but only once the code path runs —
this rule rejects them at lint time:

- ``PayloadSpec(<lambda>)`` or ``PayloadSpec(<function defined inside
  another function>)`` — the callable cannot be imported by name on the
  worker side;
- unpicklable values anywhere in a ``PayloadSpec``'s arguments: lambda
  expressions, generator expressions, and synchronization primitives
  (``threading.Lock()``/``RLock``/``Condition``/``Event``/
  ``Semaphore``);
- ``<queue>.submit(Task(..., fn=<lambda/closure>))`` when ``<queue>``
  is a ``ProcessWorkQueue`` — recognized either from a same-file
  constructor assignment, or (when the project call graph is attached)
  from the whole-program resolution of the receiver: an annotated
  parameter, a ``self.queue`` attribute typed in ``__init__``, or an
  attribute chain crossing modules all resolve to
  ``ProcessWorkQueue.submit`` and get the same scrutiny.  Thread and
  simulated backends accept closures, so only process-bound submits
  are flagged.

The sanctioned pattern is a module-level function wrapped in a spec —
see :func:`repro.system.jobs.decode_shard_shm_payload` and its spec
builder :func:`repro.system.jobs.shm_shard_task_spec`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.names import ImportMap, dotted_name

__all__ = ["PicklabilityRule"]

_SYNC_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore"}
)


def _nested_function_names(tree: ast.Module) -> set[str]:
    """Names of functions defined inside another function (closures)."""
    nested: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for inner in ast.walk(node):
            if inner is node:
                continue
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.add(inner.name)
    return nested


def _process_queue_names(tree: ast.Module) -> set[str]:
    """Dotted names bound to a ``ProcessWorkQueue(...)`` in this file."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        ctor = dotted_name(value.func) or ""
        if ctor.rsplit(".", 1)[-1] != "ProcessWorkQueue":
            continue
        for target in node.targets:
            name = dotted_name(target)
            if name is not None:
                bound.add(name)
    return bound


@register
class PicklabilityRule(Rule):
    rule_id = "SSTD009"
    summary = "process-queue payloads are statically picklable"
    needs_project = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        nested = _nested_function_names(ctx.tree)
        process_queues = _process_queue_names(ctx.tree)
        checked: set[tuple[int, int]] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func) or ""
            last = callee.rsplit(".", 1)[-1]
            if last == "PayloadSpec":
                yield from self._check_payload_spec(ctx, node, nested, imports)
            elif last == "submit":
                receiver = callee.rsplit(".", 1)[0] if "." in callee else ""
                if receiver in process_queues:
                    checked.add((node.lineno, node.col_offset))
                    yield from self._check_process_submit(ctx, node, nested)
        yield from self._check_resolved_submits(ctx, nested, checked)

    def _check_resolved_submits(
        self,
        ctx: FileContext,
        nested: set[str],
        checked: set[tuple[int, int]],
    ) -> Iterator[Finding]:
        """Submits whose receiver the *project* typed as ProcessWorkQueue."""
        project = getattr(ctx, "project", None)
        if project is None or not project.has_module(ctx.module):
            return
        calls_at: dict[tuple[int, int], ast.Call] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                calls_at.setdefault((node.lineno, node.col_offset), node)
        for site in project.resolved_calls(ctx.module):
            if not any(
                target.endswith(".ProcessWorkQueue.submit")
                for target in site.targets
            ):
                continue
            pos = (site.line, site.col)
            if pos in checked:
                continue
            checked.add(pos)
            call = calls_at.get(pos)
            if call is not None:
                yield from self._check_process_submit(ctx, call, nested)

    # -- PayloadSpec construction ---------------------------------------
    def _payload_callable(self, call: ast.Call) -> ast.expr | None:
        if call.args:
            return call.args[0]
        for kw in call.keywords:
            if kw.arg == "fn":
                return kw.value
        return None

    def _check_payload_spec(
        self,
        ctx: FileContext,
        call: ast.Call,
        nested: set[str],
        imports: ImportMap,
    ) -> Iterator[Finding]:
        fn = self._payload_callable(call)
        if isinstance(fn, ast.Lambda):
            yield self.finding(
                ctx,
                fn,
                "PayloadSpec payload is a lambda; lambdas cannot be "
                "pickled across a process boundary — use a module-level "
                "function (the decode_shard_shm_payload pattern)",
            )
        elif isinstance(fn, ast.Name) and fn.id in nested:
            yield self.finding(
                ctx,
                fn,
                f"PayloadSpec payload {fn.id!r} is defined inside a "
                "function, so it is a closure and cannot be pickled; "
                "move it to module level",
            )
        for arg in list(call.args[1:]) + [
            kw.value for kw in call.keywords if kw.arg != "fn"
        ]:
            yield from self._check_argument_tree(ctx, arg, imports)

    def _check_argument_tree(
        self, ctx: FileContext, arg: ast.expr, imports: ImportMap
    ) -> Iterator[Finding]:
        for node in ast.walk(arg):
            if isinstance(node, ast.Lambda):
                yield self.finding(
                    ctx,
                    node,
                    "lambda inside PayloadSpec arguments cannot be "
                    "pickled; pass data, not code",
                )
            elif isinstance(node, ast.GeneratorExp):
                yield self.finding(
                    ctx,
                    node,
                    "generator inside PayloadSpec arguments cannot be "
                    "pickled; materialize it (tuple(...)) first",
                )
            elif isinstance(node, ast.Call):
                ctor = imports.resolve(node.func) or ""
                last = ctor.rsplit(".", 1)[-1]
                root = ctor.split(".", 1)[0]
                if last in _SYNC_CTORS and root in (
                    "threading",
                    "multiprocessing",
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{last} object inside PayloadSpec arguments "
                        "cannot be pickled; synchronization primitives "
                        "stay on the master side",
                    )

    # -- submits to a ProcessWorkQueue ----------------------------------
    def _check_process_submit(
        self, ctx: FileContext, call: ast.Call, nested: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(call):
            if isinstance(node, ast.Lambda):
                yield self.finding(
                    ctx,
                    node,
                    "lambda submitted to a ProcessWorkQueue cannot cross "
                    "the process boundary; wrap a module-level function "
                    "in repro.workqueue.task.PayloadSpec",
                )
            elif (
                isinstance(node, ast.keyword)
                and node.arg == "fn"
                and isinstance(node.value, ast.Name)
                and node.value.id in nested
            ):
                yield self.finding(
                    ctx,
                    node.value,
                    f"closure {node.value.id!r} submitted to a "
                    "ProcessWorkQueue cannot cross the process boundary; "
                    "move it to module level and wrap it in PayloadSpec",
                )
