"""SSTD007/SSTD008: flow-aware race and deadlock checks.

Both rules consume the lockset walker in
:mod:`repro.devtools.lint.flow`; SSTD003 already polices direct
unguarded accesses, so these rules cover what a per-node check cannot
see:

- **SSTD007** — lock-scope *escapes*.  Calling a helper annotated
  ``# holds-lock: <lock>`` without holding the lock (the helper's own
  body passes SSTD003 because of the annotation, so the call site is
  where the race hides), and capturing a ``# guarded-by:`` value into a
  local under the lock and then using it after release.  With the
  project call graph attached the holds-lock check also crosses class
  and module boundaries: calling ``master._pick_task()`` from another
  component without the master lock is flagged even though the
  annotation lives in a different file.

- **SSTD008** — *blocking calls while holding a lock*.  Holding the
  master lock across ``Thread.join``/``Process.join``, a blocking
  ``Queue.get``/``Queue.put`` (bounded puts), ``time.sleep``,
  ``.drain()``, or a ``Thread``/``Process`` ``start()`` stalls every
  thread contending for the lock.  Leaf calls are classified right here from
  the receiver's inferred type; anything reached *through other
  functions* — same-class helpers, module-level functions, methods of
  other classes in other modules, constructors — is caught via the
  transitive may-block summaries of
  :mod:`repro.devtools.lint.callgraph`, and the diagnostic carries the
  call chain down to the blocking leaf.  Without a project (standalone
  ``lint_source`` of a snippet) the pre-PR-6 one-class fixpoint is the
  fallback.  ``Condition.wait``/``notify`` are exempt: ``wait``
  releases the lock it wraps by design.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.flow import (
    CallEvent,
    ClassFlow,
    MethodFlow,
    blocking_reason,
    iter_class_flows,
)
from repro.devtools.lint.names import ImportMap

__all__ = ["BlockingUnderLockRule", "GuardedEscapeRule"]


def _short(qualname: str) -> str:
    """Readable tail of a qualname/lock id (``Class.meth`` or ``mod.fn``)."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname


def _project_of(ctx: FileContext):
    project = getattr(ctx, "project", None)
    if project is not None and project.has_module(ctx.module):
        return project
    return None


@register
class GuardedEscapeRule(Rule):
    rule_id = "SSTD007"
    summary = "guarded state must not escape its lock scope"
    needs_project = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for flow in iter_class_flows(ctx):
            if not flow.model.guards:
                continue
            for method in flow.methods.values():
                if method.name == "__init__":
                    continue
                yield from self._check_helper_calls(ctx, flow, method)
                for escape in method.escapes:
                    yield self.finding(
                        ctx,
                        escape.node,
                        f"value of self.{escape.attr} "
                        f"('# guarded-by: {escape.lock}') captured into "
                        f"'{escape.via}' under the lock is used after "
                        f"self.{escape.lock} is released in "
                        f"{method.name}(); keep the use inside "
                        f"'with self.{escape.lock}:' or copy the data out",
                    )
        yield from self._check_cross_class_calls(ctx)

    def _check_helper_calls(
        self, ctx: FileContext, flow: ClassFlow, method: MethodFlow
    ) -> Iterator[Finding]:
        for event in method.calls:
            callee = event.callee
            if callee is None or not callee.startswith("self."):
                continue
            helper = callee[len("self."):]
            if "." in helper:
                continue
            required = flow.requires(helper)
            for lock in sorted(required - event.held):
                yield self.finding(
                    ctx,
                    event.node,
                    f"self.{helper}() is annotated "
                    f"'# holds-lock: {lock}' but {method.name}() calls "
                    f"it without holding self.{lock}; wrap the call in "
                    f"'with self.{lock}:'",
                )

    def _check_cross_class_calls(self, ctx: FileContext) -> Iterator[Finding]:
        """Holds-lock contracts enforced across class/module boundaries.

        Same-class calls are handled (with local-alias precision) by
        :meth:`_check_helper_calls`; here only calls whose resolved
        target lives on a *different* class are considered, comparing
        global lock ids.
        """
        project = _project_of(ctx)
        if project is None:
            return
        for site in project.resolved_calls(ctx.module):
            caller_cls = site.caller.rsplit(".", 1)[0]
            held = set(site.held)
            for target in site.targets:
                if target.rsplit(".", 1)[0] == caller_cls:
                    continue
                required = project.entry_locks.get(target, frozenset())
                for lock in sorted(required - held):
                    yield Finding(
                        rule_id=self.rule_id,
                        message=(
                            f"{_short(target)}() is annotated "
                            f"'# holds-lock: {lock.rsplit('.', 1)[-1]}' "
                            f"({lock}) but {_short(site.caller)}() calls "
                            "it without holding that lock; acquire it "
                            "around the call or route through a public "
                            "method that does"
                        ),
                        path=ctx.path,
                        line=site.line,
                        col=site.col,
                    )


@register
class BlockingUnderLockRule(Rule):
    rule_id = "SSTD008"
    summary = "no blocking calls while holding a lock"
    needs_project = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        project = _project_of(ctx)
        reported: set[tuple[int, int]] = set()
        for flow in iter_class_flows(ctx):
            # Without whole-program summaries, fall back to the
            # pre-PR-6 one-class helper fixpoint.
            blocking_methods = (
                {}
                if project is not None
                else self._blocking_summary(flow, imports)
            )
            for method in flow.methods.values():
                for event in method.calls:
                    if not event.held:
                        continue
                    reason = blocking_reason(
                        event, flow.model, method, imports
                    )
                    if reason is None:
                        reason = self._blocking_helper(
                            event, blocking_methods
                        )
                    if reason is None:
                        continue
                    locks = ", ".join(
                        f"self.{lock}" for lock in sorted(event.held)
                    )
                    reported.add((event.node.lineno, event.node.col_offset))
                    yield self.finding(
                        ctx,
                        event.node,
                        f"{method.name}() {reason} while holding {locks}; "
                        "release the lock first (snapshot the state you "
                        "need, then block outside the critical section)",
                    )
        if project is not None:
            yield from self._check_transitive(ctx, project, reported)

    def _check_transitive(
        self, ctx: FileContext, project, reported: set[tuple[int, int]]
    ) -> Iterator[Finding]:
        """Blocking reached through resolved call chains (any depth)."""
        for site in project.resolved_calls(ctx.module):
            if not site.held:
                continue
            pos = (site.line, site.col)
            if pos in reported:
                continue
            summary = next(
                (
                    project.blocking[target]
                    for target in site.targets
                    if target in project.blocking
                ),
                None,
            )
            if summary is None:
                continue
            reported.add(pos)
            chain = " -> ".join(_short(q) for q in summary.chain)
            locks = ", ".join(_short(lock) for lock in sorted(site.held))
            yield Finding(
                rule_id=self.rule_id,
                message=(
                    f"{_short(site.caller)}() calls {_short(summary.chain[0])}(), "
                    f"which may block ({summary.reason}; chain {chain}), "
                    f"while holding {locks}; release the lock before the "
                    "call or make the callee non-blocking"
                ),
                path=ctx.path,
                line=site.line,
                col=site.col,
            )

    # -- intra-class fallback (no project attached) ----------------------
    def _blocking_helper(
        self, event: CallEvent, blocking_methods: dict[str, str]
    ) -> Optional[str]:
        callee = event.callee
        if callee is None or not callee.startswith("self."):
            return None
        helper = callee[len("self."):]
        if "." in helper:
            return None
        inner = blocking_methods.get(helper)
        if inner is None:
            return None
        return f"calls self.{helper}(), which blocks ({inner}),"

    def _blocking_summary(
        self, flow: ClassFlow, imports: ImportMap
    ) -> dict[str, str]:
        """Method name -> why it blocks, propagated one class at a time."""
        summary: dict[str, str] = {}
        for method in flow.methods.values():
            for event in method.calls:
                reason = blocking_reason(event, flow.model, method, imports)
                if reason is not None:
                    summary.setdefault(method.name, reason)
                    break
        # Fixpoint: a method calling a blocking same-class helper blocks.
        changed = True
        while changed:
            changed = False
            for method in flow.methods.values():
                if method.name in summary:
                    continue
                for event in method.calls:
                    callee = event.callee or ""
                    helper = callee[len("self."):] if callee.startswith(
                        "self."
                    ) else ""
                    if helper and "." not in helper and helper in summary:
                        summary[method.name] = f"via self.{helper}()"
                        changed = True
                        break
        return summary
