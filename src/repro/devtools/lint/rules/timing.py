"""SSTD011: runtime packages read time through the ``repro.obs`` Clock.

The distributed runtime (``repro.workqueue``, ``repro.system``,
``repro.cluster``) runs against *two* clock domains — the simulation's
virtual clock and real wall time — and the observability layer records
against whichever one the deployment uses.  A direct ``time.time()`` /
``time.monotonic()`` / ``time.perf_counter()`` call hard-wires the wall
domain into code that must also run simulated, bypasses the trace's
clock, and is unmockable in tests.  The sanctioned pattern::

    class Thing:
        def __init__(self, ..., obs: Observability | None = None) -> None:
            self._obs = obs or Observability.from_env()

        def elapsed(self) -> float:
            start = self._obs.clock.now()   # wall or virtual — caller's pick
            ...

``time.sleep`` is not a clock *read* and is not flagged; packages
outside the runtime trio (benchmarks, devtools, obs itself) may read
wall time directly.
Suppress a justified exception with ``# noqa: SSTD011``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.names import ImportMap
from repro.devtools.lint.rules._util import in_runtime_package

__all__ = ["DirectClockReadRule"]

#: ``time`` module clock reads (the ``_ns`` variants included).
_CLOCK_READS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)


@register
class DirectClockReadRule(Rule):
    rule_id = "SSTD011"
    summary = "runtime packages read time via the repro.obs Clock protocol"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_runtime_package(ctx.module):
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve(node.func)
            if target is None or not target.startswith("time."):
                continue
            fn = target.removeprefix("time.")
            if fn in _CLOCK_READS:
                yield self.finding(
                    ctx,
                    node,
                    f"direct clock read time.{fn}() in runtime package "
                    f"{ctx.module}; read a repro.obs Clock instead "
                    "(WallClock for real executors, VirtualClock for the "
                    "simulation) so timing is traceable and mockable",
                )
