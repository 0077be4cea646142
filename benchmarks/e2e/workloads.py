"""The four workloads: input shapes, one timed pass each, output checks.

A workload is a deterministic sequence of *ops*; a *pass* replays the
whole sequence on a fresh engine through the program's public API and
times every op.  The program only ever sees the generated reports.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.acs import ACSConfig
from repro.core.metrics import evaluate_estimates
from repro.core.sstd import SSTD, SSTDConfig, StreamingSSTD
from repro.core.types import TruthEstimate, TruthValue
from repro.obs import Observability, using
from repro.streams.events import PopulationConfig, ScenarioSpec
from repro.streams.generator import GeneratorConfig, generate_trace
from repro.streams.trace import Trace
from repro.system.sstd_system import DistributedSSTD, SSTDSystemConfig

__all__ = [
    "PassResult",
    "Shape",
    "WORKLOADS",
    "Workload",
    "accuracy",
    "check_estimates",
    "claim_spans",
    "make_trace",
]

#: Grid spacing of the default ``SSTDConfig`` — every workload runs it.
STEP = ACSConfig().step
DIST_WORKERS = 2
STREAM_RETRAIN_EVERY = 20


@dataclass(frozen=True)
class Shape:
    """Input size of a workload; ``ops`` is the op count of one pass."""

    n_reports: int
    n_claims: int
    duration_s: float
    ops: int


@dataclass(frozen=True)
class PassResult:
    ops: list[float]
    wall: float
    estimates: Sequence[TruthEstimate]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str
    shape: Shape
    smoke_shape: Shape
    #: Ops of the set-up probe's single pass (see ``probe_shape``).
    probe_ops: int
    run_pass: Callable[[Trace, Shape, bool], PassResult]

    @property
    def probe_shape(self) -> Shape:
        """Fixed input of the set-up probe: ``setup_s`` tracks imports,
        spawn and lazy init, never the workload's input size."""
        return Shape(2_000, 8, 1800.0, ops=self.probe_ops)


def make_trace(shape: Shape, seed: int) -> Trace:
    """Seeded input; spec as ``bench_parallel_backend._bench_trace``."""
    spec = ScenarioSpec(
        name="e2e",
        duration=shape.duration_s,
        n_reports=shape.n_reports,
        n_claims=shape.n_claims,
        claim_texts=("the road is closed", "the station is open"),
        topic="bench",
        mean_truth_flips=1.0,
        claim_zipf_exponent=0.5,
        population=PopulationConfig(n_sources=max(50, shape.n_reports // 20)),
    )
    return generate_trace(
        spec, seed=seed, config=GeneratorConfig(with_text=False)
    )


def _obs_scope(obs: bool) -> contextlib.AbstractContextManager:
    """Ambient ``repro.obs`` recorder for the obs-overhead pass."""
    return using(Observability()) if obs else contextlib.nullcontext()


def _pass_discover(trace: Trace, shape: Shape, obs: bool) -> PassResult:
    with _obs_scope(obs):
        start = time.perf_counter()
        estimates = SSTD().discover(trace.reports)
        wall = time.perf_counter() - start
    return PassResult([wall], wall, estimates)


def _pass_intervals(trace: Trace, shape: Shape, obs: bool) -> PassResult:
    start = time.perf_counter()
    system = DistributedSSTD(
        SSTDSystemConfig(
            backend="processes",
            n_workers=DIST_WORKERS,
            control_enabled=False,
            observability=True if obs else None,
        )
    )
    result = system.run_intervals(
        trace, n_intervals=shape.ops, deadline=1.0, compute_estimates=True
    )
    wall = time.perf_counter() - start
    return PassResult(result.execution_times, wall, result.estimates)


def _pass_ticks(trace: Trace, shape: Shape, obs: bool) -> PassResult:
    reports = trace.reports
    ops: list[float] = []
    estimates: list[TruthEstimate] = []
    cursor = 0
    with _obs_scope(obs):
        start = time.perf_counter()
        engine = StreamingSSTD(SSTDConfig(), retrain_every=STREAM_RETRAIN_EVERY)
        for tick in range(1, shape.ops + 1):
            now = STEP * tick
            op_start = time.perf_counter()
            while cursor < len(reports) and reports[cursor].timestamp <= now:
                engine.push(reports[cursor])
                cursor += 1
            estimates.extend(engine.tick(now))
            ops.append(time.perf_counter() - op_start)
        wall = time.perf_counter() - start
    return PassResult(ops, wall, estimates)


def claim_spans(trace: Trace) -> dict[str, tuple[float, float]]:
    """First and last report time of every claim (reports are time-sorted)."""
    spans: dict[str, tuple[float, float]] = {}
    for report in trace.reports:
        first, _ = spans.get(report.claim_id, (report.timestamp, 0.0))
        spans[report.claim_id] = (first, report.timestamp)
    return spans


def check_estimates(
    spans: dict[str, tuple[float, float]], estimates: Sequence[TruthEstimate]
) -> str:
    """Why ``estimates`` are not a valid answer ('' if they are).

    ``spans`` is :func:`claim_spans` of the input.  Valid means one
    estimate per (claim, grid point): every claim with reports has a
    gap-free, duplicate-free run of grid timestamps that covers its
    reports, each with a binary value and a confidence in [0, 1].  No bit
    digest: later numerics-changing PRs stay comparable.
    """
    stamps: dict[str, list[float]] = {}
    for estimate in estimates:
        if estimate.value not in (TruthValue.TRUE, TruthValue.FALSE):
            return f"non-binary value {estimate.value!r}"
        if not 0.0 <= estimate.confidence <= 1.0:
            return f"confidence {estimate.confidence!r} outside [0, 1]"
        stamps.setdefault(estimate.claim_id, []).append(estimate.timestamp)
    if set(stamps) != set(spans):
        return f"{len(stamps)} claims estimated, {len(spans)} reported"
    slack = 1e-6
    for claim_id, times in stamps.items():
        first_report, last_report = spans[claim_id]
        if any(
            abs(later - earlier - STEP) > slack
            for earlier, later in zip(times, times[1:])
        ):
            return f"claim {claim_id}: grid has a gap or a duplicate"
        if times[0] > first_report + STEP + slack:
            return f"claim {claim_id}: grid starts after its first report"
        if times[-1] <= last_report - STEP - slack:
            return f"claim {claim_id}: grid ends before its last report"
    return ""


def accuracy(trace: Trace, estimates: Sequence[TruthEstimate]) -> float:
    result = evaluate_estimates("SSTD", estimates, trace.timelines)
    return result.accuracy if result.matrix.total else math.nan


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="batch_volume",
            why=(
                "Table II report volume on a short grid: ACS/scoring does the "
                "work, so a report-proportional speed-up shows here only"
            ),
            loop="closed loop, 1 process",
            shape=Shape(400_000, 32, 7200.0, ops=1),
            smoke_shape=Shape(4_000, 8, 1800.0, ops=1),
            probe_ops=1,
            run_pass=_pass_discover,
        ),
        Workload(
            name="batch_longgrid",
            why=(
                "same discover() call, few reports on a 24 h grid: the HMM "
                "kernels do the work; an ACS change must not move it"
            ),
            loop="closed loop, 1 process",
            shape=Shape(40_000, 32, 86400.0, ops=1),
            smoke_shape=Shape(2_000, 8, 7200.0, ops=1),
            probe_ops=1,
            run_pass=_pass_discover,
        ),
        Workload(
            name="dist_intervals",
            why=(
                "100 small dispatches over a growing history on 2 worker "
                "processes: data plane and dispatch path, not the kernel"
            ),
            loop="closed loop, 1 master + 2 workers",
            shape=Shape(20_000, 32, 3000.0, ops=100),
            smoke_shape=Shape(1_000, 8, 600.0, ops=10),
            probe_ops=5,
            run_pass=_pass_intervals,
        ),
        Workload(
            name="stream_ticks",
            why=(
                "streaming push+tick: sliding-window ACS and N=1 refits; a "
                "change that taxes narrow HMM calls shows here as a loss"
            ),
            loop="closed loop, 1 process",
            shape=Shape(80_000, 48, 6000.0, ops=100),
            smoke_shape=Shape(1_000, 4, 1800.0, ops=30),
            probe_ops=30,
            run_pass=_pass_ticks,
        ),
    )
}
