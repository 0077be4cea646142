"""Empty intervals on the distributed path.

A trace with a silent gap of three intervals, and a claim whose only
reports arrive in the last interval, through every backend's interval
replay: no exception, no task on a tick whose refit has no due claim,
estimates that keep to the grid through the gap, and the e2e output
check passes.
"""

import numpy as np
import pytest

from benchmarks.e2e.workloads import check_estimates, claim_spans
from repro.core.sstd import StreamingSSTD, batch_fit_decode
from repro.core.types import Attitude, Report
from repro.streams import Trace
from repro.system import sstd_system
from repro.system.sstd_system import (
    BACKENDS,
    DistributedSSTD,
    SSTDSystemConfig,
)
from tests.streaming_replay import serial_stream_replay

N_INTERVALS = 8
INTERVAL = 300.0
#: Intervals 2, 3 and 4 carry no report.
GAP = (2 * INTERVAL, 5 * INTERVAL)
#: The last interval; claim "late" reports only inside it.
LAST = (7 * INTERVAL, 8 * INTERVAL)


def report(claim_id, t, rng):
    agree = rng.random() < 0.8
    return Report(
        f"s{rng.integers(40)}",
        claim_id,
        float(t),
        attitude=Attitude.AGREE if agree else Attitude.DISAGREE,
    )


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(5)
    reports = []
    for claim_id in ("a", "b"):
        for t in np.concatenate(
            [
                rng.uniform(0.0, GAP[0], 60),
                rng.uniform(GAP[1], LAST[1], 80),
            ]
        ):
            reports.append(report(claim_id, t, rng))
    for t in rng.uniform(LAST[0] + 10.0, LAST[1] - 10.0, 30):
        reports.append(report("late", t, rng))
    # Pin the span to exactly eight 300 s intervals.
    reports.append(report("a", 0.0, rng))
    reports.append(report("b", LAST[1], rng))
    return Trace(name="gaps", reports=reports)


@pytest.fixture(scope="module")
def due_by_tick(trace):
    """Tick -> the claims due for a refit there, from the serial replay."""
    due = {}

    def spy(items, config):
        due[float(items[0][1][-1])] = [claim_id for claim_id, _, _ in items]
        return batch_fit_decode(items, config)

    serial_stream_replay(trace.reports, trace.start, trace.end, refit=spy)
    return due


@pytest.mark.parametrize("backend", BACKENDS)
def test_silent_intervals_keep_the_grid(
    backend, trace, due_by_tick, monkeypatch
):
    ticks, tasks = [], []
    tick = StreamingSSTD.tick

    def tick_spy(engine, now):
        ticks.append(now)
        return tick(engine, now)

    task_spec = sstd_system.shm_shard_task_spec

    def task_spy(stack, shard, handle, config):
        tasks.append((ticks[-1], list(shard)))
        return task_spec(stack, shard, handle, config)

    monkeypatch.setattr(StreamingSSTD, "tick", tick_spy)
    monkeypatch.setattr(sstd_system, "shm_shard_task_spec", task_spy)
    config = SSTDSystemConfig(
        n_workers=2, backend=backend, deadline=30.0, control_enabled=False
    )
    result = DistributedSSTD(config).run_intervals(
        trace, n_intervals=N_INTERVALS, compute_estimates=True
    )
    assert check_estimates(claim_spans(trace), result.estimates) == ""
    assert result.estimates == tuple(
        serial_stream_replay(trace.reports, trace.start, trace.end)
    )

    records = result.tracker.records
    silent = [r.index for r in records if r.n_reports == 0]
    assert silent == [2, 3, 4]
    by_claim = {}
    for estimate in result.estimates:
        by_claim.setdefault(estimate.claim_id, []).append(estimate.timestamp)
    step = config.sstd.acs.step
    for claim_id in ("a", "b"):
        in_gap = [t for t in by_claim[claim_id] if GAP[0] <= t < GAP[1]]
        assert len(in_gap) == (GAP[1] - GAP[0]) / step
    assert min(by_claim["late"]) >= LAST[0]

    if backend == "simulated":
        # No report, no TD task: the virtual cluster idles.
        assert all(
            (r.execution_time == 0) == (r.index in silent) for r in records
        )
    else:
        # Tasks go out on refit ticks only, for the claims due there;
        # most ticks have none.
        shipped = {}
        for now, shard in tasks:
            shipped.setdefault(now, []).extend(shard)
        assert shipped == due_by_tick
        assert 0 < len(shipped) < len(set(ticks)) / 2
