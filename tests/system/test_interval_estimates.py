"""Tests for interval-mode truth estimates (run_intervals with decoding)."""

import numpy as np
import pytest

from repro.core.acs import ACSConfig
from repro.core.sstd import SSTDConfig
from repro.core.types import Attitude, Report, TruthValue
from repro.streams import Trace
from repro.system import DistributedSSTD, SSTDSystemConfig
from repro.workqueue import CostModel


def flip_trace(seed=0, n=1200, duration=2000.0, flip_at=1000.0):
    rng = np.random.default_rng(seed)
    reports = []
    for k in range(n):
        t = float(rng.uniform(0, duration))
        truth = t >= flip_at
        says = truth if rng.random() < 0.85 else not truth
        reports.append(
            Report(
                f"s{k % 200}", "c1", t,
                attitude=Attitude.AGREE if says else Attitude.DISAGREE,
            )
        )
    return Trace(name="flip", reports=sorted(reports, key=lambda r: r.timestamp))


class TestIntervalEstimates:
    def test_streaming_estimates_emitted_per_interval(self):
        trace = flip_trace()
        system = DistributedSSTD(
            SSTDSystemConfig(
                n_workers=2,
                sstd=SSTDConfig(
                    acs=ACSConfig(window=100.0, step=50.0),
                    min_observations=4,
                ),
                cost_model=CostModel(init_time=0.01, unit_cost=1e-4),
                max_workers=2,
            )
        )
        result = system.run_intervals(
            trace, n_intervals=40, compute_estimates=True
        )
        assert result.estimates
        # One estimate per interval per active claim (claim appears in
        # interval 1 onward).
        assert len(result.estimates) >= 35

    def test_interval_estimates_track_flip(self):
        trace = flip_trace()
        system = DistributedSSTD(
            SSTDSystemConfig(
                n_workers=2,
                sstd=SSTDConfig(
                    acs=ACSConfig(window=100.0, step=50.0),
                    min_observations=4,
                ),
                cost_model=CostModel(init_time=0.01, unit_cost=1e-4),
                max_workers=2,
            )
        )
        result = system.run_intervals(
            trace, n_intervals=40, compute_estimates=True
        )
        # Estimates are stamped with trace-time interval ends; late ones
        # (well past the flip) must read TRUE, early ones FALSE.
        early = [e for e in result.estimates if e.timestamp < 800.0]
        late = [e for e in result.estimates if e.timestamp > 1300.0]
        assert early and late
        early_false = sum(
            1 for e in early if e.value is TruthValue.FALSE
        ) / len(early)
        late_true = sum(
            1 for e in late if e.value is TruthValue.TRUE
        ) / len(late)
        assert early_false > 0.8
        assert late_true > 0.8

    def test_no_estimates_when_disabled(self):
        trace = flip_trace(n=200)
        system = DistributedSSTD(
            SSTDSystemConfig(n_workers=2, max_workers=2)
        )
        result = system.run_intervals(
            trace, n_intervals=10, compute_estimates=False
        )
        assert result.estimates == ()
