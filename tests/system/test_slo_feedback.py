"""Closed-loop interval replay: admission control wired into run_intervals."""

import numpy as np

from repro.control import ControlConfig
from repro.core.acs import ACSConfig
from repro.core.sstd import SSTDConfig
from repro.core.types import Attitude, Report
from repro.streams import Trace
from repro.system import DistributedSSTD, SSTDSystemConfig


def multi_claim_trace(n_claims=6, per_claim=150, duration=1200.0, seed=0):
    rng = np.random.default_rng(seed)
    reports = []
    for c in range(n_claims):
        for k in range(per_claim):
            t = float(rng.uniform(0, duration))
            says = rng.random() < 0.8
            reports.append(
                Report(
                    f"s{k % 60}",
                    f"claim-{c}",
                    t,
                    attitude=Attitude.AGREE if says else Attitude.DISAGREE,
                )
            )
    return Trace(
        name="slo", reports=sorted(reports, key=lambda r: r.timestamp)
    )


def make_config(control=None):
    """Open loop without ``control``, the closed loop with it."""
    return SSTDSystemConfig(
        n_workers=2,
        backend="threads",
        control_enabled=control is not None,
        control=control or ControlConfig(),
        sstd=SSTDConfig(
            acs=ACSConfig(window=100.0, step=50.0), min_observations=4
        ),
    )


class TestFeedbackLoop:
    def test_open_loop_records_no_admission_decisions(self):
        trace = multi_claim_trace()
        result = DistributedSSTD(make_config()).run_intervals(
            trace, n_intervals=4
        )
        assert result.tracker.total_deferred == 0
        assert result.tracker.total_shed == 0
        assert all(r.n_deferred == 0 for r in result.tracker.records)

    def test_loose_deadline_admits_everything_bit_identical(self):
        """With capacity to spare the loop must not perturb the run."""
        trace = multi_claim_trace()
        open_loop = DistributedSSTD(make_config()).run_intervals(
            trace, n_intervals=4, deadline=100.0, compute_estimates=True
        )
        closed = DistributedSSTD(
            make_config(control=ControlConfig())
        ).run_intervals(
            trace, n_intervals=4, deadline=100.0, compute_estimates=True
        )
        assert closed.tracker.total_deferred == 0
        assert closed.tracker.total_shed == 0
        assert closed.estimates == open_loop.estimates

    def test_tight_deadline_defers_and_writes_trajectory(self, tmp_path):
        trace = multi_claim_trace()
        path = tmp_path / "traj.jsonl"
        n_intervals = 4
        result = DistributedSSTD(
            make_config(control=ControlConfig(trajectory_path=str(path)))
        ).run_intervals(
            # Real-clock deadline far below any interval's decode cost:
            # once cost samples exist the budget collapses to MIN_ADMIT.
            trace,
            n_intervals=n_intervals,
            deadline=1e-4,
        )
        assert result.tracker.total_deferred > 0
        assert any(r.n_deferred > 0 for r in result.tracker.records)
        # One PID update per interval, recorded for offline replay.
        assert len(path.read_text().splitlines()) == n_intervals

    def test_shed_mode_drops_work_under_overload(self):
        trace = multi_claim_trace()
        result = DistributedSSTD(
            make_config(control=ControlConfig())
        ).run_intervals(trace, n_intervals=4, deadline=1e-4)
        assert result.tracker.total_shed > 0
