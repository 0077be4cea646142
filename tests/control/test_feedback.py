"""Trajectory recording/replay and admission control (repro.control.feedback)."""

import json

import pytest

from repro.control import (
    AdmissionController,
    FeedbackConfig,
    IntervalFeedbackLoop,
    PIDController,
    PIDGains,
    load_trajectory,
    replay_trajectory,
)
from repro.control.feedback import (
    MAX_DEFER,
    MIN_ADMIT,
    SCALE_CEILING,
    SCALE_FLOOR,
    UTILIZATION_TARGET,
)
from repro.obs import Observability


class TestTrajectoryRecording:
    def test_pid_records_one_sample_per_update(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        from repro.control import TrajectoryRecorder

        with TrajectoryRecorder(path) as recorder:
            pid = PIDController(
                gains=PIDGains(kp=1.0, ki=0.5, kd=0.1),
                name="pid:test",
                recorder=recorder,
            )
            outputs = [pid.update(e, dt=1.0) for e in (0.5, -0.2, 0.1)]
            assert recorder.recorded == 3
        samples = load_trajectory(path)
        assert [s.output for s in samples] == outputs
        assert all(s.controller == "pid:test" for s in samples)
        assert samples[0].gains == PIDGains(kp=1.0, ki=0.5, kd=0.1)

    def test_record_after_close_is_noop(self, tmp_path):
        from repro.control import TrajectoryRecorder

        recorder = TrajectoryRecorder(tmp_path / "traj.jsonl")
        pid = PIDController(recorder=recorder)
        pid.update(1.0, dt=1.0)
        recorder.close()
        recorder.close()  # idempotent
        pid.update(2.0, dt=1.0)
        assert recorder.recorded == 1
        assert len(load_trajectory(recorder.path)) == 1

    def test_malformed_line_reports_path_and_line(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text('{"controller": "x"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"traj\.jsonl:1"):
            load_trajectory(path)

    def test_full_float_precision_roundtrips(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        from repro.control import TrajectoryRecorder

        with TrajectoryRecorder(path) as recorder:
            pid = PIDController(
                gains=PIDGains(kp=0.1, ki=0.3, kd=0.0), recorder=recorder
            )
            pid.update(1.0 / 3.0, dt=0.1)
        (sample,) = load_trajectory(path)
        assert sample.error == 1.0 / 3.0  # bitwise, not approx


class TestReplay:
    def _record(self, tmp_path, errors):
        path = tmp_path / "traj.jsonl"
        from repro.control import TrajectoryRecorder

        with TrajectoryRecorder(path) as recorder:
            pid = PIDController(
                gains=PIDGains(kp=1.2, ki=0.3, kd=0.2), recorder=recorder
            )
            for error in errors:
                pid.update(error, dt=1.0)
        return load_trajectory(path)

    def test_bit_identical_at_recorded_gains(self, tmp_path):
        samples = self._record(tmp_path, [0.5, -0.25, 0.125, 1.0 / 3.0])
        steps = replay_trajectory(samples)
        assert all(step.matches for step in steps)
        assert all(step.divergence == 0.0 for step in steps)

    def test_diverges_at_modified_gains(self, tmp_path):
        samples = self._record(tmp_path, [0.5, -0.25, 0.125])
        steps = replay_trajectory(samples, gains=PIDGains(kp=2.5, ki=0.3, kd=0.2))
        assert any(not step.matches for step in steps)
        assert max(step.divergence for step in steps) > 0.0

    def test_multiple_controllers_replayed_independently(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        from repro.control import TrajectoryRecorder

        with TrajectoryRecorder(path) as recorder:
            a = PIDController(name="pid:a", recorder=recorder)
            b = PIDController(
                name="pid:b",
                gains=PIDGains(kp=0.5, ki=0.0, kd=0.0),
                recorder=recorder,
            )
            a.update(1.0, dt=1.0)
            b.update(1.0, dt=1.0)
            a.update(-1.0, dt=1.0)
        steps = replay_trajectory(load_trajectory(path))
        assert [s.controller for s in steps] == ["pid:a", "pid:b", "pid:a"]
        assert all(s.matches for s in steps)


def plan(controller, n, **kwargs):
    defaults = dict(n_workers=2, p95_claim_cost=0.1, headroom=0.0)
    defaults.update(kwargs)
    return controller.plan([f"c{i:02d}" for i in range(n)], **defaults)


class TestAdmissionController:
    def test_no_samples_admits_everything(self):
        ctl = AdmissionController(deadline=1.0)
        decision = plan(ctl, 30, p95_claim_cost=0.0)
        assert len(decision.admitted) == 30
        assert decision.deferred == () and decision.shed == ()

    def test_budget_from_capacity(self):
        # 2 lanes x 1s deadline x 0.7 utilization / 0.1 s/claim ~= 14
        # (computed in floats, so mirror the arithmetic exactly).
        expected = int(2 * 1.0 * UTILIZATION_TARGET * 1.0 / 0.1)
        ctl = AdmissionController(deadline=1.0)
        decision = plan(ctl, 30)
        assert decision.budget == expected
        assert len(decision.admitted) == expected
        assert len(decision.deferred) == 30 - expected

    def test_negative_headroom_tightens_positive_loosens(self):
        ctl = AdmissionController(deadline=1.0)
        tight = plan(ctl, 30, headroom=-0.5)
        assert tight.scale == 0.5
        loose = plan(ctl, 30, headroom=10.0)
        assert loose.scale == SCALE_CEILING
        assert tight.budget < loose.budget

    def test_scale_clamped_to_floor(self):
        ctl = AdmissionController(deadline=1.0)
        decision = plan(ctl, 30, headroom=-100.0)
        assert decision.scale == SCALE_FLOOR

    def test_min_admit_floor(self):
        ctl = AdmissionController(deadline=1.0)
        decision = plan(ctl, 5, p95_claim_cost=1e9)
        assert decision.budget == MIN_ADMIT
        assert len(decision.admitted) == MIN_ADMIT

    def test_aged_claims_admitted_first(self):
        ctl = AdmissionController(deadline=1.0)
        first = plan(ctl, 30)
        # Everything deferred last time outranks fresh arrivals now.
        second = plan(ctl, 30)
        assert set(second.admitted[: len(first.deferred)]) <= set(
            first.deferred
        )

    def test_force_admit_after_max_defer(self):
        # Budget pinned at MIN_ADMIT = 1 by a huge cost estimate; with
        # MAX_DEFER + 2 dirty claims each round, round r admits one claim
        # within budget, the oldest deferred first.  In round MAX_DEFER + 1
        # the last claim has been deferred MAX_DEFER times: it is
        # force-admitted next to the budgeted one.
        ctl = AdmissionController(deadline=1.0)
        claims = [f"c{i}" for i in range(MAX_DEFER + 2)]
        for round_no in range(MAX_DEFER + 1):
            decision = ctl.plan(
                claims, n_workers=2, p95_claim_cost=1e9, headroom=0.0
            )
            assert decision.budget == 1
        assert decision.admitted == (claims[-2], claims[-1])
        assert len(decision.admitted) > decision.budget
        assert all(age <= MAX_DEFER for age in ctl._ages.values())

    def test_shed_mode_drops_stale_overflow_instead_of_forcing(self):
        ctl = AdmissionController(deadline=1.0, shed_after=2)
        claims = [f"c{i:02d}" for i in range(4)]
        decisions = []
        for _ in range(6):
            decision = ctl.plan(
                claims, n_workers=1, p95_claim_cost=10.0, headroom=0.0
            )
            # Loss mode never admits past the budget.
            assert len(decision.admitted) == decision.budget == 1
            decisions.append(decision)
        # Stale overflow was dropped, not forced: every round's due set
        # splits into one admitted claim, the deferred and the shed.
        assert sum(len(d.shed) for d in decisions) > 0
        for decision in decisions:
            assert len(decision.deferred) + len(decision.shed) == 3

    def test_shed_claim_age_resets_on_return(self):
        # Budget 1 over three claims: r1 admits a, defers b and c; r2
        # admits b (oldest, id tie-break) and sheds c, whose age would
        # exceed shed_after.  The shed claim's age is forgotten.
        ctl = AdmissionController(deadline=1.0, shed_after=1)
        claims = ["a", "b", "c"]
        ctl.plan(claims, n_workers=1, p95_claim_cost=1e9, headroom=0.0)
        decision = ctl.plan(
            claims, n_workers=1, p95_claim_cost=1e9, headroom=0.0
        )
        assert decision.admitted == ("b",)
        assert decision.shed == ("c",)
        assert "c" not in ctl._ages

    def test_counters_and_instant_emitted(self):
        obs = Observability()
        ctl = AdmissionController(deadline=1.0, obs=obs)
        decision = plan(ctl, 30)
        n_admitted = len(decision.admitted)
        snap = obs.metrics.snapshot()
        assert snap.counter("admission.admitted") == float(n_admitted)
        assert snap.counter("admission.deferred") == float(30 - n_admitted)
        instants = [
            e for e in obs.tracer.events() if e.name == "admission.defer"
        ]
        assert len(instants) == 1
        attrs = instants[0].attr_dict()
        assert attrs["n_admitted"] == n_admitted
        assert attrs["n_deferred"] == 30 - n_admitted
        assert attrs["budget"] == decision.budget

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FeedbackConfig(shed_after=0)
        with pytest.raises(ValueError):
            AdmissionController(deadline=1.0, shed_after=0)
        with pytest.raises(ValueError):
            AdmissionController(deadline=0.0)


class TestIntervalFeedbackLoop:
    def test_measured_parallelism_caps_the_budget(self):
        loop = IntervalFeedbackLoop(deadline=1.0)
        claims = [f"c{i:02d}" for i in range(30)]
        loop.observe(1.0, claim_costs=[0.1] * 10, busy_time=1.0)
        # Two nominal workers, but busy/exec says one effective lane:
        # the budget must be computed for one, i.e. half the two-lane
        # budget an unmeasured loop would produce.
        decision = loop.plan(claims, n_workers=2)
        two_lane = AdmissionController(deadline=1.0).plan(
            claims, 2, 0.1, loop.headroom
        )
        assert decision.budget * 2 <= two_lane.budget + 1
        assert decision.budget == int(1 * 1.0 * UTILIZATION_TARGET * 1.0 / 0.1)

    def test_rounds_share_the_interval_budget(self):
        config = FeedbackConfig(shed_after=3)
        loop = IntervalFeedbackLoop(deadline=1.0, config=config)
        loop.observe(1.0, claim_costs=[0.1] * 10, busy_time=1.0)
        budget = int(1 * 1.0 * UTILIZATION_TARGET * 1.0 / 0.1)
        first = loop.plan([f"a{i}" for i in range(4)], n_workers=2)
        second = loop.plan([f"b{i}" for i in range(4)], n_workers=2)
        third = loop.plan(["c0"], n_workers=2)
        assert first.budget == second.budget == budget
        assert len(first.admitted) == 4
        assert len(second.admitted) == budget - 4
        assert third.admitted == ()
        # The next interval opens a fresh budget.
        loop.observe(1.0)
        assert loop.plan(["c0"], n_workers=2).admitted == ("c0",)

    def test_lanes_smoothed_with_ema(self):
        loop = IntervalFeedbackLoop(deadline=1.0)
        loop.observe(1.0, busy_time=1.0)
        loop.observe(1.0, busy_time=2.0)
        assert loop.effective_lanes == pytest.approx(1.5)

    def test_headroom_tracks_deadline_error(self):
        loop = IntervalFeedbackLoop(deadline=1.0)
        over = loop.observe(2.0)
        assert over < 0
        loop2 = IntervalFeedbackLoop(deadline=1.0)
        under = loop2.observe(0.1)
        assert under > 0

    def test_negative_costs_ignored(self):
        loop = IntervalFeedbackLoop(deadline=1.0)
        loop.observe(0.5, claim_costs=[-1.0, 0.2])
        assert loop.p95_claim_cost() == 0.2

    def test_trajectory_written_and_closed(self, tmp_path):
        path = tmp_path / "loop.jsonl"
        config = FeedbackConfig(trajectory_path=str(path))
        with IntervalFeedbackLoop(deadline=1.0, config=config) as loop:
            loop.observe(0.5)
            loop.observe(1.5)
        samples = load_trajectory(path)
        assert len(samples) == 2
        assert samples[0].error == pytest.approx(0.5)
        assert samples[1].error == pytest.approx(-0.5)
        # Raw JSONL is one compact object per line.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert all(json.loads(line)["controller"] == "pid:interval" for line in lines)
