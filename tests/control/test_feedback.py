"""Trajectory recording/replay and admission (repro.control.controller)."""

import json

import pytest

from repro.control import (
    Admission,
    ControlConfig,
    Controller,
    PIDController,
    PIDGains,
    load_trajectory,
    replay_trajectory,
)
from repro.control.controller import (
    MIN_ADMIT,
    SCALE_CEILING,
    SCALE_FLOOR,
    SHED_AFTER,
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
        try:
            pid = PIDController(recorder=recorder)
            pid.update(1.0, dt=1.0)
        finally:
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


def admission(cost=0.1, obs=None):
    """An :class:`Admission` whose cost window holds ``cost`` once."""
    adm = Admission(deadline=1.0, obs=obs or Observability.disabled())
    adm.observe(0.0, [cost] if cost > 0 else [], busy_time=0.0)
    return adm


def plan(adm, n, n_workers=2, headroom=0.0):
    return adm.plan([f"c{i:02d}" for i in range(n)], n_workers, headroom)


class TestAdmission:
    def test_no_samples_admits_everything(self):
        decision = Controller(deadline=1.0).admit(
            [f"c{i:02d}" for i in range(30)], n_workers=2
        )
        assert len(decision.admitted) == 30
        assert decision.deferred == () and decision.shed == ()

    def test_budget_from_capacity(self):
        # 2 lanes x 1s deadline x 0.7 utilization / 0.1 s/claim ~= 14
        # (computed in floats, so mirror the arithmetic exactly).
        expected = int(2 * 1.0 * UTILIZATION_TARGET * 1.0 / 0.1)
        decision = plan(admission(), 30)
        assert decision.budget == expected
        assert len(decision.admitted) == expected
        assert len(decision.deferred) == 30 - expected

    def test_negative_headroom_tightens_positive_loosens(self):
        adm = admission()
        tight = plan(adm, 30, headroom=-0.5)
        assert tight.scale == 0.5
        loose = plan(adm, 30, headroom=10.0)
        assert loose.scale == SCALE_CEILING
        assert tight.budget < loose.budget

    def test_scale_clamped_to_floor(self):
        decision = plan(admission(), 30, headroom=-100.0)
        assert decision.scale == SCALE_FLOOR

    def test_min_admit_floor(self):
        decision = plan(admission(cost=1e9), 5)
        assert decision.budget == MIN_ADMIT
        assert len(decision.admitted) == MIN_ADMIT

    def test_aged_claims_admitted_first(self):
        adm = admission()
        first = plan(adm, 30)
        adm.observe(0.0, [], busy_time=0.0)  # the next interval's budget
        # Everything deferred last time outranks fresh arrivals now.
        second = plan(adm, 30)
        assert set(second.admitted[: len(first.deferred)]) <= set(
            first.deferred
        )

    def test_shed_mode_drops_stale_overflow_instead_of_forcing(self):
        # One admission per round over SHED_AFTER + 2 claims: some claim
        # waits past SHED_AFTER deferrals.
        adm = admission(cost=10.0)
        claims = [f"c{i:02d}" for i in range(SHED_AFTER + 2)]
        decisions = []
        for _ in range(6):
            decision = adm.plan(claims, n_workers=1, headroom=0.0)
            adm.observe(0.0, [], busy_time=0.0)
            # Shedding never admits past the budget.
            assert len(decision.admitted) == decision.budget == 1
            decisions.append(decision)
        # Stale overflow was dropped, not forced: every round's due set
        # splits into one admitted claim, the deferred and the shed.
        assert sum(len(d.shed) for d in decisions) > 0
        for decision in decisions:
            assert len(decision.deferred) + len(decision.shed) == len(claims) - 1

    def test_shed_claim_age_resets_on_return(self):
        # Budget 1 over five claims, one round per interval: round r
        # admits the oldest deferred claim (id tie-break).  In round
        # SHED_AFTER + 1 = 4, "e" has been deferred SHED_AFTER times and
        # is shed instead of deferred again; its age is forgotten.
        assert SHED_AFTER == 3
        adm = admission(cost=1e9)
        claims = ["a", "b", "c", "d", "e"]
        for _ in range(SHED_AFTER):
            adm.plan(claims, n_workers=1, headroom=0.0)
            adm.observe(0.0, [], busy_time=0.0)
        decision = adm.plan(claims, n_workers=1, headroom=0.0)
        assert decision.admitted == ("d",)
        assert decision.shed == ("e",)
        assert "e" not in adm._ages

    def test_counters_and_instant_emitted(self):
        obs = Observability()
        decision = plan(admission(obs=obs), 30)
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
            ControlConfig(sample_period=0.0)
        with pytest.raises(ValueError):
            Controller(deadline=0.0)


class TestIntervalLoop:
    def test_measured_parallelism_caps_the_budget(self):
        controller = Controller(deadline=1.0)
        claims = [f"c{i:02d}" for i in range(30)]
        controller.settle(1.0, claim_costs=[0.1] * 10, busy_time=1.0)
        # Two nominal workers, but busy/exec says one effective lane:
        # the budget must be computed for one, i.e. half the two-lane
        # budget an unmeasured loop would produce.
        decision = controller.admit(claims, n_workers=2)
        two_lane = admission().plan(claims, 2, controller.headroom)
        assert decision.budget * 2 <= two_lane.budget + 1
        assert decision.budget == int(1 * 1.0 * UTILIZATION_TARGET * 1.0 / 0.1)

    def test_rounds_share_the_interval_budget(self):
        controller = Controller(deadline=1.0)
        controller.settle(1.0, claim_costs=[0.1] * 10, busy_time=1.0)
        budget = int(1 * 1.0 * UTILIZATION_TARGET * 1.0 / 0.1)
        first = controller.admit([f"a{i}" for i in range(4)], n_workers=2)
        second = controller.admit([f"b{i}" for i in range(4)], n_workers=2)
        third = controller.admit(["c0"], n_workers=2)
        assert first.budget == second.budget == budget
        assert len(first.admitted) == 4
        assert len(second.admitted) == budget - 4
        assert third.admitted == ()
        # The next interval opens a fresh budget.
        controller.settle(1.0)
        assert controller.admit(["c0"], n_workers=2).admitted == ("c0",)

    def test_lanes_smoothed_with_ema(self):
        controller = Controller(deadline=1.0)
        controller.settle(1.0, busy_time=1.0)
        controller.settle(1.0, busy_time=2.0)
        assert controller.admission.lanes == pytest.approx(1.5)

    def test_headroom_tracks_deadline_error(self):
        over = Controller(deadline=1.0).settle(2.0)
        assert over < 0
        under = Controller(deadline=1.0).settle(0.1)
        assert under > 0

    def test_negative_costs_ignored(self):
        controller = Controller(deadline=1.0)
        controller.settle(0.5, claim_costs=[-1.0, 0.2])
        assert controller.admission.p95_claim_cost() == 0.2

    def test_trajectory_written_and_closed(self, tmp_path):
        path = tmp_path / "loop.jsonl"
        config = ControlConfig(trajectory_path=str(path))
        with Controller(deadline=1.0, config=config) as controller:
            controller.settle(0.5)
            controller.settle(1.5)
        samples = load_trajectory(path)
        assert len(samples) == 2
        assert samples[0].error == pytest.approx(0.5)
        assert samples[1].error == pytest.approx(-0.5)
        # Raw JSONL is one compact object per line.
        lines = path.read_text(encoding="utf-8").splitlines()
        assert all(json.loads(line)["controller"] == "pid:interval" for line in lines)
