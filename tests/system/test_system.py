"""Tests for deadline tracking, the simulated control loop, and the system."""

import pytest

from repro.cluster import CondorPool, Simulator, uniform_pool
from repro.control import Controller, WCETModel
from repro.core.types import Attitude, Report
from repro.system import (
    DeadlineTracker,
    DistributedSSTD,
    SSTDSystemConfig,
    hit_rate_curve,
)
from repro.system.deadline import IntervalRecord
from repro.workqueue import CostModel, ElasticWorkerPool, Task, WorkQueueMaster


def reports_for(claim_id, n=10, start=0.0):
    return [
        Report(
            f"s{i}", claim_id, start + float(i),
            attitude=Attitude.AGREE if i % 2 else Attitude.DISAGREE,
        )
        for i in range(n)
    ]


class TestDeadlineTracker:
    def test_hit_rate(self):
        tracker = DeadlineTracker(deadline=5.0)
        tracker.record(0, 100, 3.0)
        tracker.record(1, 100, 7.0)
        tracker.record(2, 100, 5.0)
        assert tracker.hit_rate == pytest.approx(2 / 3)
        assert tracker.mean_execution_time == pytest.approx(5.0)

    def test_empty(self):
        assert DeadlineTracker(deadline=1.0).hit_rate == 0.0

    def test_record_validation(self):
        tracker = DeadlineTracker(deadline=1.0)
        with pytest.raises(ValueError):
            tracker.record(0, 1, -1.0)
        with pytest.raises(ValueError):
            DeadlineTracker(deadline=0.0)

    def test_interval_record(self):
        record = IntervalRecord(0, 10, execution_time=3.0, deadline=5.0)
        assert record.hit
        late = IntervalRecord(1, 10, execution_time=9.0, deadline=5.0)
        assert not late.hit

    def test_hit_rate_curve_monotone(self):
        times = [1.0, 3.0, 5.0, 9.0]
        curve = hit_rate_curve(times, [0.5, 2.0, 6.0, 10.0])
        rates = [rate for _, rate in curve]
        assert rates == sorted(rates)
        assert rates[-1] == 1.0

    def test_hit_rate_curve_validation(self):
        with pytest.raises(ValueError):
            hit_rate_curve([1.0], [0.0])


class TestSimulatedController:
    def _stack(self, elastic=True, n_workers=2, deadline=0.5):
        simulator = Simulator()
        condor = CondorPool(uniform_pool(8, cores=4))
        master = WorkQueueMaster(simulator, rng=0)
        cost = CostModel(init_time=0.1, unit_cost=0.01, transfer_cost=0.0)
        pool = ElasticWorkerPool(simulator, master, condor, cost)
        pool.scale_to(n_workers)
        wcet = WCETModel(theta2=0.01)
        controller = Controller(deadline)
        controller.start(master, pool, wcet, elastic=elastic)
        return simulator, master, pool, controller

    def test_late_job_priority_rises(self):
        simulator, master, pool, controller = self._stack(elastic=False)
        # Far more work than can be done within the deadline.
        for _ in range(20):
            master.submit(Task(job_id="late", data_size=500.0))
        simulator.run(until=5.0)
        assert master.priority_of("late") > 1.0
        assert pool.size == 2

    def test_elastic_pool_grows_under_pressure(self):
        simulator, master, pool, controller = self._stack(n_workers=1)
        for _ in range(50):
            master.submit(Task(job_id="a", data_size=500.0))
        simulator.run(until=10.0)
        assert pool.size > 1

    def test_idle_jobs_not_sampled(self):
        simulator, master, pool, controller = self._stack(deadline=10.0)
        # Done long before the first sample at t = 1.
        master.submit(Task(job_id="idle", data_size=1.0))
        simulator.run(until=5.0)
        assert master.tasks.jobs["idle"].pending == 0
        assert controller.pool_sizes == []
        assert controller.pids == {}

    def test_stop_halts_sampling(self):
        simulator, master, pool, controller = self._stack()
        master.submit(Task(job_id="a", data_size=1000.0))
        simulator.run(until=2.0)
        samples = len(controller.pool_sizes)
        assert samples > 0
        controller.stop()
        simulator.run(until=10.0)
        assert len(controller.pool_sizes) == samples


class TestDistributedSSTD:
    def _reports(self):
        reports = []
        for claim in ("c1", "c2", "c3"):
            reports.extend(reports_for(claim, 50))
        return reports

    def test_batch_estimates_match_serial(self):
        from repro.core import SSTD, SSTDConfig
        from repro.core.acs import ACSConfig

        sstd_config = SSTDConfig(acs=ACSConfig(window=10.0, step=5.0))
        reports = self._reports()
        serial = SSTD(sstd_config).discover(reports, start=0.0, end=50.0)
        system = DistributedSSTD(
            SSTDSystemConfig(n_workers=3, sstd=sstd_config)
        )
        result = system.run_batch(reports, start=0.0, end=50.0)
        assert list(result.estimates) == sorted(
            serial, key=lambda e: (e.claim_id, e.timestamp)
        )

    def test_more_workers_shorter_makespan(self):
        reports = self._reports()
        slow = DistributedSSTD(SSTDSystemConfig(n_workers=1)).run_batch(reports)
        fast = DistributedSSTD(SSTDSystemConfig(n_workers=3)).run_batch(reports)
        assert fast.makespan < slow.makespan

    def test_batch_metrics(self):
        result = DistributedSSTD(SSTDSystemConfig(n_workers=2)).run_batch(
            self._reports()
        )
        assert result.n_jobs == 3
        assert result.n_tasks >= 3
        assert 0.0 < result.utilization <= 1.0

    def test_run_intervals_tracks_deadlines(self):
        from repro.streams import Trace

        trace = Trace(name="t", reports=self._reports())
        system = DistributedSSTD(
            SSTDSystemConfig(
                n_workers=2,
                deadline=5.0,
                cost_model=CostModel(init_time=0.01, unit_cost=0.001),
            )
        )
        result = system.run_intervals(trace, n_intervals=5)
        assert len(result.tracker.records) == 5
        assert 0.0 <= result.hit_rate <= 1.0

    def test_tight_deadline_lowers_hit_rate(self):
        from repro.streams import Trace

        trace = Trace(name="t", reports=self._reports())
        cost = CostModel(init_time=0.5, unit_cost=0.05)

        def run(deadline):
            return DistributedSSTD(
                SSTDSystemConfig(
                    n_workers=1,
                    max_workers=1,
                    deadline=deadline,
                    cost_model=cost,
                    control_enabled=False,
                )
            ).run_intervals(trace, n_intervals=5).hit_rate

        assert run(0.05) <= run(100.0)

    def test_simulated_trajectory_replays_bit_identically(self, tmp_path):
        from repro.control import (
            ControlConfig,
            load_trajectory,
            replay_trajectory,
        )
        from repro.streams import Trace

        path = tmp_path / "traj.jsonl"
        system = DistributedSSTD(
            SSTDSystemConfig(
                n_workers=1,
                deadline=0.5,
                cost_model=CostModel(init_time=0.5, unit_cost=0.05),
                control=ControlConfig(
                    sample_period=0.25, trajectory_path=str(path)
                ),
                observability=True,
            )
        )
        system.run_intervals(
            Trace(name="t", reports=self._reports()), n_intervals=5
        )
        samples = load_trajectory(path)
        # One line per per-claim PID update, every one of them replayed
        # bit for bit at the recorded gains.
        updates = [
            e for e in system.obs.tracer.events() if e.name == "pid.update"
        ]
        assert len(samples) == len(updates) > 0
        assert [s.controller for s in samples] == [
            e.attr_dict()["controller"] for e in updates
        ]
        assert {s.controller for s in samples} <= {"pid:c1", "pid:c2", "pid:c3"}
        assert all(step.matches for step in replay_trajectory(samples))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SSTDSystemConfig(n_workers=0)
        with pytest.raises(ValueError):
            SSTDSystemConfig(deadline=0.0)

    def test_interval_validation(self):
        from repro.streams import Trace

        system = DistributedSSTD()
        with pytest.raises(ValueError):
            system.run_intervals(
                Trace(name="t", reports=self._reports()), n_intervals=0
            )
        with pytest.raises(ValueError):
            system.run_intervals(Trace(name="empty", reports=[]))

    def test_explicit_nonpositive_deadline_rejected(self):
        # An explicit 0.0 is a deadline, not "use the config's".
        from repro.streams import Trace

        trace = Trace(name="t", reports=self._reports())
        for deadline in (0.0, -1.0):
            with pytest.raises(ValueError, match="deadline"):
                DistributedSSTD().run_intervals(trace, 3, deadline=deadline)
