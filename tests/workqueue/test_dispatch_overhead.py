"""Tests for the master's serial dispatch bottleneck."""

import pytest

from repro.cluster import CondorPool, Simulator, uniform_pool
from repro.workqueue import CostModel, ElasticWorkerPool, Task, WorkQueueMaster

COST = CostModel(init_time=0.0, unit_cost=1.0, transfer_cost=0.0)


def stack(n_workers, overhead):
    simulator = Simulator()
    condor = CondorPool(uniform_pool(max(1, (n_workers + 3) // 4), cores=4))
    master = WorkQueueMaster(simulator, rng=0, dispatch_overhead=overhead)
    pool = ElasticWorkerPool(simulator, master, condor, COST)
    pool.scale_to(n_workers)
    return simulator, master


class TestDispatchOverhead:
    def test_serializes_at_the_master(self):
        """With zero-cost tasks, the makespan is n_tasks * overhead:
        dispatches queue behind one master no matter how many workers."""
        simulator, master = stack(n_workers=8, overhead=0.5)
        for _ in range(8):
            master.submit(Task(job_id="j", data_size=0.0))
        master.drain()
        assert simulator.now == pytest.approx(8 * 0.5)

    def test_overlaps_with_execution(self):
        """Dispatch pipelines with execution: worker k starts at
        (k+1)*overhead and runs for its task duration."""
        simulator, master = stack(n_workers=2, overhead=0.25)
        for _ in range(2):
            master.submit(Task(job_id="j", data_size=1.0))
        master.drain()
        # Second dispatch completes at 0.5; its task runs 1.0 -> 1.5.
        assert simulator.now == pytest.approx(1.5)

    def test_queue_time_includes_dispatch_wait(self):
        simulator, master = stack(n_workers=1, overhead=0.5)
        master.submit(Task(job_id="j", data_size=1.0))
        (result,) = master.drain()
        # Submitted at 0: the whole start is dispatch wait.
        assert result.started_at == pytest.approx(0.5)

    def test_zero_overhead_unchanged(self):
        simulator, master = stack(n_workers=2, overhead=0.0)
        for _ in range(4):
            master.submit(Task(job_id="j", data_size=1.0))
        master.drain()
        assert simulator.now == pytest.approx(2.0)

    def test_negative_overhead_rejected(self):
        simulator = Simulator()
        with pytest.raises(ValueError):
            WorkQueueMaster(simulator, dispatch_overhead=-1.0)

    def test_worker_start_delay_validated(self):
        simulator, master = stack(n_workers=1, overhead=0.0)
        worker = master.workers[0]
        with pytest.raises(ValueError):
            worker.execute(Task(job_id="j"), lambda w, r: None, start_delay=-1.0)

    def test_amdahl_shape(self):
        """Speedup saturates once dispatch serialization dominates."""
        def makespan(workers):
            simulator, master = stack(n_workers=workers, overhead=0.2)
            for _ in range(32):
                master.submit(Task(job_id="j", data_size=0.5))
            master.drain()
            return simulator.now

        serial = makespan(1)
        s8 = serial / makespan(8)
        s32 = serial / makespan(32)
        assert s8 > 2.0
        # Dispatch floor: 32 tasks * 0.2s = 6.4s no matter the workers.
        assert s32 == pytest.approx(s8, rel=0.5)
        assert makespan(32) >= 6.4 - 1e-9
