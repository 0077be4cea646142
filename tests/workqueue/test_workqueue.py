"""Tests for Work Queue: tasks, workers, master, elastic pool."""

import pytest

from repro.cluster import CondorPool, Simulator, uniform_pool
from repro.workqueue import (
    CostModel,
    ElasticWorkerPool,
    SimulatedWorker,
    Task,
    TaskResult,
    WorkQueueMaster,
)

COST = CostModel(init_time=1.0, unit_cost=0.1, transfer_cost=0.0)


def make_stack(n_workers=2, n_nodes=2, cores=4, cost=COST, seed=0):
    simulator = Simulator()
    condor = CondorPool(uniform_pool(n_nodes, cores=cores))
    master = WorkQueueMaster(simulator, rng=seed)
    pool = ElasticWorkerPool(simulator, master, condor, cost)
    pool.scale_to(n_workers)
    return simulator, condor, master, pool


class TestCostModel:
    def test_execution_time_formula(self):
        cost = CostModel(init_time=2.0, unit_cost=0.5, transfer_cost=0.1)
        # (2 + 10*0.5)/1 + 10*0.1
        assert cost.execution_time(10.0) == pytest.approx(8.0)

    def test_speed_factor_divides_compute_only(self):
        cost = CostModel(init_time=2.0, unit_cost=0.5, transfer_cost=0.1)
        fast = cost.execution_time(10.0, speed_factor=2.0)
        assert fast == pytest.approx(3.5 + 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(init_time=-1.0)
        with pytest.raises(ValueError):
            COST.execution_time(1.0, speed_factor=0.0)


class TestTask:
    def test_ids_unique(self):
        a, b = Task(job_id="j"), Task(job_id="j")
        assert a.task_id != b.task_id

    def test_validation(self):
        with pytest.raises(ValueError):
            Task(job_id="")
        with pytest.raises(ValueError):
            Task(job_id="j", data_size=-1.0)

    def test_run_payload(self):
        assert Task(job_id="j", fn=lambda: 5).run() == 5
        assert Task(job_id="j").run() is None


class TestTaskResult:
    def test_derived_times(self):
        result = TaskResult(
            task_id=1, job_id="j", worker_name="w",
            submitted_at=1.0, started_at=3.0, finished_at=7.0,
        )
        assert result.queue_time == 2.0
        assert result.execution_time == 4.0
        assert result.turnaround == 6.0

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            TaskResult(
                task_id=1, job_id="j", worker_name="w",
                submitted_at=5.0, started_at=3.0, finished_at=7.0,
            )


class TestMasterDispatch:
    def test_single_task_executes(self):
        simulator, _, master, _ = make_stack(n_workers=1)
        master.submit(Task(job_id="a", data_size=10.0, fn=lambda: "done"))
        master.wait_all()
        assert len(master.results) == 1
        assert master.results[0].output == "done"
        # init 1.0 + 10 * 0.1 = 2.0
        assert simulator.now == pytest.approx(2.0)

    def test_parallel_speedup(self):
        serial_sim, _, serial_master, _ = make_stack(n_workers=1)
        parallel_sim, _, parallel_master, _ = make_stack(n_workers=4)
        for master in (serial_master, parallel_master):
            for _ in range(8):
                master.submit(Task(job_id="a", data_size=10.0))
            master.wait_all()
        assert parallel_sim.now == pytest.approx(serial_sim.now / 4)

    def test_priority_biases_order(self):
        """High-priority job's tasks finish earlier on average."""
        simulator, _, master, _ = make_stack(n_workers=1, seed=42)
        master.set_priority("hot", 50.0)
        master.set_priority("cold", 1.0)
        for _ in range(20):
            master.submit(Task(job_id="cold", data_size=1.0))
            master.submit(Task(job_id="hot", data_size=1.0))
        master.wait_all()
        finish = {"hot": [], "cold": []}
        for result in master.results:
            finish[result.job_id].append(result.finished_at)
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(finish["hot"]) < mean(finish["cold"])

    def test_priority_validation(self):
        _, _, master, _ = make_stack()
        with pytest.raises(ValueError):
            master.set_priority("a", 0.0)

    def test_job_accounting(self):
        simulator, _, master, _ = make_stack(n_workers=1)
        master.submit(Task(job_id="a", data_size=10.0))
        master.submit(Task(job_id="a", data_size=10.0))
        master.wait_all()
        account = master.jobs["a"]
        assert account.submitted == 2
        assert account.completed == 2
        assert account.pending == 0
        assert account.elapsed == pytest.approx(4.0)

    def test_job_elapsed_while_running(self):
        simulator, _, master, _ = make_stack(n_workers=1)
        master.submit(Task(job_id="a", data_size=100.0))
        simulator.run(until=5.0)
        assert master.job_elapsed("a") == pytest.approx(5.0)
        assert master.job_elapsed("missing") == 0.0

    def test_result_listener(self):
        _, _, master, _ = make_stack(n_workers=1)
        seen = []
        master.on_result(seen.append)
        master.submit(Task(job_id="a", data_size=1.0))
        master.wait_all()
        assert len(seen) == 1

    def test_heterogeneous_speed(self):
        """A task on a 2x node takes half the compute time."""
        from repro.cluster import NodeSpec, ResourceSpec

        simulator = Simulator()
        condor = CondorPool(
            [
                NodeSpec(
                    name="fast",
                    capacity=ResourceSpec(cores=1, memory_mb=1024, disk_mb=4096),
                    speed_factor=2.0,
                )
            ]
        )
        master = WorkQueueMaster(simulator, rng=0)
        pool = ElasticWorkerPool(simulator, master, condor, COST)
        pool.scale_to(1)
        master.submit(Task(job_id="a", data_size=10.0))
        master.wait_all()
        assert simulator.now == pytest.approx(1.0)  # (1 + 1.0)/2


class TestWorkerFaults:
    def test_busy_worker_rejects_second_task(self):
        simulator, _, master, _ = make_stack(n_workers=1)
        worker = master.workers[0]
        worker.execute(Task(job_id="a", data_size=100.0), lambda w, r: None)
        with pytest.raises(RuntimeError, match="already running"):
            worker.execute(Task(job_id="b"), lambda w, r: None)


class TestElasticPool:
    def test_scale_up_down(self):
        simulator, condor, master, pool = make_stack(n_workers=2)
        assert pool.size == 2
        pool.scale_to(5)
        assert pool.size == 5
        pool.scale_to(1)
        assert pool.size == 1

    def test_scale_up_saturates_at_cluster_capacity(self):
        simulator, _, master, pool = make_stack(
            n_workers=1, n_nodes=1, cores=2
        )
        pool.scale_to(100)
        assert pool.size == 2  # 1 core per worker, 2-core node

    def test_scale_down_drains_busy_worker(self):
        simulator, condor, master, pool = make_stack(n_workers=1)
        master.submit(Task(job_id="a", data_size=50.0))
        simulator.run(until=1.0)  # worker busy now
        pool.scale_to(0)
        # The pool never drops below one worker.
        assert pool.size == 1
        master.wait_all()
        assert len(master.results) == 1  # drained, not killed

    def test_max_workers_cap(self):
        simulator = Simulator()
        condor = CondorPool(uniform_pool(4, cores=4))
        master = WorkQueueMaster(simulator, rng=0)
        pool = ElasticWorkerPool(
            simulator, master, condor, COST, max_workers=3
        )
        pool.scale_to(10)
        assert pool.size == 3

    def test_scale_by(self):
        _, _, _, pool = make_stack(n_workers=2)
        assert pool.scale_by(2) == 4
        assert pool.scale_by(-1) == 3

    def test_validation(self):
        simulator = Simulator()
        condor = CondorPool(uniform_pool(1))
        master = WorkQueueMaster(simulator)
        with pytest.raises(ValueError):
            ElasticWorkerPool(simulator, master, condor, COST, max_workers=0)
        pool = ElasticWorkerPool(simulator, master, condor, COST)
        with pytest.raises(ValueError):
            pool.scale_to(-1)
