"""Tests for per-task timeouts and retry-elsewhere semantics."""

import pytest

from repro.cluster import CondorPool, NodeSpec, ResourceSpec, Simulator
from repro.workqueue import CostModel, ElasticWorkerPool, Task, WorkQueueMaster

COST = CostModel(init_time=0.0, unit_cost=1.0, transfer_cost=0.0)


def mixed_speed_stack():
    """One slow (0.5x) and one fast (2x) single-core node, one worker each."""
    simulator = Simulator()
    nodes = [
        NodeSpec(
            name="slow",
            capacity=ResourceSpec(cores=1, memory_mb=1024, disk_mb=4096),
            speed_factor=0.5,
        ),
        NodeSpec(
            name="fast",
            capacity=ResourceSpec(cores=1, memory_mb=1024, disk_mb=4096),
            speed_factor=2.0,
        ),
    ]
    condor = CondorPool(nodes)
    master = WorkQueueMaster(simulator, rng=0)
    pool = ElasticWorkerPool(simulator, master, condor, COST)
    pool.scale_to(2)
    return simulator, master


class TestTaskTimeoutValidation:
    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError):
            Task(job_id="j", timeout=0.0)

    def test_retries_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Task(job_id="j", max_retries=-1)


class TestStragglerRetry:
    def test_slow_node_attempt_retried_on_fast_node(self):
        """A 1-unit task takes 2s on the slow node (0.5x) and 0.5s on the
        fast one.  With a 1s timeout, a slow-node attempt aborts at 1s
        and the retry lands on the fast node."""
        simulator, master = mixed_speed_stack()
        # Occupy the fast worker so the timed task starts on the slow one.
        fast_worker = next(
            w for w in master.workers if w.placement.node.name == "fast"
        )
        slow_worker = next(
            w for w in master.workers if w.placement.node.name == "slow"
        )
        fast_worker.execute(Task(job_id="filler", data_size=1.4), lambda w, r: None)

        task = Task(job_id="j", data_size=1.0, timeout=1.0, fn=lambda: "ok")
        master.submit(task)
        assert slow_worker.busy
        assert [(r.output, r.ok) for r in master.drain()] == [("ok", True)]
        assert task.attempts == 2
        assert {w for w in task.tried_workers} >= {slow_worker.name}

    def test_gives_up_after_max_retries(self):
        simulator, master = mixed_speed_stack()
        # Impossible timeout: even the fast node needs 0.5s for 1 unit.
        task = Task(job_id="j", data_size=1.0, timeout=0.1, max_retries=2)
        master.submit(task)
        (lost,) = master.drain()
        assert (lost.task_id, lost.ok) == (task.task_id, False)
        assert lost.error.type_name == "WorkerLost"
        assert task.attempts == task.max_retries + 1
        assert master.tasks.outstanding == 0
        # Job accounting reaches a terminal state.
        assert master.tasks.jobs["j"].pending == 0

    def test_no_timeout_behaves_as_before(self):
        simulator, master = mixed_speed_stack()
        master.submit(Task(job_id="j", data_size=1.0, fn=lambda: 1))
        (result,) = master.drain()
        assert result.ok

    def test_timeout_generous_enough_completes_normally(self):
        simulator, master = mixed_speed_stack()
        task = Task(job_id="j", data_size=1.0, timeout=10.0, fn=lambda: 1)
        master.submit(task)
        (result,) = master.drain()
        assert task.attempts == 1
        assert result.ok

    def test_aborted_attempt_charges_the_timeout(self):
        """The slow attempt occupies its worker until the cap fires."""
        simulator, master = mixed_speed_stack()
        fast_worker = next(
            w for w in master.workers if w.placement.node.name == "fast"
        )
        fast_worker.execute(Task(job_id="filler", data_size=5.0), lambda w, r: None)
        task = Task(job_id="j", data_size=1.0, timeout=1.0)
        master.submit(task)
        simulator.run(until=0.5)
        slow_worker = next(
            w for w in master.workers if w.placement.node.name == "slow"
        )
        assert slow_worker.busy  # still burning the straggler attempt
        simulator.run(until=1.5)
        assert not slow_worker.busy  # aborted at t=1.0
