"""One task pool under both Work Queue masters: the retry-or-fail rule.

A task whose every attempt is lost must come back from ``drain`` as
exactly one ``WorkerLost`` error record on either master, so a caller
written for one backend never silently loses a claim on the other.
"""

import pytest

from repro.cluster import CondorPool, NodeSpec, ResourceSpec, Simulator
from repro.obs import Observability
from repro.system.sstd_system import DistributedSSTD
from repro.workqueue import (
    CostModel,
    ElasticWorkerPool,
    PayloadSpec,
    ProcessWorkQueue,
    Task,
    WorkQueueMaster,
)

from tests.workqueue.test_process import die_always


def simulated_master():
    """Two single-core workers on which a 1-unit task needs 1 s."""
    simulator = Simulator()
    node = NodeSpec(
        name="node",
        capacity=ResourceSpec(cores=2, memory_mb=2048, disk_mb=8192),
    )
    master = WorkQueueMaster(simulator, rng=0, obs=Observability())
    cost = CostModel(init_time=0.0, unit_cost=1.0, transfer_cost=0.0)
    ElasticWorkerPool(simulator, master, CondorPool([node]), cost).scale_to(2)
    return master


def lose_every_attempt(backend):
    """Drain one task whose every attempt is lost; returns the master
    and what the drain handed back."""
    if backend == "simulated":
        master = simulated_master()
        # Impossible timeout: every attempt is aborted at its cap.
        task = Task(job_id="doomed", data_size=1.0, timeout=0.1, max_retries=2)
        master.submit(task)
        return master, task, master.drain()
    master = ProcessWorkQueue(n_workers=1, obs=Observability())
    try:
        # The worker dies on every attempt.
        task = Task(job_id="doomed", fn=PayloadSpec(die_always), max_retries=2)
        master.submit(task)
        return master, task, master.drain(timeout=30.0)
    finally:
        master.shutdown()


@pytest.mark.parametrize("backend", ["simulated", "processes"])
class TestRetriesExhausted:
    def test_one_worker_lost_record_counted_once(self, backend):
        master, task, results = lose_every_attempt(backend)
        (lost,) = results
        assert (lost.task_id, lost.job_id) == (task.task_id, "doomed")
        assert not lost.ok and lost.output is None
        assert lost.error.type_name == "WorkerLost"
        assert f"after {task.max_retries + 1} attempt(s)" in lost.error.message
        assert task.attempts == task.max_retries + 1
        metrics = master.obs.metrics.snapshot()
        assert metrics.counter("wq.failed") == 1.0
        assert metrics.counter("wq.requeued") == float(task.max_retries)
        assert metrics.counter("wq.completed") == 0.0
        assert master.tasks.outstanding == 0
        assert master.tasks.jobs["doomed"].pending == 0

    def test_check_failures_raises_for_it(self, backend):
        _, _, results = lose_every_attempt(backend)
        with pytest.raises(RuntimeError, match="WorkerLost"):
            DistributedSSTD._check_failures(results)
