"""Tests for failure injection on the simulated cluster."""

import pytest

from repro.cluster import (
    CondorPool,
    FailureConfig,
    FailureInjector,
    NodeSpec,
    ResourceSpec,
    Simulator,
    uniform_pool,
)
from repro.workqueue import CostModel, ElasticWorkerPool, Task, WorkQueueMaster

COST = CostModel(init_time=0.5, unit_cost=0.05, transfer_cost=0.0)


def mortal_pool(n_nodes=3, mtbf=30.0):
    return [
        NodeSpec(
            name=f"node-{k:04d}",
            capacity=ResourceSpec(cores=2, memory_mb=4096, disk_mb=65536),
            mtbf_seconds=mtbf,
        )
        for k in range(n_nodes)
    ]


def build_stack(specs, n_workers):
    simulator = Simulator()
    condor = CondorPool(specs)
    master = WorkQueueMaster(simulator, rng=0)
    pool = ElasticWorkerPool(simulator, master, condor, COST)
    pool.scale_to(n_workers)
    return simulator, condor, master, pool


class TestFailureInjector:
    def test_all_tasks_complete_despite_failures(self):
        """Work survives node crashes: lost tasks are requeued."""
        simulator, condor, master, pool = build_stack(mortal_pool(), 4)
        injector = FailureInjector(
            simulator, condor, master, FailureConfig(mean_repair_time=20.0),
            rng=1,
        )
        injector.start()
        outputs = []
        for k in range(40):
            master.submit(Task(job_id="j", data_size=20.0, fn=lambda k=k: k))

        # Keep the pool topped up as machines recover.
        from repro.cluster.simulation import PeriodicTask

        PeriodicTask(simulator, 5.0, lambda: pool.scale_to(4))
        master.wait_all(until=100_000.0)
        results = sorted(r.output for r in master.results)
        assert results == list(range(40))
        assert injector.failures > 0, "expected at least one injected failure"

    def test_failure_log_records_requeues(self):
        simulator, condor, master, pool = build_stack(mortal_pool(mtbf=5.0), 4)
        injector = FailureInjector(
            simulator, condor, master, FailureConfig(mean_repair_time=10.0),
            rng=2,
        )
        injector.start()
        for _ in range(30):
            master.submit(Task(job_id="j", data_size=100.0))
        simulator.run(until=60.0)
        assert injector.failures >= 1
        assert injector.tasks_requeued >= 0
        events = {entry.event for entry in injector.log}
        assert "fail" in events

    def test_recovered_nodes_usable_again(self):
        simulator, condor, master, pool = build_stack(mortal_pool(n_nodes=1, mtbf=10.0), 1)
        injector = FailureInjector(
            simulator, condor, master, FailureConfig(mean_repair_time=5.0),
            rng=0,
        )
        injector.start()
        simulator.run(until=200.0)
        assert injector.recoveries >= 1
        node = condor.nodes[0]
        # After the horizon, whatever its state, claim/release must work
        # if it is alive.
        if node.alive:
            placement = condor.place()
            placement.release()

    def test_immortal_nodes_never_fail(self):
        simulator, condor, master, pool = build_stack(
            uniform_pool(2, cores=2), 2
        )
        injector = FailureInjector(simulator, condor, master, rng=0)
        injector.start()
        master.submit(Task(job_id="j", data_size=10.0))
        master.wait_all()
        simulator.run(until=10_000.0)
        assert injector.failures == 0

    def test_default_mtbf_applies(self):
        simulator, condor, master, pool = build_stack(
            uniform_pool(2, cores=2), 2
        )
        injector = FailureInjector(
            simulator, condor, master,
            FailureConfig(mean_repair_time=5.0, default_mtbf=10.0),
            rng=3,
        )
        injector.start()
        simulator.run(until=200.0)
        assert injector.failures > 0

    def test_start_idempotent(self):
        simulator, condor, master, pool = build_stack(mortal_pool(), 1)
        injector = FailureInjector(simulator, condor, master, rng=0)
        injector.start()
        pending = simulator.pending_events
        injector.start()
        assert simulator.pending_events == pending

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FailureConfig(mean_repair_time=0.0)
        with pytest.raises(ValueError):
            FailureConfig(default_mtbf=-1.0)

