"""Edge cases of ElasticWorkerPool.capacity_limit and scaling clamps."""

import pytest

from repro.cluster.condor import CondorPool
from repro.cluster.node import NodeSpec, uniform_pool
from repro.cluster.resources import ResourceSpec
from repro.cluster.simulation import Simulator
from repro.workqueue import CostModel, ElasticWorkerPool, WorkQueueMaster


def make_pool(nodes, **kwargs):
    simulator = Simulator()
    master = WorkQueueMaster(simulator, rng=0)
    condor = CondorPool(nodes)
    pool = ElasticWorkerPool(simulator, master, condor, CostModel(), **kwargs)
    return pool, condor


class TestCapacityLimit:
    def test_footprint_larger_than_any_node(self):
        # Every node has less memory than one WORKER_FOOTPRINT.
        nodes = [
            NodeSpec(
                name=f"small{k}",
                capacity=ResourceSpec(cores=8, memory_mb=256, disk_mb=65_536),
            )
            for k in range(3)
        ]
        pool, _ = make_pool(nodes)
        assert pool.capacity_limit() == 0
        assert pool.scale_to(2) == 0

    def test_footprint_memory_bound(self):
        """Capacity is the binding resource, not just cores."""
        nodes = [
            NodeSpec(
                name="tiny",
                capacity=ResourceSpec(cores=16, memory_mb=1024, disk_mb=65_536),
            )
        ]
        pool, _ = make_pool(nodes)
        # WORKER_FOOTPRINT takes 512 MB: two fit, not sixteen.
        assert pool.capacity_limit() == 2

    def test_max_workers_clamps_capacity(self):
        pool, _ = make_pool(uniform_pool(4, cores=4), max_workers=3)
        assert pool.capacity_limit() == 3
        assert pool.scale_to(10) == 3

    def test_max_workers_clamp_includes_running_workers(self):
        pool, _ = make_pool(uniform_pool(4, cores=4), max_workers=5)
        pool.scale_to(4)
        # 4 running + remaining room, still clamped by max_workers.
        assert pool.capacity_limit() == 5

    def test_capacity_counts_current_size(self):
        pool, _ = make_pool(uniform_pool(1, cores=4))
        before = pool.capacity_limit()
        pool.scale_to(2)
        # Scaling up does not change the total ceiling: running workers
        # plus remaining free slots stays constant.
        assert pool.capacity_limit() == before

    def test_max_workers_below_min_workers_rejected(self):
        with pytest.raises(ValueError):
            make_pool(uniform_pool(1, cores=4), max_workers=0)
