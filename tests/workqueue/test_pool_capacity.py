"""ElasticWorkerPool growth stops where the nodes' resources run out."""

from repro.cluster.condor import CondorPool
from repro.cluster.node import NodeSpec
from repro.cluster.resources import ResourceSpec
from repro.cluster.simulation import Simulator
from repro.workqueue import CostModel, ElasticWorkerPool, WorkQueueMaster


def make_pool(nodes):
    simulator = Simulator()
    master = WorkQueueMaster(simulator, rng=0)
    return ElasticWorkerPool(simulator, master, CondorPool(nodes), CostModel())


class TestScaleToResources:
    def test_footprint_larger_than_any_node(self):
        # Every node has less memory than one WORKER_FOOTPRINT.
        nodes = [
            NodeSpec(
                name=f"small{k}",
                capacity=ResourceSpec(cores=8, memory_mb=256, disk_mb=65_536),
            )
            for k in range(3)
        ]
        assert make_pool(nodes).scale_to(2) == 0

    def test_footprint_memory_bound(self):
        """Memory is the binding resource here, not cores."""
        nodes = [
            NodeSpec(
                name="tiny",
                capacity=ResourceSpec(cores=16, memory_mb=1024, disk_mb=65_536),
            )
        ]
        # WORKER_FOOTPRINT takes 512 MB: two fit, not sixteen.
        assert make_pool(nodes).scale_to(16) == 2
