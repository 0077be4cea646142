"""Elastic worker pool (the Global Control Knob's actuator).

Work Queue "maintains an elastic worker pool that allows users to scale
the number of workers up or down" (paper Section IV-A2).  The pool sits
between the master and the HTCondor matchmaker: scaling up places new
workers on cluster nodes, scaling down retires workers (draining busy
ones) and releases their resources.
"""

from __future__ import annotations

from repro.cluster.condor import CondorPool, MatchmakingError
from repro.cluster.simulation import Simulator
from repro.workqueue.master import WorkQueueMaster
from repro.workqueue.task import CostModel
from repro.cluster.resources import WORKER_FOOTPRINT
from repro.workqueue.worker import SimulatedWorker

__all__ = [
    "ElasticWorkerPool",
]

#: The pool never scales below this many workers.
MIN_WORKERS = 1


class ElasticWorkerPool:
    """Scales the worker count against an HTCondor pool.

    Each worker claims :data:`~repro.cluster.resources.WORKER_FOOTPRINT`
    on its node; the size stays within ``[MIN_WORKERS, max_workers]``.
    """

    def __init__(
        self,
        simulator: Simulator,
        master: WorkQueueMaster,
        condor: CondorPool,
        cost_model: CostModel,
        max_workers: int | None = None,
    ) -> None:
        if max_workers is not None and max_workers < MIN_WORKERS:
            raise ValueError(f"max_workers must be >= {MIN_WORKERS}")
        self.simulator = simulator
        self.master = master
        self.condor = condor
        self.cost_model = cost_model
        self.max_workers = max_workers

    @property
    def size(self) -> int:
        """Current number of non-retired workers."""
        return self.master.active_worker_count

    def capacity_limit(self) -> int:
        """Upper bound on workers given cluster resources and config."""
        per_node = []
        for node in self.condor.nodes:
            count = 0
            available = node.ledger.available
            while WORKER_FOOTPRINT.scaled(count + 1).fits_within(available):
                count += 1
            per_node.append(count)
        fit = self.size + sum(per_node)
        if self.max_workers is not None:
            return min(fit, self.max_workers)
        return fit

    def scale_to(self, target: int) -> int:
        """Grow or shrink toward ``target`` workers; returns the new size.

        Growth stops early (without raising) when the cluster runs out of
        room — the controller treats the actuator as saturated.
        """
        if target < 0:
            raise ValueError("target must be >= 0")
        target = max(target, MIN_WORKERS)
        if self.max_workers is not None:
            target = min(target, self.max_workers)

        while self.size < target:
            try:
                placement = self.condor.place()
            except MatchmakingError:
                break
            worker = SimulatedWorker(
                self.simulator, placement, self.cost_model
            )
            self.master.attach_worker(worker)

        if self.size > target:
            # Retire idle workers first; drain busy ones only if needed.
            excess = self.size - target
            idle = [w for w in self.master.workers if not w.busy and not w.retired]
            busy = [w for w in self.master.workers if w.busy and not w.retired]
            for worker in (idle + busy)[:excess]:
                self.master.detach_worker(worker)
        return self.size

    def scale_by(self, delta: int) -> int:
        """Relative scaling; returns the new size."""
        return self.scale_to(self.size + delta)
