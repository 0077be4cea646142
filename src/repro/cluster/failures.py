"""Failure injection for the simulated cluster.

A campus HTCondor pool is opportunistic: desktops reboot, owners evict
jobs, machines disappear mid-task.  The SSTD master must survive this —
Work Queue's model is that a lost worker's task is simply re-queued.
This module drives that behaviour in the simulator: each node fails
after an exponential time with its configured MTBF, takes its workers
down (in-flight tasks are recovered through
:meth:`~repro.workqueue.master.WorkQueueMaster.requeue_from`), and
recovers after a repair time, after which the elastic pool may place
new workers on it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.condor import CondorPool
from repro.cluster.node import ComputeNode
from repro.cluster.simulation import Simulator
from repro.workqueue.master import WorkQueueMaster

__all__ = [
    "FailureConfig",
    "FailureInjector",
    "FailureLogEntry",
]


@dataclass
class FailureLogEntry:
    """One failure or recovery event, for assertions and reports."""

    time: float
    node_name: str
    event: str  # "fail" | "recover"
    requeued_tasks: int = 0


@dataclass(frozen=True, slots=True)
class FailureConfig:
    """Failure process parameters.

    Attributes:
        mean_repair_time: Mean of the exponential repair time (seconds).
        default_mtbf: MTBF applied to nodes whose spec has none set
            (``mtbf_seconds == 0``); 0 keeps them immortal.
    """

    mean_repair_time: float = 120.0
    default_mtbf: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_repair_time <= 0:
            raise ValueError("mean_repair_time must be > 0")
        if self.default_mtbf < 0:
            raise ValueError("default_mtbf must be >= 0")


class FailureInjector:
    """Schedules node failures and recoveries on the simulator."""

    def __init__(
        self,
        simulator: Simulator,
        condor: CondorPool,
        master: WorkQueueMaster,
        config: FailureConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.simulator = simulator
        self.condor = condor
        self.master = master
        self.config = config or FailureConfig()
        self.rng = rng
        self.log: list[FailureLogEntry] = []
        self._armed = False

    def start(self) -> None:
        """Arm a failure clock on every mortal node (idempotent)."""
        if self._armed:
            return
        self._armed = True
        for node in self.condor.nodes:
            mtbf = node.spec.mtbf_seconds or self.config.default_mtbf
            if mtbf > 0:
                self._schedule_failure(node, mtbf)

    def _schedule_failure(self, node: ComputeNode, mtbf: float) -> None:
        delay = float(self.rng.exponential(mtbf))
        self.simulator.schedule(delay, lambda: self._fail(node, mtbf))

    def _fail(self, node: ComputeNode, mtbf: float) -> None:
        if not node.alive:
            return
        node.fail()
        requeued = 0
        # Recover in-flight tasks from every worker pinned to this node.
        for worker in list(self.master.workers):
            if worker.placement.node is node:
                if self.master.requeue_from(worker) is not None:
                    requeued += 1
        self.log.append(
            FailureLogEntry(
                time=self.simulator.now,
                node_name=node.name,
                event="fail",
                requeued_tasks=requeued,
            )
        )
        repair = float(self.rng.exponential(self.config.mean_repair_time))
        self.simulator.schedule(repair, lambda: self._recover(node, mtbf))

    def _recover(self, node: ComputeNode, mtbf: float) -> None:
        node.recover()
        # A recovered machine comes back empty.
        node.ledger.allocated = type(node.ledger.allocated)(
            cores=0, memory_mb=0, disk_mb=0
        )
        self.log.append(
            FailureLogEntry(
                time=self.simulator.now, node_name=node.name, event="recover"
            )
        )
        self._schedule_failure(node, mtbf)

    @property
    def failures(self) -> int:
        return sum(1 for entry in self.log if entry.event == "fail")

    @property
    def recoveries(self) -> int:
        return sum(1 for entry in self.log if entry.event == "recover")

    @property
    def tasks_requeued(self) -> int:
        return sum(entry.requeued_tasks for entry in self.log)
