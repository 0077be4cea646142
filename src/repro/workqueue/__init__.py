"""Work Queue reproduction: one task pool under two masters (simulated
cluster and worker processes), workers, elastic pool."""

from repro.workqueue.master import WorkQueueMaster
from repro.workqueue.pool import ElasticWorkerPool
from repro.workqueue.process import ProcessWorkQueue
from repro.workqueue.task import (
    CostModel,
    JobAccounting,
    PayloadSpec,
    Task,
    TaskError,
    TaskPool,
    TaskResult,
)
from repro.workqueue.worker import SimulatedWorker

__all__ = [
    "CostModel",
    "ElasticWorkerPool",
    "JobAccounting",
    "PayloadSpec",
    "ProcessWorkQueue",
    "SimulatedWorker",
    "Task",
    "TaskError",
    "TaskPool",
    "TaskResult",
    "WorkQueueMaster",
]
