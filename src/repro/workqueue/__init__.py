"""Work Queue reproduction: master, workers, elastic pool, process executor."""

from repro.workqueue.master import JobAccounting, WorkQueueMaster
from repro.workqueue.pool import ElasticWorkerPool
from repro.workqueue.process import LocalResult, ProcessWorkQueue
from repro.workqueue.task import CostModel, PayloadSpec, Task, TaskError, TaskResult
from repro.workqueue.worker import SimulatedWorker

__all__ = [
    "CostModel",
    "ElasticWorkerPool",
    "JobAccounting",
    "LocalResult",
    "PayloadSpec",
    "ProcessWorkQueue",
    "SimulatedWorker",
    "Task",
    "TaskError",
    "TaskResult",
    "WorkQueueMaster",
]
