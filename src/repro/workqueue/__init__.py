"""Work Queue reproduction: one task pool under two masters (simulated
cluster and worker processes), workers, elastic pool."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.workqueue.master": ("WorkQueueMaster",),
        "repro.workqueue.pool": ("ElasticWorkerPool",),
        "repro.workqueue.process": ("ProcessWorkQueue",),
        "repro.workqueue.task": (
            "CostModel",
            "JobAccounting",
            "PayloadSpec",
            "Task",
            "TaskError",
            "TaskPool",
            "TaskResult",
        ),
        "repro.workqueue.worker": ("SimulatedWorker",),
    },
)
