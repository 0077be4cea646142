"""Local thread-backed Work Queue executor.

The simulated workers (:mod:`repro.workqueue.worker`) model timing; this
executor really runs task payloads on a pool of threads through a
submit / drain API, so examples and small deployments can use actual
concurrency without the simulation layer.  On a one-core box this
obviously does not show parallel speedup — that is exactly why the
scalability experiments use the simulator — but it exercises the same
dispatch logic against real wall time.  Tasks dispatch in submission
order: job priorities belong to the simulated
:class:`~repro.workqueue.master.WorkQueueMaster`, which the controller
drives.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from repro.obs import MetricsSnapshot, Observability
from repro.workqueue.task import Task, TaskError

__all__ = [
    "LocalResult",
    "LocalWorkQueue",
]


@dataclass(frozen=True, slots=True)
class LocalResult:
    """Completion record of a locally executed task.

    ``error`` is a picklable :class:`repro.workqueue.task.TaskError`
    (never a raw exception object), so results from the thread and the
    process backends are interchangeable.  ``metrics`` carries the
    worker-side :class:`repro.obs.MetricsSnapshot` for this task (the
    process backend's channel for shipping engine metrics back to the
    master); ``None`` when tracing is off or the backend records into
    the master registry directly.  ``payload_bytes`` / ``result_bytes``
    are the serialized sizes the task actually shipped across the
    process boundary (payload out, output back); ``None`` on in-process
    executors, which never serialize.  The parallel-backend benchmark
    and the ``wq.payload_bytes`` / ``wq.result_bytes`` histograms read
    the same numbers, so the bench and a live operator agree.
    """

    task_id: int
    job_id: str
    worker_name: str
    output: Any
    wall_time: float
    error: Optional[TaskError] = None
    metrics: Optional[MetricsSnapshot] = None
    payload_bytes: Optional[int] = None
    result_bytes: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class LocalWorkQueue:
    """Thread-pool executor with first-in, first-out dispatch.

    Example:
        >>> wq = LocalWorkQueue(n_workers=2)
        >>> wq.submit(Task(job_id="j", fn=lambda: 21 * 2))
        >>> [r.output for r in wq.drain()]
        [42]
        >>> wq.shutdown()
    """

    def __init__(
        self, n_workers: int = 2, obs: Observability | None = None
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.obs = obs if obs is not None else Observability.from_env()
        self._lock = threading.Lock()
        self._pending: deque[Task] = deque()  # guarded-by: _lock
        self._results: "queue.Queue[LocalResult]" = queue.Queue()  # thread-safe
        self._outstanding = 0  # guarded-by: _lock
        self._shutdown = False  # guarded-by: _lock
        self._wakeup = threading.Condition(self._lock)  # lock-alias: _lock
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"local-worker-{k}", daemon=True
            )
            for k in range(n_workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, task: Task) -> None:
        """Queue ``task`` for the next free worker.

        Raises:
            ValueError: When the task has no payload the backend can run.
            RuntimeError: After :meth:`shutdown`.
        """
        if task.fn is None:
            raise ValueError("local tasks need a callable payload (task.fn)")
        with self._wakeup:
            if self._shutdown:
                raise RuntimeError("queue is shut down")
            self._pending.append(task)
            self._outstanding += 1
            self._wakeup.notify()

    def _worker_loop(self) -> None:
        name = threading.current_thread().name
        while True:
            with self._wakeup:
                while not self._pending and not self._shutdown:
                    self._wakeup.wait()
                if self._shutdown and not self._pending:
                    return
                task = self._pending.popleft()
            start = self.obs.clock.now()
            error: Optional[TaskError] = None
            output = None
            try:
                output = task.run()
            except Exception as exc:  # deliberate: task errors are data
                error = TaskError.from_exception(exc)
            end = self.obs.clock.now()
            if self.obs.enabled:
                self.obs.metrics.inc("wq.completed")
                self.obs.metrics.inc("worker.tasks")
                if error is not None:
                    self.obs.metrics.inc("worker.task_errors")
                self.obs.metrics.observe("wq.task_seconds", end - start)
                self.obs.metrics.observe("worker.task_seconds", end - start)
                self.obs.tracer.record_span(
                    "wq.task",
                    start=start,
                    end=end,
                    track=name,
                    job_id=task.job_id,
                    task_id=task.task_id,
                    ok=error is None,
                )
            self._results.put(
                LocalResult(
                    task_id=task.task_id,
                    job_id=task.job_id,
                    worker_name=name,
                    output=output,
                    wall_time=end - start,
                    error=error,
                )
            )

    def drain(self, timeout: float = 60.0) -> list[LocalResult]:
        """Block until every submitted task has finished; return results.

        Raises:
            TimeoutError: When tasks are still outstanding after
                ``timeout`` seconds.
        """
        deadline = self.obs.clock.now() + timeout
        collected: list[LocalResult] = []
        while True:
            with self._lock:
                outstanding = self._outstanding
            if outstanding == 0:
                break
            remaining = deadline - self.obs.clock.now()
            if remaining <= 0:
                raise TimeoutError(
                    f"{outstanding} tasks still outstanding"
                )
            try:
                result = self._results.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            collected.append(result)
            with self._lock:
                self._outstanding -= 1
        # Pick up any results that raced the counter.
        while True:
            try:
                collected.append(self._results.get_nowait())
            except queue.Empty:
                break
        return collected

    def shutdown(self) -> None:
        with self._wakeup:
            self._shutdown = True
            self._wakeup.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
