"""Work Queue tasks, results and the task pool both masters drive.

A *task* is the unit Work Queue ships to a worker.  In SSTD each Truth
Discovery (TD) job — one per claim — is split into one or more tasks
(paper Section IV-C4); a task's cost is dominated by the amount of
social sensing data it must process, captured by ``data_size``.

Tasks optionally carry a Python callable so the same object runs on both
the simulated workers (on the virtual clock) and the process-backed
executor (in a worker process).  Both masters drive one
:class:`TaskPool`, so the pending pool, the retry-or-fail rule, the
completion accounting and the result record exist once, here.
"""

from __future__ import annotations

import itertools
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.obs import MetricsSnapshot, Observability

__all__ = [
    "CostModel",
    "JobAccounting",
    "PayloadSpec",
    "Task",
    "TaskError",
    "TaskPool",
    "TaskResult",
]

_task_counter = itertools.count(1)


@dataclass(frozen=True, slots=True)
class TaskError:
    """Serialization-safe record of a task failure.

    Executors never ship raw exception objects back to the master: an
    exception can hold arbitrary unpicklable state (locks, sockets, HMM
    instances), which could not cross the process boundary.  The process
    executor captures failures as a :class:`TaskError` — type name,
    message, formatted traceback — so a result round-trips intact.

    Attributes:
        type_name: Qualified exception class name (e.g. ``ValueError``).
        message: ``str(exc)`` of the original exception.
        traceback: Formatted traceback text, empty when unavailable.
    """

    type_name: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "TaskError":
        """Capture an exception raised by a task payload."""
        return cls(
            type_name=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback_module.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    def __str__(self) -> str:
        return f"{self.type_name}: {self.message}"


@dataclass(frozen=True)
class PayloadSpec:
    """Picklable task payload: a module-level function plus its arguments.

    Closures cannot cross a process boundary, so tasks destined for
    :class:`repro.workqueue.process.ProcessWorkQueue` carry a spec
    instead: ``fn`` must be an importable module-level callable and the
    arguments must themselves be picklable.  The spec is callable with no
    arguments, so it slots into :attr:`Task.fn` and runs unchanged on the
    simulated backend too.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.fn is None:
            raise ValueError("PayloadSpec needs a callable")
        qualname = getattr(self.fn, "__qualname__", "")
        if "<lambda>" in qualname or "<locals>" in qualname:
            raise ValueError(
                f"PayloadSpec payload {qualname!r} is a lambda or closure; "
                "use a module-level function so the spec can be pickled"
            )

    def __call__(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


@dataclass(frozen=True, slots=True)
class CostModel:
    """Execution-time model of a TD task (paper Eq. (10)).

        ET = TI + data_size * unit_cost

    scaled by the executing node's speed factor, plus a transfer cost
    charged for moving the task's input data to the worker (the
    "communication and I/O overhead" the paper blames for sub-ideal
    speedup in Figure 7).

    Attributes:
        init_time: Per-task initialization overhead ``TI`` in seconds.
        unit_cost: Seconds of compute per unit of data (theta_1).
        transfer_cost: Seconds per unit of data for input transfer; not
            affected by node speed (it is network-bound).
    """

    init_time: float = 0.5
    unit_cost: float = 1e-3
    transfer_cost: float = 5e-5

    def __post_init__(self) -> None:
        if self.init_time < 0 or self.unit_cost < 0 or self.transfer_cost < 0:
            raise ValueError("cost components must be >= 0")

    def execution_time(self, data_size: float, speed_factor: float = 1.0) -> float:
        """Wall time a task of ``data_size`` takes on a node."""
        if speed_factor <= 0:
            raise ValueError("speed_factor must be > 0")
        compute = (self.init_time + data_size * self.unit_cost) / speed_factor
        return compute + data_size * self.transfer_cost


@dataclass(slots=True)
class Task:
    """One schedulable unit of work.

    Attributes:
        job_id: The TD job this task belongs to (claims map 1:1 to jobs).
        data_size: Input size in data units (e.g. number of reports).
        fn: Optional callable executed by real executors; simulated
            workers call it too (so results are real) but charge virtual
            time from the :class:`CostModel` instead of wall time.
        timeout: Optional execution-time cap.  A task that would exceed
            it is aborted at the cap and retried elsewhere — Work Queue's
            straggler defense against slow opportunistic machines.
        max_retries: Additional attempts allowed after a timeout.
        task_id: Unique id, auto-assigned.
        attempts: Executions started so far (counted by the
            :class:`TaskPool` at dispatch).
        tried_workers: Worker names that already attempted this task.
        payload_bytes: Size of the serialized payload actually shipped to
            a worker, recorded at first dispatch by the process executor
            (``None`` on the simulated backend, which never
            serializes).  This is the per-task number the
            ``wq.payload_bytes`` histogram and a run's
            ``payload_bytes_per_task`` aggregate.
    """

    job_id: str
    data_size: float = 0.0
    fn: Optional[Callable[[], Any]] = None
    timeout: Optional[float] = None
    max_retries: int = 3
    task_id: int = field(default_factory=lambda: next(_task_counter))
    attempts: int = 0
    tried_workers: set = field(default_factory=set)
    payload_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if self.data_size < 0:
            raise ValueError("data_size must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be > 0 when set")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def run(self) -> Any:
        """Execute the payload, if any."""
        if self.fn is None:
            return None
        return self.fn()


@dataclass(frozen=True, slots=True)
class TaskResult:
    """Completion record of one task, the same on both masters.

    Times are on the master's clock (virtual, or wall time dated back
    from the result's arrival by the worker's own timing).  ``error`` is
    a picklable :class:`TaskError`: the payload's own failure, or
    ``WorkerLost`` from ``"<master>"`` for a task whose retries ran out.
    A process task also carries its worker-side
    :class:`repro.obs.MetricsSnapshot` (``None`` when tracing is off)
    and the serialized bytes it shipped each way (``None`` where nothing
    was pickled); the ``wq.payload_bytes`` / ``wq.result_bytes``
    histograms and a run's ``*_bytes_per_task`` read the same numbers.
    """

    task_id: int
    job_id: str
    worker_name: str
    output: Any
    started_at: float
    finished_at: float
    error: Optional[TaskError] = None
    metrics: Optional[MetricsSnapshot] = None
    payload_bytes: Optional[int] = None
    result_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.started_at > self.finished_at:
            raise ValueError("a task cannot finish before it starts")

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def wall_time(self) -> float:
        """Execution time of the attempt, on the master's clock."""
        return self.finished_at - self.started_at


@dataclass
class JobAccounting:
    """Execution bookkeeping of one TD job.

    ``first_submit_at`` restarts when the job gets a task while none of
    its tasks is outstanding, so ``elapsed`` spans its current round.
    """

    job_id: str
    submitted: int = 0
    completed: int = 0
    first_submit_at: float = 0.0
    last_finish_at: float = 0.0
    busy_time: float = 0.0

    @property
    def pending(self) -> int:
        return self.submitted - self.completed

    @property
    def elapsed(self) -> float:
        return self.last_finish_at - self.first_submit_at


class TaskPool:
    """The task pool both Work Queue masters drive (paper Section IV-A2).

    It holds the bookkeeping the simulated
    :class:`~repro.workqueue.master.WorkQueueMaster` and the process
    :class:`~repro.workqueue.process.ProcessWorkQueue` share: the
    pending tasks, each attempt's dispatch, the retry-or-fail rule for
    an attempt a worker lost, per-job accounting, and the finished
    results a master's ``drain`` hands back, with their ``wq.*``
    records.  A master keeps only how it picks the next pending task
    and how a worker runs it, and passes instants on its own clock.

    Every task added finishes exactly once: with the first result that
    comes back for it, or, once its retries run out, as a
    ``WorkerLost`` error record.
    """

    def __init__(self, obs: Observability) -> None:
        self.obs = obs
        self.pending: list[Task] = []
        self.jobs: dict[str, JobAccounting] = {}
        #: Tasks added and not yet finished.
        self.outstanding = 0
        self._results: list[TaskResult] = []
        self._finished: set[int] = set()

    def add(self, task: Task, now: float) -> None:
        """Queue a newly submitted task."""
        account = self.jobs.setdefault(task.job_id, JobAccounting(task.job_id))
        if account.pending == 0:
            account.first_submit_at = now
        account.submitted += 1
        self.outstanding += 1
        self.pending.append(task)
        if self.obs.enabled:
            self.obs.metrics.inc("wq.submitted")
            self.obs.tracer.instant(
                "wq.submit",
                track="master",
                job_id=task.job_id,
                task_id=task.task_id,
            )

    def dispatch(self, index: int, worker: str) -> Task:
        """Take pending task ``index`` for an attempt on ``worker``."""
        task = self.pending.pop(index)
        task.attempts += 1
        task.tried_workers.add(worker)
        if self.obs.enabled:
            self.obs.metrics.inc("wq.dispatched")
            # The master-side anchor of the cross-process stitch: every
            # rebased worker span starts at or after the dispatch
            # instant that caused it.
            self.obs.tracer.instant(
                "wq.dispatch",
                track="master",
                job_id=task.job_id,
                task_id=task.task_id,
                worker=worker,
                attempt=task.attempts,
            )
        return task

    def complete(self, result: TaskResult) -> bool:
        """File an attempt's result; ``False`` (and nothing filed) when
        its task already finished."""
        if not self._finish(result):
            return False
        if self.obs.enabled:
            self.obs.metrics.inc("wq.completed")
            self.obs.metrics.observe("wq.task_seconds", result.wall_time)
            self.obs.tracer.record_span(
                "wq.task",
                start=result.started_at,
                end=result.finished_at,
                track=result.worker_name,
                job_id=result.job_id,
                task_id=result.task_id,
                ok=result.ok,
            )
            account = self.jobs[result.job_id]
            if account.pending == 0:
                self.obs.tracer.record_span(
                    "wq.job",
                    start=account.first_submit_at,
                    end=account.last_finish_at,
                    track=f"job:{result.job_id}",
                    job_id=result.job_id,
                    tasks=account.completed,
                )
        return True

    def retry_or_fail(
        self, task: Task, reason: str, worker: str, now: float
    ) -> None:
        """``worker`` lost its attempt at ``task`` (it died or timed
        out): requeue the task while retries remain, else finish it as
        a ``WorkerLost`` error record."""
        if task.task_id in self._finished:
            return  # its result already came back; nothing was lost
        if task.attempts <= task.max_retries:
            self.pending.append(task)
            if self.obs.enabled:
                self.obs.metrics.inc("wq.requeued")
                self.obs.tracer.instant(
                    "wq.requeue",
                    track="master",
                    job_id=task.job_id,
                    task_id=task.task_id,
                    reason=reason,
                    worker=worker,
                    attempt=task.attempts,
                )
            return
        lost = TaskError(
            "WorkerLost",
            f"{reason} after {task.attempts} attempt(s) "
            f"on workers {sorted(task.tried_workers)}",
        )
        self._finish(
            TaskResult(
                task.task_id, task.job_id, "<master>", None, now, now,
                error=lost, payload_bytes=task.payload_bytes,
            )
        )
        if self.obs.enabled:
            self.obs.metrics.inc("wq.failed")
            self.obs.tracer.instant(
                "wq.task_failed",
                track="master",
                job_id=task.job_id,
                task_id=task.task_id,
                reason=reason,
                attempts=task.attempts,
            )

    def collect(self) -> list[TaskResult]:
        """The results finished since the last call, in finishing order."""
        results, self._results = self._results, []
        return results

    def _finish(self, result: TaskResult) -> bool:
        if result.task_id in self._finished:
            return False
        self._finished.add(result.task_id)
        self._results.append(result)
        self.outstanding -= 1
        account = self.jobs[result.job_id]
        account.completed += 1
        account.last_finish_at = result.finished_at
        account.busy_time += result.wall_time
        return True
