"""Work Queue tasks and results.

A *task* is the unit Work Queue ships to a worker.  In SSTD each Truth
Discovery (TD) job — one per claim — is split into one or more tasks
(paper Section IV-C4); a task's cost is dominated by the amount of
social sensing data it must process, captured by ``data_size``.

Tasks optionally carry a Python callable so the same object runs on both
the simulated workers (on the virtual clock) and the process-backed
executor (in a worker process).
"""

from __future__ import annotations

import itertools
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

__all__ = [
    "CostModel",
    "PayloadSpec",
    "Task",
    "TaskError",
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
        submitted_at: Virtual time of submission (set by the master).
        attempts: Executions started so far (managed by the master).
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
    submitted_at: float = 0.0
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
    """Completion record of one task."""

    task_id: int
    job_id: str
    worker_name: str
    submitted_at: float
    started_at: float
    finished_at: float
    output: Any = None

    def __post_init__(self) -> None:
        if not (
            self.submitted_at <= self.started_at <= self.finished_at
        ):
            raise ValueError(
                "task timestamps must satisfy submitted <= started <= finished"
            )

    @property
    def queue_time(self) -> float:
        return self.started_at - self.submitted_at

    @property
    def execution_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def turnaround(self) -> float:
        return self.finished_at - self.submitted_at
