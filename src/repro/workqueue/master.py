"""The Work Queue master: task pool, dispatch, and job accounting.

Reproduces the master process of paper Section IV-A2: it owns a *Task
Pool* of pending tasks and a *Worker Pool* of simulated workers, and
dispatches tasks to idle workers.

Dispatch follows the paper's priority semantics (Section IV-C4): a job's
priority is the probability that one of its tasks is chosen next, so a
high-priority job's tasks are *more likely* — not guaranteed — to run
earlier.  Priorities are per-job (the Local Control Knob) and can be
changed at any time by the
:class:`~repro.control.controller.Controller`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.cluster.simulation import Simulator
from repro.obs import Observability, VirtualClock
from repro.workqueue.task import Task, TaskResult
from repro.workqueue.worker import SimulatedWorker

__all__ = [
    "JobAccounting",
    "WorkQueueMaster",
]


@dataclass
class JobAccounting:
    """Execution bookkeeping of one TD job."""

    job_id: str
    submitted: int = 0
    completed: int = 0
    first_submit_at: float = 0.0
    last_finish_at: float = 0.0
    busy_time: float = 0.0
    data_processed: float = 0.0

    @property
    def pending(self) -> int:
        return self.submitted - self.completed

    @property
    def elapsed(self) -> float:
        return self.last_finish_at - self.first_submit_at


class WorkQueueMaster:
    """Master process: submit tasks, dispatch by job priority, collect results."""

    def __init__(
        self,
        simulator: Simulator,
        rng: np.random.Generator | int | None = None,
        dispatch_overhead: float = 0.0,
        obs: Observability | None = None,
    ) -> None:
        """Args:
            simulator: The virtual clock.
            rng: Seed for priority-weighted dispatch sampling.
            dispatch_overhead: Seconds of *master-side* work per task
                dispatch (matchmaking, input staging).  The master is a
                single process, so this cost serializes — the classic
                Work Queue scalability bottleneck that caps speedup for
                overhead-dominated (small) workloads.
            obs: Tracing/metrics recorder; defaults to an instance on
                the simulation's virtual clock, enabled only when
                ``REPRO_TRACE`` asks for it.
        """
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if dispatch_overhead < 0:
            raise ValueError("dispatch_overhead must be >= 0")
        self.simulator = simulator
        self.rng = rng
        self.dispatch_overhead = dispatch_overhead
        self.obs = (
            obs
            if obs is not None
            else Observability.from_env(clock=VirtualClock(simulator))
        )
        self._master_free = 0.0
        self.pending: list[Task] = []
        self.workers: list[SimulatedWorker] = []
        self.results: list[TaskResult] = []
        self.failed: list[Task] = []
        self.jobs: dict[str, JobAccounting] = {}
        self.priorities: dict[str, float] = {}
        self._result_listeners: list[Callable[[TaskResult], None]] = []
        self._drained_workers: list[SimulatedWorker] = []

    # ------------------------------------------------------------------
    # Worker pool management
    # ------------------------------------------------------------------
    def attach_worker(self, worker: SimulatedWorker) -> None:
        self.workers.append(worker)
        self._dispatch()

    def detach_worker(self, worker: SimulatedWorker) -> None:
        """Retire a worker; it drains its current task first."""
        worker.retire()
        if not worker.busy:
            self._forget(worker)

    def _forget(self, worker: SimulatedWorker) -> None:
        if worker in self.workers:
            self.workers.remove(worker)

    @property
    def idle_workers(self) -> list[SimulatedWorker]:
        return [w for w in self.workers if not w.busy and not w.retired]

    @property
    def active_worker_count(self) -> int:
        return sum(1 for w in self.workers if not w.retired)

    # ------------------------------------------------------------------
    # Job priorities (Local Control Knob)
    # ------------------------------------------------------------------
    def set_priority(self, job_id: str, priority: float) -> None:
        if priority <= 0:
            raise ValueError(f"priority must be > 0, got {priority}")
        self.priorities[job_id] = priority

    def priority_of(self, job_id: str) -> float:
        return self.priorities.get(job_id, 1.0)

    # ------------------------------------------------------------------
    # Submission and dispatch
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        task.submitted_at = self.simulator.now
        account = self.jobs.get(task.job_id)
        if account is None:
            account = JobAccounting(
                job_id=task.job_id, first_submit_at=self.simulator.now
            )
            self.jobs[task.job_id] = account
        account.submitted += 1
        self.pending.append(task)
        if self.obs.enabled:
            self.obs.metrics.inc("wq.submitted")
            self.obs.tracer.instant(
                "wq.submit",
                track="master",
                job_id=task.job_id,
                task_id=task.task_id,
            )
            self._update_gauges()
        self._dispatch()

    def on_result(self, listener: Callable[[TaskResult], None]) -> None:
        self._result_listeners.append(listener)

    def _pick_task_index(self) -> int:
        """Priority-weighted random choice over the pending pool."""
        if len(self.pending) == 1:
            return 0
        weights = np.array(
            [self.priority_of(task.job_id) for task in self.pending]
        )
        total = weights.sum()
        if total <= 0:
            return 0
        return int(self.rng.choice(len(self.pending), p=weights / total))

    def _worker_for(
        self, task: Task, idle: list[SimulatedWorker]
    ) -> Optional[SimulatedWorker]:
        """Retry-elsewhere placement: prefer a worker that has not yet
        attempted ``task``; only reuse a tried worker once every active
        worker has had a go (else a too-slow node burns all retries)."""
        fresh = [w for w in idle if w.name not in task.tried_workers]
        if fresh:
            return fresh[0]
        active_names = {w.name for w in self.workers if not w.retired}
        if active_names <= task.tried_workers and idle:
            return idle[0]
        return None

    def _dispatch(self) -> None:
        while self.pending:
            idle = self.idle_workers
            if not idle:
                return
            index = self._pick_task_index()
            task = self.pending[index]
            worker = self._worker_for(task, idle)
            if worker is None:
                # The sampled task must wait for a fresh worker; see if
                # any other pending task can use the idle capacity now.
                for alt_index, alt_task in enumerate(self.pending):
                    alt_worker = self._worker_for(alt_task, idle)
                    if alt_worker is not None:
                        index, task, worker = alt_index, alt_task, alt_worker
                        break
                if worker is None:
                    return
            self.pending.pop(index)
            if self.obs.enabled:
                self.obs.metrics.inc("wq.dispatched")
                self.obs.tracer.instant(
                    "wq.dispatch",
                    track="master",
                    job_id=task.job_id,
                    task_id=task.task_id,
                    worker=worker.name,
                    attempt=task.attempts + 1,
                )
            if self.dispatch_overhead > 0:
                now = self.simulator.now
                dispatch_done = (
                    max(now, self._master_free) + self.dispatch_overhead
                )
                self._master_free = dispatch_done
                worker.execute(
                    task,
                    self._task_done,
                    start_delay=dispatch_done - now,
                    on_timeout=self._task_timed_out,
                )
            else:
                worker.execute(
                    task, self._task_done, on_timeout=self._task_timed_out
                )
            if self.obs.enabled:
                self._update_gauges()

    def _task_timed_out(self, worker: SimulatedWorker, task: Task) -> None:
        """A straggler attempt hit its cap: retry elsewhere or give up."""
        if self.obs.enabled:
            self.obs.metrics.inc("wq.timeouts")
        if task.attempts > task.max_retries:
            self.failed.append(task)
            account = self.jobs[task.job_id]
            account.completed += 1  # terminal: no longer outstanding
            account.last_finish_at = self.simulator.now
            if self.obs.enabled:
                self.obs.metrics.inc("wq.failed")
                self.obs.tracer.instant(
                    "wq.task_failed",
                    track="master",
                    job_id=task.job_id,
                    task_id=task.task_id,
                    attempts=task.attempts,
                )
        else:
            self.pending.append(task)
            if self.obs.enabled:
                self.obs.metrics.inc("wq.requeued")
                self.obs.tracer.instant(
                    "wq.requeue",
                    track="master",
                    job_id=task.job_id,
                    task_id=task.task_id,
                    reason="timeout",
                    worker=worker.name,
                )
        if self.obs.enabled:
            self._update_gauges()
        self._dispatch()

    def _task_done(self, worker: SimulatedWorker, result: TaskResult) -> None:
        self.results.append(result)
        account = self.jobs[result.job_id]
        account.completed += 1
        account.last_finish_at = result.finished_at
        account.busy_time += result.execution_time
        if self.obs.enabled:
            self.obs.metrics.inc("wq.completed")
            self.obs.metrics.observe("wq.task_seconds", result.execution_time)
            self.obs.tracer.record_span(
                "wq.task",
                start=result.started_at,
                end=result.finished_at,
                track=worker.name,
                job_id=result.job_id,
                task_id=result.task_id,
            )
            if account.pending == 0:
                self.obs.tracer.record_span(
                    "wq.job",
                    start=account.first_submit_at,
                    end=account.last_finish_at,
                    track=f"job:{result.job_id}",
                    job_id=result.job_id,
                    tasks=account.completed,
                )
            self._update_gauges()
        for listener in self._result_listeners:
            listener(result)
        if worker.release_if_drained():
            self._forget(worker)
        else:
            self._dispatch()

    def _update_gauges(self) -> None:
        """Refresh queue-shape gauges; call only when ``obs.enabled``."""
        self.obs.metrics.set_gauge("wq.queue_depth", float(len(self.pending)))
        self.obs.metrics.set_gauge(
            "wq.busy_workers", float(sum(1 for w in self.workers if w.busy))
        )
        self.obs.metrics.set_gauge(
            "wq.active_workers", float(self.active_worker_count)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def outstanding(self) -> int:
        """Tasks submitted but not finished."""
        running = sum(1 for w in self.workers if w.busy)
        return len(self.pending) + running

    def wait_all(self, until: float = float("inf")) -> None:
        """Run the simulation until every submitted task completes."""
        while self.outstanding() and self.simulator.now < until:
            if not self.simulator.step():
                break

    def job_elapsed(self, job_id: str) -> float:
        """Current elapsed (virtual) time of a job since first submit."""
        account = self.jobs.get(job_id)
        if account is None:
            return 0.0
        if account.pending > 0:
            return self.simulator.now - account.first_submit_at
        return account.elapsed
