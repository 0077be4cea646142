"""The Work Queue master: task pool, dispatch, and job accounting.

Reproduces the master process of paper Section IV-A2: it owns a *Task
Pool* of pending tasks and a *Worker Pool* of simulated workers, and
dispatches tasks to idle workers.  The pool's bookkeeping — pending
tasks, retry-or-fail, completion accounting, results — is the
:class:`~repro.workqueue.task.TaskPool` the process executor drives
too; this master adds what is its own: the priority-weighted draw,
retry-elsewhere placement and workers that run on the virtual clock.

Dispatch follows the paper's priority semantics (Section IV-C4): a job's
priority is the probability that one of its tasks is chosen next, so a
high-priority job's tasks are *more likely* — not guaranteed — to run
earlier.  Priorities are per-job (the Local Control Knob) and can be
changed at any time by the
:class:`~repro.control.controller.Controller`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.simulation import Simulator
from repro.obs import Observability, VirtualClock
from repro.workqueue.task import Task, TaskPool, TaskResult
from repro.workqueue.worker import SimulatedWorker

__all__ = [
    "WorkQueueMaster",
]


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
        self.tasks = TaskPool(self.obs)
        self.workers: list[SimulatedWorker] = []
        self.priorities: dict[str, float] = {}

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
        self.tasks.add(task, self.simulator.now)
        if self.obs.enabled:
            self._update_gauges()
        self._dispatch()

    def _pick_task_index(self) -> int:
        """Priority-weighted random choice over the pending pool."""
        pending = self.tasks.pending
        if len(pending) == 1:
            return 0
        weights = np.array([self.priority_of(task.job_id) for task in pending])
        total = weights.sum()
        if total <= 0:
            return 0
        return int(self.rng.choice(len(pending), p=weights / total))

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
        pending = self.tasks.pending
        while pending:
            idle = self.idle_workers
            if not idle:
                return
            index = self._pick_task_index()
            worker = self._worker_for(pending[index], idle)
            if worker is None:
                # The sampled task must wait for a fresh worker; see if
                # any other pending task can use the idle capacity now.
                for alt_index, alt_task in enumerate(pending):
                    alt_worker = self._worker_for(alt_task, idle)
                    if alt_worker is not None:
                        index, worker = alt_index, alt_worker
                        break
                if worker is None:
                    return
            task = self.tasks.dispatch(index, worker.name)
            start_delay = 0.0
            if self.dispatch_overhead > 0:
                now = self.simulator.now
                self._master_free = (
                    max(now, self._master_free) + self.dispatch_overhead
                )
                start_delay = self._master_free - now
            worker.execute(
                task,
                self._task_done,
                start_delay=start_delay,
                on_timeout=self._task_timed_out,
            )
            if self.obs.enabled:
                self._update_gauges()

    def _task_timed_out(self, worker: SimulatedWorker, task: Task) -> None:
        """A straggler attempt hit its cap: retry elsewhere or give up."""
        if self.obs.enabled:
            self.obs.metrics.inc("wq.timeouts")
        self.tasks.retry_or_fail(
            task,
            f"task exceeded timeout={task.timeout}s",
            worker.name,
            self.simulator.now,
        )
        if self.obs.enabled:
            self._update_gauges()
        self._dispatch()

    def _task_done(self, worker: SimulatedWorker, result: TaskResult) -> None:
        self.tasks.complete(result)
        if self.obs.enabled:
            self._update_gauges()
        if worker.release_if_drained():
            self._forget(worker)
        else:
            self._dispatch()

    def _update_gauges(self) -> None:
        """Refresh queue-shape gauges; call only when ``obs.enabled``."""
        self.obs.metrics.set_gauge(
            "wq.queue_depth", float(len(self.tasks.pending))
        )
        self.obs.metrics.set_gauge(
            "wq.busy_workers", float(sum(1 for w in self.workers if w.busy))
        )
        self.obs.metrics.set_gauge(
            "wq.active_workers", float(self.active_worker_count)
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def drain(self) -> list[TaskResult]:
        """Run the simulation until every submitted task has finished;
        returns the results finished since the last drain.

        A task whose retries ran out comes back as a ``WorkerLost``
        error record, as on the process executor.
        """
        while self.tasks.outstanding and self.simulator.step():
            pass
        return self.tasks.collect()

    def job_elapsed(self, job_id: str) -> float:
        """Current elapsed (virtual) time of a job since first submit."""
        account = self.tasks.jobs.get(job_id)
        if account is None:
            return 0.0
        if account.pending > 0:
            return self.simulator.now - account.first_submit_at
        return account.elapsed
