"""Simulated Work Queue workers.

A worker is a process pinned to a cluster placement (node + resources).
It executes one task at a time: input transfer + initialization +
compute, all charged in virtual time according to the task
:class:`~repro.workqueue.task.CostModel` and the node's speed factor.

Workers really *run* the task payload (``task.fn``) at completion time,
so simulated distributed runs produce bit-identical truth estimates to a
serial run — only the timing is simulated.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.cluster.condor import Placement
from repro.cluster.simulation import Simulator
from repro.workqueue.task import CostModel, Task, TaskResult

__all__ = [
    "SimulatedWorker",
]

_worker_counter = itertools.count(1)


class SimulatedWorker:
    """One worker process executing tasks on a simulated cluster node."""

    def __init__(
        self,
        simulator: Simulator,
        placement: Placement,
        cost_model: CostModel,
        name: str | None = None,
    ) -> None:
        self.simulator = simulator
        self.placement = placement
        self.cost_model = cost_model
        self.name = name or f"worker-{next(_worker_counter):04d}"
        self.current_task: Optional[Task] = None
        self.retired = False

    @property
    def busy(self) -> bool:
        return self.current_task is not None

    def execute(
        self,
        task: Task,
        on_done: Callable[["SimulatedWorker", TaskResult], None],
        start_delay: float = 0.0,
        on_timeout: Callable[["SimulatedWorker", Task], None] | None = None,
    ) -> None:
        """Start ``task``; calls ``on_done(worker, result)`` at completion.

        ``start_delay`` models time spent before execution begins on the
        worker (e.g. waiting for the master's serial dispatch/transfer
        pipeline); the worker is reserved immediately but the clock only
        charges execution from ``now + start_delay``.

        When the task carries a ``timeout`` and this node is too slow to
        finish within it, the attempt is aborted at the cap and
        ``on_timeout(worker, task)`` fires instead of ``on_done`` —
        Work Queue's straggler defense.
        """
        if self.busy:
            raise RuntimeError(f"{self.name} is already running a task")
        if self.retired:
            raise RuntimeError(f"{self.name} is retired")
        if start_delay < 0:
            raise ValueError("start_delay must be >= 0")
        self.current_task = task
        started = self.simulator.now + start_delay
        execution = self.cost_model.execution_time(
            task.data_size, self.placement.node.speed_factor
        )
        if (
            task.timeout is not None
            and execution > task.timeout
            and on_timeout is not None
        ):
            def _abort() -> None:
                self.current_task = None
                on_timeout(self, task)

            self.simulator.schedule(start_delay + task.timeout, _abort)
            return
        duration = start_delay + execution

        def _complete() -> None:
            self.current_task = None
            output = task.run()
            result = TaskResult(
                task.task_id, task.job_id, self.name, output, started,
                self.simulator.now,
            )
            on_done(self, result)

        self.simulator.schedule(duration, _complete)

    def retire(self) -> None:
        """Stop accepting tasks and release the placement when idle.

        A busy worker finishes its current task first (drain); the pool
        calls :meth:`release_if_drained` from the completion callback.
        """
        self.retired = True
        self.release_if_drained()

    def release_if_drained(self) -> bool:
        """Release cluster resources once retired and idle."""
        if self.retired and not self.busy:
            self.placement.release()
            return True
        return False
