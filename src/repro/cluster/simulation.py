"""Discrete-event simulation core.

The substrate under the Work Queue / HTCondor reproduction: a virtual
clock plus an event queue.  Everything that "takes time" in the
distributed framework (task transfer, task execution, controller
sampling) is scheduled here, so system experiments (Figures 4-7) are
deterministic, fast, and independent of the host machine — which has a
single CPU and could never exhibit real 64-worker speedups.

The design is deliberately minimal: callbacks on a heap.  Processes that
need state machines keep it in their own objects and reschedule
themselves; no coroutine magic (see the style guide: avoid the magical
wand).
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "EventHandle",
    "PeriodicTask",
    "Simulator",
]

#: Events one :meth:`Simulator.run` may fire before it reports a
#: runaway loop.
MAX_EVENTS = 10_000_000


@dataclass(order=True)
class _ScheduledEvent:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        self._event.cancelled = True

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class Simulator:
    """A virtual clock with an ordered event queue.

    Events scheduled for the same instant fire in scheduling order
    (stable FIFO), which keeps runs reproducible.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[_ScheduledEvent] = []
        self._counter = itertools.count()

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Run ``callback`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time}, clock is already at {self.now}"
            )
        event = _ScheduledEvent(time=time, seq=next(self._counter), callback=callback)
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            event.callback()
            return True
        return False

    def run(self, until: float = math.inf) -> None:
        """Run events in order until the queue drains or ``until``.

        The clock is advanced to ``until`` when it is finite and the queue
        drains earlier, so periodic observers see a consistent horizon.
        """
        fired = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > until:
                break
            self.step()
            fired += 1
            if fired >= MAX_EVENTS:
                raise RuntimeError(
                    f"simulation exceeded {MAX_EVENTS} events — runaway loop?"
                )
        if math.isfinite(until) and until > self.now:
            self.now = until


class PeriodicTask:
    """A callback re-armed on a fixed period (e.g. PID sampling at 1 Hz).

    The first firing is one period from now.  The callback may call
    :meth:`stop` to cancel future firings.
    """

    def __init__(
        self, simulator: Simulator, period: float, callback: Callable[[], None]
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.simulator = simulator
        self.period = period
        self.callback = callback
        self._stopped = False
        self._handle = simulator.schedule(period, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._handle = self.simulator.schedule(self.period, self._fire)

    def stop(self) -> None:
        self._stopped = True
        self._handle.cancel()
