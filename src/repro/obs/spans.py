"""Span tracer: nested timed spans and instant events on a ring buffer.

A *span* is a named interval on a *track* (one track per worker, one
per job, one for the master/control plane); an *instant* is a
zero-duration marker (worker death, retry, poison pill).  Events carry
a small attribute bag and a global sequence number, so exports are
totally ordered even when the clock is virtual and many events share a
timestamp.

The buffer is a fixed-capacity ring: a run that emits more events than
``capacity`` keeps the most recent ones and counts the drops, so
tracing can stay on in long runs without unbounded memory.  Recording
is thread-safe, so any thread may record next to the master (the
process executor itself runs on the caller's thread); cross-*process*
events are recorded on per-process tracers and stitched onto the master
timeline after a clock-offset handshake (see :mod:`repro.obs.stitch`
and :mod:`repro.workqueue.process`).
"""

from __future__ import annotations

import collections
import contextlib
import threading
from dataclasses import dataclass
from typing import Iterator

from repro.obs.clock import Clock

__all__ = [
    "SpanEvent",
    "SpanTracer",
]

#: Event kinds: a timed interval or a point-in-time marker.
_KINDS = ("span", "instant")


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """One recorded event.

    Attributes:
        name: Event name, dotted (``wq.task``, ``worker.death``).
        kind: ``"span"`` (timed interval) or ``"instant"`` (marker).
        start: Start time in clock seconds.
        end: End time; equals ``start`` for instants.
        track: Display track — worker name, ``job:<id>``, ``master``...
        seq: Global sequence number (total order of recording).
        attrs: Sorted ``(key, value)`` pairs; values must be
            JSON-serializable scalars/strings for export.
    """

    name: str
    kind: str
    start: float
    end: float
    track: str
    seq: int
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def attr_dict(self) -> dict[str, object]:
        return dict(self.attrs)

    def as_dict(self) -> dict[str, object]:
        """JSONL-ready representation."""
        return {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "track": self.track,
            "seq": self.seq,
            "attrs": self.attr_dict(),
        }


def _freeze_attrs(attrs: dict[str, object]) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(attrs.items()))


class SpanTracer:
    """Records :class:`SpanEvent` records against one :class:`Clock`."""

    def __init__(self, clock: Clock, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.clock = clock
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: collections.deque = collections.deque(  # guarded-by: _lock
            maxlen=capacity
        )
        self._seq = 0  # guarded-by: _lock
        self._dropped = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        track: str = "main",
        **attrs: object,
    ) -> None:
        """Record a completed interval with explicit timestamps.

        This is the entry point for the Work Queue task pool, which
        learns a task's ``started_at``/``finished_at`` from its result
        record rather than bracketing the work itself.
        """
        if end < start:
            raise ValueError(f"span {name!r} ends ({end}) before it starts ({start})")
        self._append(name, "span", start, end, track, attrs)

    def instant(self, name: str, track: str = "main", **attrs: object) -> None:
        """Record a point-in-time marker at the clock's current time."""
        now = self.clock.now()
        self._append(name, "instant", now, now, track, attrs)

    def record_instant(
        self, name: str, at: float, track: str = "main", **attrs: object
    ) -> None:
        """Record a marker with an explicit timestamp.

        The entry point for cross-process stitching: a worker instant
        rebased onto this tracer's clockline is re-recorded here, with
        its original time preserved and a fresh sequence number.
        """
        self._append(name, "instant", at, at, track, attrs)

    @contextlib.contextmanager
    def span(
        self, name: str, track: str = "main", **attrs: object
    ) -> Iterator[None]:
        """Context manager timing the enclosed block on this clock."""
        start = self.clock.now()
        try:
            yield
        finally:
            self._append(name, "span", start, self.clock.now(), track, attrs)

    def _append(
        self,
        name: str,
        kind: str,
        start: float,
        end: float,
        track: str,
        attrs: dict[str, object],
    ) -> None:
        frozen = _freeze_attrs(attrs)
        with self._lock:
            seq = self._seq
            self._seq += 1
            if len(self._events) == self.capacity:
                self._dropped += 1
            self._events.append(
                SpanEvent(
                    name=name,
                    kind=kind,
                    start=start,
                    end=end,
                    track=track,
                    seq=seq,
                    attrs=frozen,
                )
            )

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def events(self) -> list[SpanEvent]:
        """Snapshot of buffered events in recording order."""
        with self._lock:
            return list(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer so far."""
        with self._lock:
            return self._dropped

    @property
    def recorded(self) -> int:
        """Total events ever recorded (including evicted ones)."""
        with self._lock:
            return self._seq

    def clear(self) -> None:
        """Drop buffered events (sequence numbers keep counting up)."""
        with self._lock:
            self._events.clear()
            self._dropped = 0
