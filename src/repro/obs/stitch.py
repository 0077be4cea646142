"""Cross-process span stitching: one timeline from many clocks.

Worker *processes* record spans against their own ``WallClock``
(``time.perf_counter`` — monotonic seconds from an arbitrary, per-process
epoch), so their raw timestamps are meaningless on the master's
timeline.  This module carries the clock-domain translation:

- **Handshake.**  At spawn the master performs an NTP-style exchange
  with each worker: it sends its own time ``t0`` down the worker's
  pipe, the worker replies with its local reading ``w1``, and the
  master stamps ``t1`` on receipt.  The worker's reading happened at
  some master time inside ``[t0, t1]``, which bounds the clock offset
  ``theta = worker_clock - master_clock`` to ``[w1 - t1, w1 - t0]``.

- **Rebase.**  :meth:`ClockSync.rebase` maps a worker timestamp onto the
  master clockline.  It deliberately uses the *lower* offset bound
  (``w1 - t1``) rather than the midpoint estimate: the midpoint halves
  the expected error but can shift a worker event *earlier* than the
  master event that caused it, breaking happens-before in the merged
  timeline.  The lower bound can only shift worker events later (by at
  most the round trip), so a rebased worker span always starts at or
  after the master's dispatch instant — causality reads correctly in
  Perfetto, at the cost of a small, bounded late bias reported as
  :attr:`ClockSync.uncertainty`.

- **Stitch quality.**  Each sync carries the midpoint ``offset``, the
  round-trip ``uncertainty`` (half the RTT), and the count of spans the
  worker's ring buffer dropped; exporters embed all three so a merged
  timeline is never silently lossy or silently skewed.

On Linux with the ``fork`` start method both processes read the same
``CLOCK_MONOTONIC``, so the true offset is ~0 and the handshake merely
certifies it; the protocol exists so the ``spawn`` method (fresh epoch)
and future remote workers stitch identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping

from repro.obs.spans import SpanEvent

__all__ = [
    "ClockSync",
    "rebase_events",
    "stitch_metadata",
]


@dataclass(frozen=True, slots=True)
class ClockSync:
    """Result of one master↔worker clock-offset handshake.

    Attributes:
        worker: Worker name the sync belongs to (one sync per spawn).
        master_sent: Master clock when the probe entered the pipe (t0).
        worker_reply: Worker clock when it answered the probe (w1).
        master_received: Master clock when the reply surfaced (t1).
        dropped_spans: Spans evicted by the worker's ring buffer across
            the worker's lifetime (filled in as results arrive).
    """

    worker: str
    master_sent: float
    worker_reply: float
    master_received: float
    dropped_spans: int = 0

    def __post_init__(self) -> None:
        if self.master_received < self.master_sent:
            raise ValueError(
                f"handshake reply for {self.worker!r} arrived "
                f"({self.master_received}) before it was sent "
                f"({self.master_sent})"
            )

    @property
    def rtt(self) -> float:
        """Round-trip time of the handshake exchange in seconds."""
        return self.master_received - self.master_sent

    @property
    def offset(self) -> float:
        """Midpoint estimate of ``worker_clock - master_clock``."""
        return self.worker_reply - (self.master_sent + self.master_received) / 2.0

    @property
    def uncertainty(self) -> float:
        """Half the round trip: the offset estimate's error bound."""
        return self.rtt / 2.0

    @property
    def rebase_offset(self) -> float:
        """The causality-safe offset bound actually subtracted on rebase.

        ``w1 - t1`` is the smallest offset consistent with the exchange,
        so subtracting it can only move worker events *later* on the
        master timeline — never before the dispatch that caused them.
        """
        return self.worker_reply - self.master_received

    def rebase(self, worker_time: float) -> float:
        """Map a worker-clock timestamp onto the master clockline."""
        return worker_time - self.rebase_offset

    def as_dict(self) -> dict[str, object]:
        """JSON-ready stitch-quality record for trace metadata."""
        return {
            "offset": self.offset,
            "rtt": self.rtt,
            "uncertainty": self.uncertainty,
            "rebase_offset": self.rebase_offset,
            "dropped_spans": self.dropped_spans,
        }


def rebase_events(
    events: Iterable[SpanEvent],
    sync: ClockSync,
) -> Iterator[SpanEvent]:
    """Rebase worker-recorded events onto the master clockline.

    Timestamps are shifted by :attr:`ClockSync.rebase_offset`; tracks
    are rewritten so every event lands on the worker's own timeline row
    (``main`` — the worker-local default — becomes the worker name,
    anything else is prefixed with it).  Sequence numbers are left
    untouched; the caller re-records through the master tracer, which
    assigns fresh ones.
    """
    for event in events:
        track = (
            sync.worker
            if event.track == "main"
            else f"{sync.worker}/{event.track}"
        )
        yield replace(
            event,
            start=sync.rebase(event.start),
            end=sync.rebase(event.end),
            track=track,
        )


def stitch_metadata(
    syncs: Mapping[str, ClockSync],
) -> dict[str, dict[str, object]]:
    """Per-worker stitch-quality block for Chrome-trace ``otherData``."""
    return {name: syncs[name].as_dict() for name in sorted(syncs)}
