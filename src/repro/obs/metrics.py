"""Thread-safe metric registry: counters, gauges, fixed-bucket histograms.

The registry is the shared numerical state of the observability layer:
the Work Queue master keeps queue-depth gauges here, workers count
completed tasks, the control loop records error samples, and the SSTD
engine tracks Baum-Welch convergence.  Two design constraints shape it:

- **Thread safety.**  All mutable state is guarded by one lock
  (``# guarded-by: _lock``, checked by SSTD003); reads *snapshot under
  the lock* into fresh plain containers and serialization happens
  outside it, so no guarded container escapes and nothing blocks while
  the lock is held.
- **Picklable snapshots.**  :class:`MetricsSnapshot` is a frozen
  dataclass of plain dicts/tuples, so a worker *process* can snapshot
  its local registry, ship it across the pickle boundary in a
  :class:`repro.workqueue.task.TaskResult`, and the master merges it
  with :meth:`MetricRegistry.merge`.

Histograms use fixed, explicit bucket boundaries (Prometheus-style), so
merging across processes is exact: same bounds, add the counts.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "BYTE_BUCKETS",
    "DEFAULT_BUCKETS",
    "HistogramSnapshot",
    "MetricRegistry",
    "MetricsSnapshot",
    "nearest_rank",
    "percentile",
]

#: Default histogram boundaries in seconds: spans micro-tasks (sub-ms)
#: through long drains.  Samples above the last bound land in the
#: overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

#: Histogram boundaries in bytes, for payload/result-size series
#: (``wq.payload_bytes`` / ``wq.result_bytes``): spans tiny zero-copy
#: specs (hundreds of bytes) through multi-megabyte pickled stacks.
BYTE_BUCKETS: tuple[float, ...] = (
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
)


def nearest_rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count`` samples.

    The one place the rank arithmetic lives: :func:`percentile` (exact,
    over raw samples) and :meth:`HistogramSnapshot.quantile`
    (bucket-resolution) agree on it.  ``q=0`` maps to rank
    1 (the minimum) and ``q=100`` to rank ``count`` (the maximum).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    return min(count, max(1, math.ceil(q * count / 100.0)))


def percentile(values: list[float] | tuple[float, ...], q: float) -> float:
    """Nearest-rank percentile of raw samples; 0.0 for an empty list.

    ``q`` is in [0, 100].  Nearest-rank keeps the result an actual
    sample (p50 of [1, 2, 3] is 2), which is what operators expect from
    queue-depth and latency summaries.
    """
    if not values:
        # Validate q even on the empty shortcut so callers get the same
        # contract regardless of sample count.
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        return 0.0
    ordered = sorted(values)
    return float(ordered[nearest_rank(len(ordered), q) - 1])


@dataclass(frozen=True, slots=True)
class HistogramSnapshot:
    """Immutable, picklable state of one histogram.

    ``counts`` has ``len(bounds) + 1`` entries; the last is the
    overflow bucket for samples above every bound.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    total: float
    min: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate; 0.0 when empty.

        Returns the upper bound of the bucket holding the q-th sample
        (clamped into [min, max]); overflow-bucket hits return ``max``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile q must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = nearest_rank(self.count, q)
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index >= len(self.bounds):
                    return self.max
                return min(max(self.bounds[index], self.min), self.max)
        return self.max

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Exact merge of two snapshots with identical bounds."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            count=self.count + other.count,
            total=self.total + other.total,
            min=min(self.min, other.min),
            max=max(self.max, other.max),
        )


@dataclass(frozen=True, slots=True)
class MetricsSnapshot:
    """Point-in-time copy of a registry — plain data, fully picklable."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)

    def counter(self, name: str, default: float = 0.0) -> float:
        return self.counters.get(name, default)

    def gauge(self, name: str, default: float | None = None) -> float | None:
        return self.gauges.get(name, default)

    def histogram(self, name: str) -> HistogramSnapshot | None:
        return self.histograms.get(name)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (used by exporters and the CLI)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: {
                    "bounds": list(snap.bounds),
                    "counts": list(snap.counts),
                    "count": snap.count,
                    "total": snap.total,
                    "min": snap.min,
                    "max": snap.max,
                }
                for name, snap in sorted(self.histograms.items())
            },
        }


class _HistogramState:
    """Mutable accumulator behind one histogram (lives under the lock)."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for k, bound in enumerate(self.bounds):
            if value <= bound:
                index = k
                break
        self.counts[index] += 1
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.total += value

    def absorb(self, snap: HistogramSnapshot) -> None:
        if snap.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {snap.bounds}"
            )
        if snap.count == 0:
            return
        for k, add in enumerate(snap.counts):
            self.counts[k] += add
        if self.count == 0:
            self.min, self.max = snap.min, snap.max
        else:
            self.min = min(self.min, snap.min)
            self.max = max(self.max, snap.max)
        self.count += snap.count
        self.total += snap.total

    def freeze(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(self.counts),
            count=self.count,
            total=self.total,
            min=self.min,
            max=self.max,
        )


class MetricRegistry:
    """Named counters, gauges, and histograms behind one lock.

    Metric names are plain dotted strings (``wq.queue_depth``); the
    registry creates a metric on first use, so instrumentation sites
    never need registration boilerplate.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}  # guarded-by: _lock
        self._gauges: dict[str, float] = {}  # guarded-by: _lock
        self._histograms: dict[str, _HistogramState] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        bounds: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        """Record one sample into histogram ``name``.

        ``bounds`` applies on first use; later calls reuse the existing
        boundaries (histogram bounds are immutable once created).
        """
        with self._lock:
            state = self._histograms.get(name)
            if state is None:
                state = _HistogramState(tuple(bounds))
                self._histograms[name] = state
            state.observe(value)

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker) snapshot into this registry.

        Counters and histograms add; gauges take the snapshot's value
        (last write wins — gauges are instantaneous readings).
        """
        with self._lock:
            for name, value in snapshot.counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in snapshot.gauges.items():
                self._gauges[name] = value
            for name, hist in snapshot.histograms.items():
                state = self._histograms.get(name)
                if state is None:
                    state = _HistogramState(hist.bounds)
                    self._histograms[name] = state
                state.absorb(hist)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def counter(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def gauge(self, name: str, default: float | None = None) -> float | None:
        with self._lock:
            return self._gauges.get(name, default)

    def histogram(self, name: str) -> HistogramSnapshot | None:
        """Frozen snapshot of one histogram; ``None`` if never observed.

        Cheaper than :meth:`snapshot` for control-loop consumers (the
        a controller reading ``wq.task_seconds`` every sample period)
        because only the requested series is copied under the lock.
        """
        with self._lock:
            state = self._histograms.get(name)
            return state.freeze() if state is not None else None

    def snapshot(self) -> MetricsSnapshot:
        """Consistent point-in-time copy; safe to pickle or serialize.

        Copies are taken under the lock; the (potentially slow)
        serialization of the returned snapshot happens in the caller,
        outside it.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                name: state.freeze()
                for name, state in self._histograms.items()
            }
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def merge_mapping(self, snapshots: Mapping[str, MetricsSnapshot]) -> None:
        """Merge several named snapshots (convenience for tests/tools)."""
        for snap in snapshots.values():
            self.merge(snap)
