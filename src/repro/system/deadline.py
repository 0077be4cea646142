"""Deadline bookkeeping: per-interval hit/miss statistics (Figure 6).

The paper's controllability experiment divides each trace into 100 equal
time intervals, records the execution time to process each interval, and
reports the *hit rate* — the fraction of intervals whose execution time
stayed within the deadline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

__all__ = [
    "DeadlineTracker",
    "IntervalRecord",
    "hit_rate_curve",
]


@dataclass(frozen=True, slots=True)
class IntervalRecord:
    """Outcome of processing one time interval.

    ``n_deferred`` / ``n_shed`` count the admission controller's
    decisions for the interval (always 0 without a feedback loop).
    """

    index: int
    n_reports: int
    execution_time: float
    deadline: float
    n_deferred: int = 0
    n_shed: int = 0

    @property
    def hit(self) -> bool:
        return self.execution_time <= self.deadline


@dataclass
class DeadlineTracker:
    """Accumulates interval outcomes and summarizes them."""

    deadline: float
    records: list[IntervalRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")

    def record(
        self,
        index: int,
        n_reports: int,
        execution_time: float,
        n_deferred: int = 0,
        n_shed: int = 0,
    ) -> IntervalRecord:
        if execution_time < 0:
            raise ValueError("execution_time must be >= 0")
        entry = IntervalRecord(
            index=index,
            n_reports=n_reports,
            execution_time=execution_time,
            deadline=self.deadline,
            n_deferred=n_deferred,
            n_shed=n_shed,
        )
        self.records.append(entry)
        return entry

    @property
    def total_deferred(self) -> int:
        return sum(r.n_deferred for r in self.records)

    @property
    def total_shed(self) -> int:
        return sum(r.n_shed for r in self.records)

    @property
    def hit_rate(self) -> float:
        """Fraction of intervals that met the deadline (0.0 when empty)."""
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.hit) / len(self.records)

    @property
    def mean_execution_time(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.execution_time for r in self.records) / len(self.records)


def hit_rate_curve(
    execution_times: Sequence[float], deadlines: Sequence[float]
) -> list[tuple[float, float]]:
    """Hit rate of fixed execution times under a sweep of deadlines.

    Used to regenerate Figure 6's x-axis sweep from one set of measured
    per-interval execution times.
    """
    curve = []
    for deadline in deadlines:
        if deadline <= 0:
            raise ValueError("deadlines must be > 0")
        hits = sum(1 for t in execution_times if t <= deadline)
        rate = hits / len(execution_times) if execution_times else 0.0
        curve.append((float(deadline), rate))
    return curve
