"""Pure arithmetic of the benchmark: per-op floors and span self times.

Nothing here imports ``repro`` or reads a clock, so the harness tests
can drive every function with hand-made tables.

Interference on the benchmark box is additive and bursty (a neighbour
slows a stretch of seconds by up to 1.5x, nothing ever makes an op
faster), and every pass replays identical work.  The minimum of an op's
duration over the passes is therefore its interference-free cost, and
every time metric is rebuilt from those per-op floors.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence

__all__ = [
    "Span",
    "TimeMetrics",
    "inclusive_by_name",
    "op_floors",
    "remainder_floor",
    "self_by_name",
    "self_times",
    "tail_mean",
    "time_metrics",
]


def op_floors(pass_ops: Sequence[Sequence[float]]) -> list[float]:
    """Per-op minimum duration over the passes (same op sequence each)."""
    if not pass_ops:
        raise ValueError("need at least one pass")
    n_ops = len(pass_ops[0])
    if n_ops == 0 or any(len(ops) != n_ops for ops in pass_ops):
        raise ValueError("every pass must time the same non-empty op sequence")
    return [min(column) for column in zip(*pass_ops)]


def remainder_floor(
    pass_walls: Sequence[float], pass_ops: Sequence[Sequence[float]]
) -> float:
    """Floor of what a pass spends outside its ops (spawn, slicing, merge)."""
    if len(pass_walls) != len(pass_ops):
        raise ValueError("one wall time per pass")
    return max(
        0.0, min(wall - sum(ops) for wall, ops in zip(pass_walls, pass_ops))
    )


def tail_mean(values: Sequence[float], share: float = 0.1) -> float:
    """Mean of the slowest ``share`` of ``values`` (at least one value).

    A point percentile sits on a cliff when the distribution is bimodal
    (0.5 ms filter ticks vs 0.2 s retrain ticks); the mean over the whole
    slow tenth moves smoothly when one op crosses the cliff.
    """
    if not values:
        raise ValueError("tail_mean of no values")
    count = max(1, int(len(values) * share))
    return statistics.fmean(sorted(values)[-count:])


class TimeMetrics(NamedTuple):
    wall_s: float
    op_p50_s: float
    op_tail_s: float


def time_metrics(
    pass_walls: Sequence[float], pass_ops: Sequence[Sequence[float]]
) -> TimeMetrics:
    """The three end-to-end time metrics, rebuilt from per-op floors."""
    floors = op_floors(pass_ops)
    return TimeMetrics(
        wall_s=sum(floors) + remainder_floor(pass_walls, pass_ops),
        op_p50_s=statistics.median(floors),
        op_tail_s=tail_mean(floors),
    )


class Span(NamedTuple):
    """One boundary crossing; ``parent`` indexes the causing span."""

    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Children never overlap (one thread records), so the self times of a
    tree sum to its root's duration.
    """
    selfs = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            selfs[span.parent] -= span.duration
    return selfs


def self_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def inclusive_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Inclusive time per name; a span nested in its own name counts once."""
    totals: dict[str, float] = {}
    for span in spans:
        ancestor = span.parent
        while ancestor is not None and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor is None:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
    return totals
