"""Plain-text rendering of truth-discovery outputs.

Terminal-friendly visualizations with zero plotting dependencies:
truth-timeline strips, ACS sparklines, hit-rate curves, and histogram
bars.  The CLI and examples use these to make runs legible; benchmarks
keep their own tabular formats.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.types import TruthEstimate, TruthTimeline, TruthValue

__all__ = [
    "bar_chart",
    "estimate_strip",
    "hit_rate_table",
    "side_by_side",
    "sparkline",
    "timeline_strip",
    "truth_strip",
]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"

#: Cells of a truth strip.
STRIP_WIDTH = 60
#: Cells of the longest bar of a bar chart.
BAR_WIDTH = 40


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of a numeric series; NaN renders as a space.

    Example:
        >>> sparkline([0.0, 0.5, 1.0])
        '▁▄█'
    """
    cleaned = [v for v in values if not math.isnan(v)]
    if not cleaned:
        return " " * len(values)
    lo, hi = min(cleaned), max(cleaned)
    span = hi - lo
    chars = []
    for value in values:
        if math.isnan(value):
            chars.append(" ")
        elif span < 1e-12:
            chars.append(_SPARK_LEVELS[3])
        else:
            index = int((value - lo) / span * (len(_SPARK_LEVELS) - 1))
            chars.append(_SPARK_LEVELS[index])
    return "".join(chars)


def truth_strip(values: Sequence[TruthValue]) -> str:
    """Compact strip of a truth sequence: '█' = TRUE, '·' = FALSE.

    Example:
        >>> truth_strip([TruthValue.FALSE, TruthValue.TRUE])
        '·█'
    """
    return "".join(
        "█" if value is TruthValue.TRUE else "·" for value in values
    )


def estimate_strip(estimates: Sequence[TruthEstimate]) -> str:
    """Truth strip of a (time-ordered) estimate series."""
    ordered = sorted(estimates, key=lambda e: e.timestamp)
    return truth_strip([e.value for e in ordered])


def timeline_strip(timeline: TruthTimeline, start: float, end: float) -> str:
    """Ground-truth strip sampled on a uniform grid over ``[start, end]``."""
    if end <= start:
        raise ValueError("end must be > start")
    values = [
        timeline.value_at(start + (end - start) * (k + 0.5) / STRIP_WIDTH)
        for k in range(STRIP_WIDTH)
    ]
    return truth_strip(values)


def side_by_side(
    estimates: Sequence[TruthEstimate], timeline: TruthTimeline
) -> str:
    """Two labelled strips: estimated vs ground truth, time-aligned."""
    ordered = sorted(estimates, key=lambda e: e.timestamp)
    if not ordered:
        raise ValueError("need at least one estimate")
    start, end = ordered[0].timestamp, ordered[-1].timestamp
    if end <= start:
        end = start + 1.0
    # Sample estimates on the same grid (carry latest forward).
    sampled: list[TruthValue] = []
    cursor = 0
    current = ordered[0].value
    for k in range(STRIP_WIDTH):
        t = start + (end - start) * (k + 0.5) / STRIP_WIDTH
        while cursor < len(ordered) and ordered[cursor].timestamp <= t:
            current = ordered[cursor].value
            cursor += 1
        sampled.append(current)
    return (
        f"estimate {truth_strip(sampled)}\n"
        f"truth    {timeline_strip(timeline, start, end)}"
    )


def bar_chart(rows: Mapping[str, float]) -> str:
    """Horizontal ASCII bars, scaled to the max value.

    Example:
        >>> print(bar_chart({"a": 2.0, "b": 0.5}))
        a ████████████████████████████████████████ 2
        b ██████████                               0.5
    """
    if not rows:
        return ""
    label_width = max(len(label) for label in rows)
    peak = max(rows.values())
    lines = []
    for label, value in rows.items():
        if value < 0:
            raise ValueError("bar_chart values must be >= 0")
        filled = 0 if peak <= 0 else round(value / peak * BAR_WIDTH)
        bar = "█" * filled + " " * (BAR_WIDTH - filled)
        lines.append(f"{label:<{label_width}} {bar} {value:g}")
    return "\n".join(lines)


def hit_rate_table(
    curves: Mapping[str, Sequence[float]],
    deadlines: Sequence[float],
) -> str:
    """Figure-6-style hit-rate table with inline bars."""
    lines = [
        f"{'deadline':>10} " + " ".join(f"{name:>12}" for name in curves)
    ]
    for k, deadline in enumerate(deadlines):
        cells = []
        for name in curves:
            rate = curves[name][k]
            if not 0.0 <= rate <= 1.0:
                raise ValueError("hit rates must be in [0, 1]")
            cells.append(f"{rate:>11.0%} ")
        lines.append(f"{deadline:>9.3g}s " + " ".join(cells))
    return "\n".join(lines)
