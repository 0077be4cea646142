"""Throughput calibration for the system-side figures.

Figures 4-6 compare *processing time* across schemes.  The paper ran on
2017 hardware with the authors' implementations; our implementations on
this machine have different absolute costs.  To keep the comparisons
internally consistent we measure each scheme's real throughput
(reports/second, wall clock) on a calibration slice of the actual trace,
and feed those measured service rates into the replay/queueing models.

This is a *measurement*, not an assumption: rerunning on different
hardware recalibrates everything automatically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.baselines import EvaluationGrid, TruthDiscoveryAlgorithm
from repro.core.types import Report


@dataclass(frozen=True, slots=True)
class SchemeProfile:
    """Measured cost profile of one truth-discovery scheme.

    Attributes:
        name: Scheme name.
        seconds_per_report: Marginal processing cost per report.
        fixed_seconds: Fixed cost per invocation — per poll for batch
            schemes, per stream-second (the tick: filtering/decoding all
            claims) for streaming schemes.
        streaming: Whether the scheme processes increments (True) or
            must recompute over accumulated data (False).
    """

    name: str
    seconds_per_report: float
    fixed_seconds: float
    streaming: bool

    def batch_cost(self, n_reports: int) -> float:
        """Cost of one invocation over ``n_reports``."""
        return self.fixed_seconds + self.seconds_per_report * n_reports


def calibrate(
    algorithm: TruthDiscoveryAlgorithm,
    reports: Sequence[Report],
    grid: EvaluationGrid,
    streaming: bool,
    fractions: Sequence[float] = (0.25, 0.5, 1.0),
    repeats: int = 5,
) -> SchemeProfile:
    """Measure an algorithm's (fixed, per-report) cost by linear fit.

    Times the algorithm on several prefix sizes and least-squares fits
    ``time = fixed + per_report * n`` to each size's median time.  The
    sizes are timed round-robin, ``repeats`` rounds, so a slow or fast
    spell of the machine lands on every size rather than on one, and
    the median drops the first round's warm-up.
    """
    import numpy as np

    if not reports:
        raise ValueError("calibration needs reports")
    sizes = sorted({max(1, int(len(reports) * f)) for f in fractions})
    if len(sizes) < 2:
        raise ValueError("calibration needs at least two distinct sizes")

    prefixes = [list(reports[:size]) for size in sizes]
    times = [
        [_time_once(algorithm, prefix, grid) for prefix in prefixes]
        for _ in range(repeats)
    ]
    per_report, fixed = np.polyfit(
        np.array(sizes, dtype=float), np.median(times, axis=0), 1
    )
    return SchemeProfile(
        name=algorithm.name,
        seconds_per_report=max(float(per_report), 1e-9),
        fixed_seconds=max(float(fixed), 0.0),
        streaming=streaming,
    )


def _time_once(algorithm, reports, grid) -> float:
    t0 = time.perf_counter()
    algorithm.discover(reports, grid)
    return time.perf_counter() - t0


def arrival_counts(
    trace, speed: float, duration: float
) -> list[tuple[float, int]]:
    """Per-second arrival counts for a replay at ``speed`` reports/s.

    Preserves the trace's own burstiness pattern (rescaled onto the
    stream duration) and scales the per-second counts so the total is
    ``speed * duration`` — this lets the queueing experiments sweep
    rates beyond the raw trace volume without materializing millions of
    Report objects.
    """
    import numpy as np

    if speed <= 0 or duration <= 0:
        raise ValueError("speed and duration must be > 0")
    timestamps = np.array([r.timestamp for r in trace.reports])
    if timestamps.size == 0:
        raise ValueError("trace has no reports")
    span = max(timestamps.max() - timestamps.min(), 1e-9)
    rescaled = (timestamps - timestamps.min()) / span * duration
    n_bins = max(1, int(duration))
    counts, _ = np.histogram(rescaled, bins=n_bins, range=(0.0, duration))
    target = speed * duration
    scaled = counts.astype(float) * (target / counts.sum())
    result = []
    carry = 0.0
    for second, value in enumerate(scaled):
        carry += value
        emit = int(carry)
        carry -= emit
        result.append((float(second + 1), emit))
    return result


def fit_streaming_profile(
    name: str,
    measurements: Sequence[tuple[int, float, float]],
) -> SchemeProfile:
    """Solve (fixed per-second, per-report) costs from two runs.

    ``measurements`` holds ``(n_reports, n_seconds, elapsed_seconds)``
    for two runs at different rates over the same wall duration.
    """
    (n1, s1, e1), (n2, s2, e2) = measurements[0], measurements[-1]
    if n1 == n2:
        raise ValueError("need two runs at different rates")
    per_report = max((e2 - e1) / (n2 - n1), 1e-9)
    fixed = max((e1 - per_report * n1) / max(s1, 1.0), 0.0)
    return SchemeProfile(
        name=name,
        seconds_per_report=per_report,
        fixed_seconds=fixed,
        streaming=True,
    )


def queue_completion_time(
    arrivals: Sequence[tuple[float, int]],
    profile: SchemeProfile,
    chunk_seconds: float = 5.0,
) -> float:
    """Total running time of a single-server scheme fed by a stream.

    ``arrivals`` is a list of ``(arrival_time, n_reports)`` batches (one
    per stream second).  Batch schemes poll every ``chunk_seconds`` and
    recompute over ALL data received so far (they are batch precisely
    because source-reliability estimation needs the accumulated
    history); streaming schemes process each increment as it arrives.
    Service is single-server FIFO: work queues up when the scheme is
    slower than the stream.

    Returns the completion time of the last piece of work — the paper's
    "total running time" for a 100 s stream (Figure 5).
    """
    server_free = 0.0
    total_seen = 0
    if profile.streaming:
        # One tick per stream second: fixed decode cost plus the
        # marginal cost of that second's arrivals.
        for arrival_time, n_reports in arrivals:
            start = max(arrival_time, server_free)
            server_free = start + profile.batch_cost(n_reports)
        return server_free

    pending = 0
    next_poll = chunk_seconds
    last_arrival = 0.0
    for arrival_time, n_reports in arrivals:
        pending += n_reports
        last_arrival = max(last_arrival, arrival_time)
        while next_poll <= arrival_time:
            if pending > 0:
                total_seen += pending
                pending = 0
                start = max(next_poll, server_free)
                server_free = start + profile.batch_cost(total_seen)
            next_poll += chunk_seconds
    if pending > 0:
        total_seen += pending
        start = max(next_poll, server_free, last_arrival)
        server_free = start + profile.batch_cost(total_seen)
    return server_free
