"""Aggregated Contribution Score (ACS) sequences (paper Section III-B).

The SSTD HMM does not observe individual reports; it observes, per claim
and per time instant, the *Aggregated Contribution Score*:

    ACS_u^t = sum of CS_{i,u}^t' for t' in (t - sw, t]        (Eq. (4))

i.e. the sum of contribution scores of the claim's reports inside a
sliding window of length ``sw`` ending at ``t``.  The window length is
chosen from the expected change frequency of the monitored event (a
football score flips faster than a disaster casualty count).

Two refinements over the literal Eq. (4), both switchable:

- ``normalize=True`` divides the sum by the number of reports in the
  window, making the observation scale-invariant to traffic volume (raw
  sums conflate "how many people tweeted" with "what they said", which
  misleads an unsupervised Gaussian HMM during volume bursts);
- windows containing *no* reports yield ``NaN`` ("missing") instead of a
  hard 0 when ``empty_is_missing=True``, so the decoder bridges silent
  periods with its transition model rather than treating silence as
  evidence.

This module turns a claim's report stream into the observation sequence
``F(u) = (ACS_u^1 .. ACS_u^T)`` sampled on a regular grid, both in batch
form (:func:`acs_sequence`) and incrementally for streaming use
(:class:`SlidingWindowACS`).
"""

from __future__ import annotations

import bisect
import collections
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.scores import FULL_WEIGHTS, ScoreWeights
from repro.core.types import Report

__all__ = [
    "ACSConfig",
    "SlidingWindowACS",
    "acs_at",
    "acs_sequence",
]


@dataclass(frozen=True, slots=True)
class ACSConfig:
    """Configuration of the ACS observation grid.

    Attributes:
        window: Sliding-window length ``sw`` in seconds.
        step: Spacing of the observation grid in seconds (one ACS value
            is emitted every ``step`` seconds).
        weights: Contribution-score component toggles (ablations).
        normalize: Divide each window sum by its report count.
        empty_is_missing: Emit NaN for windows with no reports.
    """

    window: float = 300.0
    step: float = 60.0
    weights: ScoreWeights = FULL_WEIGHTS
    normalize: bool = True
    empty_is_missing: bool = True

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window}")
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")

    def grid(self, start: float, end: float) -> np.ndarray:
        """Observation timestamps covering ``[start, end]``.

        The grid starts one step after ``start`` (a window needs some
        data behind it) and always contains at least one point.
        """
        if end < start:
            raise ValueError(f"end {end} before start {start}")
        count = max(1, int(math.ceil((end - start) / self.step)))
        return start + self.step * np.arange(1, count + 1)

    def finalize(self, total: float, count: int) -> float:
        """Map a window's (sum, count) to the observation value."""
        if count == 0:
            return math.nan if self.empty_is_missing else 0.0
        return total / count if self.normalize else total


def acs_at(
    reports: Sequence[Report],
    timestamps: Sequence[float],
    at: float,
    config: ACSConfig,
) -> float:
    """ACS of a claim at a single time ``at``.

    ``reports`` must be sorted by timestamp and ``timestamps`` must be
    the matching array of report timestamps (kept separate so the bisect
    can run on a plain float list).
    """
    lo = bisect.bisect_right(timestamps, at - config.window)
    hi = bisect.bisect_right(timestamps, at)
    total = sum(config.weights.score(reports[k]) for k in range(lo, hi))
    return config.finalize(total, hi - lo)


def acs_sequence(
    reports: Iterable[Report],
    config: ACSConfig,
    start: float | None = None,
    end: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch ACS observation sequence for one claim.

    Args:
        reports: The claim's reports, in any order.
        config: Grid and window configuration.
        start: Start of the observation span (defaults to the first
            report's timestamp).
        end: End of the span (defaults to the last report's timestamp).

    Returns:
        ``(times, values)``: the observation grid and the ACS at each
        grid point (NaN marks empty windows when configured).  Both
        arrays are empty when there are no reports and no explicit span.
    """
    ordered = sorted(reports, key=lambda report: report.timestamp)
    if not ordered and (start is None or end is None):
        return np.array([]), np.array([])
    if start is None:
        start = ordered[0].timestamp
    if end is None:
        end = ordered[-1].timestamp
    grid = config.grid(start, end)
    timestamps = np.array([report.timestamp for report in ordered])
    scores = np.array([config.weights.score(report) for report in ordered])
    prefix = np.concatenate([[0.0], np.cumsum(scores)])

    lo = np.searchsorted(timestamps, grid - config.window, side="right")
    hi = np.searchsorted(timestamps, grid, side="right")
    values = prefix[hi] - prefix[lo]
    counts = hi - lo
    empty = counts == 0
    # Elementwise ACSConfig.finalize over the whole grid.
    if config.normalize:
        values /= np.where(empty, 1, counts)
    values[empty] = math.nan if config.empty_is_missing else 0.0
    return grid, values


class SlidingWindowACS:
    """Incremental ACS for streaming truth discovery.

    Reports are pushed in timestamp order; :meth:`value_at` evicts
    reports that have slid out of the window and returns the current ACS
    in O(1) amortized time per report.

    Example:
        >>> from repro.core.types import Report, Attitude
        >>> acc = SlidingWindowACS(window=10.0, normalize=False)
        >>> acc.push(Report("s1", "c1", 1.0, Attitude.AGREE))
        >>> acc.value_at(5.0)
        1.0
    """

    def __init__(
        self,
        window: float,
        weights: ScoreWeights = FULL_WEIGHTS,
        normalize: bool = True,
        empty_is_missing: bool = True,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = window
        self.weights = weights
        self.normalize = normalize
        self.empty_is_missing = empty_is_missing
        self._queue: collections.deque[tuple[float, float]] = collections.deque()
        self._total = 0.0
        self._last_push = -math.inf

    def push(self, report: Report) -> None:
        """Add one report; reports must arrive in non-decreasing time."""
        if report.timestamp < self._last_push:
            raise ValueError(
                f"out-of-order report at t={report.timestamp} "
                f"(last push was t={self._last_push})"
            )
        self._last_push = report.timestamp
        score = self.weights.score(report)
        self._queue.append((report.timestamp, score))
        self._total += score

    def value_at(self, at: float) -> float:
        """ACS over the window ``(at - window, at]``.

        Evicts expired reports; queries, like pushes, move forward in
        time.  Returns NaN for an empty window when configured.
        """
        cutoff = at - self.window
        while self._queue and self._queue[0][0] <= cutoff:
            _, score = self._queue.popleft()
            self._total -= score
        # Reports newer than `at` have not "happened yet" for this query;
        # exclude them without evicting.
        pending_total = 0.0
        pending_count = 0
        for ts, score in reversed(self._queue):
            if ts <= at:
                break
            pending_total += score
            pending_count += 1
        total = self._total - pending_total
        count = len(self._queue) - pending_count
        if count == 0:
            return math.nan if self.empty_is_missing else 0.0
        return total / count if self.normalize else total

    def __len__(self) -> int:
        return len(self._queue)
