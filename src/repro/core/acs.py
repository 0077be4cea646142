"""Aggregated Contribution Score (ACS) sequences (paper Section III-B).

The SSTD HMM does not observe individual reports; it observes, per claim
and per time instant, the *Aggregated Contribution Score*:

    ACS_u^t = sum of CS_{i,u}^t' for t' in (t - sw, t]        (Eq. (4))

i.e. the sum of contribution scores of the claim's reports inside a
sliding window of length ``sw`` ending at ``t``.  The window length is
chosen from the expected change frequency of the monitored event (a
football score flips faster than a disaster casualty count).

Two refinements over the literal Eq. (4), both fixed:

- the sum is divided by the number of reports in the window, making the
  observation scale-invariant to traffic volume (raw sums conflate "how
  many people tweeted" with "what they said", which misleads an
  unsupervised Gaussian HMM during volume bursts);
- a window containing *no* reports yields ``NaN`` ("missing") instead of
  a hard 0, so the decoder bridges silent periods with its transition
  model rather than treating silence as evidence.

This module turns a claim's report stream into the observation sequence
``F(u) = (ACS_u^1 .. ACS_u^T)`` sampled on a regular grid, both in batch
form (:func:`acs_sequence`) and one grid point at a time for every
streaming claim at once (:class:`SlidingWindowACS`).  Batch callers build one
:class:`ReportTable` (claim, time and score columns, grouped by claim)
and hand :func:`acs_sequence` one claim's :class:`ClaimRows` at a time.
The table is built from the reports' columns
(:mod:`repro.core.columns`): a trace's reports carry them, so a pass
over a trace reads no :class:`Report` object, and any other report
iterable is read into columns on every call.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.core.columns import report_columns
from repro.core.scores import FULL_WEIGHTS, ScoreWeights
from repro.core.types import Report

__all__ = [
    "ACSConfig",
    "ClaimRows",
    "ReportTable",
    "SlidingWindowACS",
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
    """

    window: float = 300.0
    step: float = 60.0
    weights: ScoreWeights = FULL_WEIGHTS

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
        return start + self.grid_offsets(start, end)

    def grid_offsets(self, start: float, end: float) -> np.ndarray:
        """:meth:`grid` relative to ``start``: ``k * step`` for ``k >= 1``."""
        if end < start:
            raise ValueError(f"end {end} before start {start}")
        count = max(1, int(math.ceil((end - start) / self.step)))
        return self.step * np.arange(1, count + 1)


@dataclass(frozen=True, slots=True, eq=False)
class ClaimRows:
    """One claim's reports as time-ordered columns.

    ``times`` and ``scores`` are float64 arrays of equal length, sorted
    by time with ties in input order, and ``weights`` are the toggles
    the scores were computed under.  Rows taken from a
    :class:`ReportTable` are views into its columns.
    """

    times: np.ndarray
    scores: np.ndarray
    weights: ScoreWeights

    @classmethod
    def from_reports(
        cls, reports: Iterable[Report], weights: ScoreWeights = FULL_WEIGHTS
    ) -> ClaimRows:
        """Columns of ``reports`` taken as one claim's, whatever their ids."""
        columns = report_columns(reports)
        order = np.argsort(columns.times, kind="stable")
        return cls(
            columns.times[order], weights.score_column(columns)[order], weights
        )

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True, eq=False)
class ReportTable:
    """Reports read once into columns, grouped by claim and ordered by time.

    Row ``i`` is one report: ``claim_index[i]`` indexes the sorted
    ``claim_ids``, ``times[i]`` is its timestamp and ``scores[i]`` its
    contribution score under ``weights``.  Rows are sorted by claim,
    then by time; reports with equal timestamps keep their input order.
    Claim ``k`` owns rows ``offsets[k]:offsets[k + 1]``.
    """

    claim_ids: tuple[str, ...]
    claim_index: np.ndarray
    times: np.ndarray
    scores: np.ndarray
    offsets: np.ndarray
    weights: ScoreWeights

    @classmethod
    def from_reports(
        cls, reports: Iterable[Report], weights: ScoreWeights = FULL_WEIGHTS
    ) -> ReportTable:
        """Read ``reports`` (any iterable, consumed once) into a table.

        A :class:`~repro.core.columns.Reports` (a trace's reports) gives
        the columns it carries, so no report object is read; any other
        iterable is read by :meth:`~repro.core.columns.ReportColumns.of`.
        """
        columns = report_columns(reports)
        claim_ids = columns.claim_ids
        claim_index = columns.claim_index
        times = columns.times
        scores = weights.score_column(columns)
        # By claim, then by time; lexsort is stable, so equal timestamps
        # keep their input order.
        order = np.lexsort((times, claim_index))
        claim_index = claim_index[order]
        offsets = np.zeros(len(claim_ids) + 1, dtype=np.intp)
        np.cumsum(
            np.bincount(claim_index, minlength=len(claim_ids)), out=offsets[1:]
        )
        return cls(
            claim_ids=claim_ids,
            claim_index=claim_index,
            times=times[order],
            scores=scores[order],
            offsets=offsets,
            weights=weights,
        )

    def __len__(self) -> int:
        return self.times.size

    def rows(self, claim_id: str) -> ClaimRows:
        """The rows of ``claim_id``.

        Raises:
            KeyError: When the table has no such claim.
        """
        k = bisect.bisect_left(self.claim_ids, claim_id)
        if k == len(self.claim_ids) or self.claim_ids[k] != claim_id:
            raise KeyError(claim_id)
        return self._rows(k)

    def by_claim(self) -> Iterator[tuple[str, ClaimRows]]:
        """``(claim_id, rows)`` of every claim, in claim-id order."""
        for k, claim_id in enumerate(self.claim_ids):
            yield claim_id, self._rows(k)

    def _rows(self, k: int) -> ClaimRows:
        rows = slice(self.offsets[k], self.offsets[k + 1])
        return ClaimRows(self.times[rows], self.scores[rows], self.weights)


def acs_sequence(
    reports: Iterable[Report] | ClaimRows,
    config: ACSConfig,
    start: float | None = None,
    end: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch ACS observation sequence for one claim.

    Args:
        reports: The claim's rows (a :class:`ClaimRows`, e.g. from
            :meth:`ReportTable.rows`), or its reports in any order.
        config: Grid and window configuration.
        start: Start of the observation span (defaults to the first
            report's timestamp).
        end: End of the span (defaults to the last report's timestamp).

    Returns:
        ``(times, values)``: the observation grid and the mean
        contribution score of each grid point's window (NaN marks an
        empty window).  Both
        arrays are empty when there are no reports and no explicit span.
    """
    if isinstance(reports, ClaimRows):
        rows = reports
        if rows.weights != config.weights:
            raise ValueError(
                f"rows were scored with {rows.weights}, config has "
                f"{config.weights}"
            )
    else:
        rows = ClaimRows.from_reports(reports, config.weights)
    if not len(rows) and (start is None or end is None):
        return np.array([]), np.array([])
    if start is None:
        start = float(rows.times[0])
    if end is None:
        end = float(rows.times[-1])
    edges = config.grid_offsets(start, end)
    prefix = np.concatenate([[0.0], np.cumsum(rows.scores)])
    # Window k is (k*step - window, k*step] in offsets from ``start``.
    # Comparing absolute times against ``start + k*step - window`` would
    # round that edge to either side of a report sitting on it (with
    # ``window`` a multiple of ``step``, the first report does) depending
    # on ``start`` alone.
    offsets = rows.times - start
    lo = np.searchsorted(offsets, edges - config.window, side="right")
    hi = np.searchsorted(offsets, edges, side="right")
    values = prefix[hi] - prefix[lo]
    counts = hi - lo
    empty = counts == 0
    values /= np.where(empty, 1, counts)
    values[empty] = math.nan
    return start + edges, values


class SlidingWindowACS:
    """Every streaming claim's ACS window, held as one stack of report rows.

    Row ``i`` is one report: the ``slot`` (a dense claim index the caller
    assigns), the timestamp and the contribution score.  :meth:`push`
    appends a batch of rows; :meth:`value_at` returns every slot's ACS
    over ``(at - window, at]`` from two ``np.bincount`` calls, each
    window's scores summed in push order.  Rows need no time order: a
    row counts at ``at`` exactly when ``at - window < t <= at``, so a
    late report inside the window counts and one stamped after ``at``
    waits.  Queries move forward in time, so :meth:`value_at` drops the
    rows at or before ``at - window``: no later window holds them.

    Example:
        >>> import numpy as np
        >>> acs = SlidingWindowACS(window=10.0)
        >>> acs.push(np.array([0, 1]), np.array([1.0, 2.0]), np.array([1, -0.5]))
        >>> acs.value_at(5.0, n_slots=3).tolist()
        [1.0, -0.5, nan]
    """

    def __init__(self, window: float) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = window
        self._slots = np.empty(0, dtype=np.intp)
        self._times = np.empty(0)
        self._scores = np.empty(0)

    def push(
        self, slots: np.ndarray, times: np.ndarray, scores: np.ndarray
    ) -> None:
        """Append rows: slot ``slots[i]``'s report at ``times[i]``, scoring
        ``scores[i]``."""
        self._slots = np.concatenate((self._slots, slots))
        self._times = np.concatenate((self._times, times))
        self._scores = np.concatenate((self._scores, scores))

    def value_at(self, at: float, n_slots: int) -> np.ndarray:
        """ACS of slots ``0 .. n_slots - 1`` over ``(at - window, at]``.

        The mean score of each slot's rows inside the window, NaN where
        it holds none.
        """
        live = self._times > at - self.window
        if not live.all():
            self._slots = self._slots[live]
            self._times = self._times[live]
            self._scores = self._scores[live]
        slots, scores = self._slots, self._scores
        inside = self._times <= at
        if not inside.all():
            slots, scores = slots[inside], scores[inside]
        counts = np.bincount(slots, minlength=n_slots)
        totals = np.bincount(slots, weights=scores, minlength=n_slots)
        return totals / np.where(counts > 0, counts, np.nan)

    def __len__(self) -> int:
        return self._times.size
