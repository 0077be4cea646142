"""Source reliability estimation and misinformation diagnostics.

Truth discovery's dual output (paper Section II: "the reliability of
the sources and the truthfulness of claims") — SSTD decodes truth
without per-source state, but once truth estimates exist, per-source
reliability follows by scoring each source's reports against them.
This module computes that posterior view and the derived diagnostics a
deployment needs: spreader detection, reliability distributions, and
agreement-weighted summaries that downstream applications (e.g. the
paper's critical-source-selection citation) can rank on.
"""

from __future__ import annotations

import bisect
import collections
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from repro.core.types import Attitude, Report, TruthEstimate, TruthValue

__all__ = [
    "ReliabilityEstimator",
    "SourceReliability",
    "evaluate_reliability_estimates",
    "rank_spreaders",
    "reliability_histogram",
]

#: Pseudo-counts of the Beta prior that smooths a source's reliability
#: toward 0.5.
PRIOR_WEIGHT = 2.0
#: Bins of :func:`reliability_histogram` over ``[0, 1]``.
N_BINS = 10
#: Scored reports a source needs to count in
#: :func:`evaluate_reliability_estimates`.
MIN_SCORED = 5

_TIMESTAMP = attrgetter("timestamp")


@dataclass(frozen=True, slots=True)
class SourceReliability:
    """Posterior reliability of one source.

    Attributes:
        source_id: The source.
        n_scored: Reports that could be scored against an estimate.
        n_correct: Scored reports whose attitude matched the estimated
            truth at their timestamp.
    """

    source_id: str
    n_scored: int
    n_correct: int

    def __post_init__(self) -> None:
        if self.n_scored < 0 or self.n_correct < 0:
            raise ValueError("counts must be >= 0")
        if self.n_correct > self.n_scored:
            raise ValueError("n_correct cannot exceed n_scored")

    @property
    def raw_accuracy(self) -> float:
        """Unsmoothed fraction of correct reports (0.5 when unscored)."""
        if self.n_scored == 0:
            return 0.5
        return self.n_correct / self.n_scored

    @property
    def reliability(self) -> float:
        """Beta-smoothed reliability: shrunk toward 0.5 on few reports."""
        alpha = self.n_correct + PRIOR_WEIGHT / 2.0
        beta = (self.n_scored - self.n_correct) + PRIOR_WEIGHT / 2.0
        return alpha / (alpha + beta)

    @property
    def is_likely_spreader(self) -> bool:
        """Whether the posterior says the source mostly contradicts truth."""
        return self.n_scored >= 3 and self.reliability < 0.35


class ReliabilityEstimator:
    """Scores sources against a set of truth estimates.

    The truth at a report's timestamp is taken from the nearest estimate
    at-or-before it (estimates are step functions of time); reports that
    precede every estimate of their claim are skipped.
    """

    def estimate(
        self,
        reports: Iterable[Report],
        estimates: Sequence[TruthEstimate],
    ) -> dict[str, SourceReliability]:
        """Per-source posterior reliabilities."""
        series: dict[str, list[TruthEstimate]] = collections.defaultdict(list)
        for estimate in estimates:
            series[estimate.claim_id].append(estimate)
        for claim_series in series.values():
            claim_series.sort(key=_TIMESTAMP)

        scored: dict[str, list[int]] = collections.defaultdict(list)
        for report in reports:
            if report.attitude is Attitude.NEUTRAL:
                continue
            claim_series = series.get(report.claim_id)
            if not claim_series:
                continue
            # The latest estimate at or before the report.
            k = bisect.bisect_right(
                claim_series, report.timestamp, key=_TIMESTAMP
            )
            if k == 0:
                continue
            truth = claim_series[k - 1].value
            says_true = report.attitude is Attitude.AGREE
            scored[report.source_id].append(
                1 if says_true == (truth is TruthValue.TRUE) else 0
            )

        return {
            source_id: SourceReliability(
                source_id=source_id,
                n_scored=len(marks),
                n_correct=sum(marks),
            )
            for source_id, marks in scored.items()
        }


def rank_spreaders(
    reliabilities: Mapping[str, SourceReliability], top_k: int = 10
) -> list[SourceReliability]:
    """Most-likely misinformation spreaders, worst first."""
    flagged = [r for r in reliabilities.values() if r.is_likely_spreader]
    flagged.sort(key=lambda r: (r.reliability, -r.n_scored))
    return flagged[:top_k]


def reliability_histogram(
    reliabilities: Mapping[str, SourceReliability],
) -> list[tuple[float, float, int]]:
    """(bin_low, bin_high, count) histogram of posterior reliabilities."""
    counts = [0] * N_BINS
    for record in reliabilities.values():
        index = min(int(record.reliability * N_BINS), N_BINS - 1)
        counts[index] += 1
    return [
        (k / N_BINS, (k + 1) / N_BINS, counts[k]) for k in range(N_BINS)
    ]


def evaluate_reliability_estimates(
    reliabilities: Mapping[str, SourceReliability],
    true_reliabilities: Mapping[str, float],
) -> float:
    """Mean absolute error vs ground-truth reliabilities (generator traces).

    Only sources with at least :data:`MIN_SCORED` scored reports count —
    one-report sources carry no signal, which is the paper's data
    sparsity point.
    """
    errors = []
    for source_id, record in reliabilities.items():
        if record.n_scored < MIN_SCORED:
            continue
        truth = true_reliabilities.get(source_id)
        if truth is None:
            continue
        errors.append(abs(record.raw_accuracy - truth))
    if not errors:
        return 0.0
    return sum(errors) / len(errors)
