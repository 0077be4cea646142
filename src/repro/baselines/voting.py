"""Heuristic baselines: majority voting and median.

The paper (Section II) cites Majority Voting and Median as the "very fast
but low accuracy" end of the truth discovery spectrum; they anchor the
accuracy comparison and the efficiency figures.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.baselines.base import (
    BatchTruthDiscovery,
    Votes,
    positive_fraction_decision,
)
from repro.core.acs import ReportTable
from repro.core.scores import ATTITUDE_ONLY
from repro.core.types import Report, TruthValue

__all__ = [
    "MajorityVote",
    "MedianVote",
]


class MajorityVote(BatchTruthDiscovery):
    """One vote per (source, claim); majority sign wins."""

    name = "MajorityVote"

    def estimate_claims(
        self, reports: Sequence[Report]
    ) -> Mapping[str, tuple[TruthValue, float]]:
        votes = Votes.from_reports(reports, ATTITUDE_ONLY.score_column(reports))
        return _sign_decisions(votes.claims, votes.cols, votes.signs)


class MedianVote(BatchTruthDiscovery):
    """Median of per-report attitudes (report-weighted, not source-weighted).

    Differs from :class:`MajorityVote` on traces where a few prolific
    sources dominate the report volume.  The median of ``+1``/``-1``
    attitudes is the sign of their sum, so its confidence is 1 or 0.
    """

    name = "Median"

    def estimate_claims(
        self, reports: Sequence[Report]
    ) -> Mapping[str, tuple[TruthValue, float]]:
        table = ReportTable.from_reports(reports, ATTITUDE_ONLY)
        decisions = _sign_decisions(
            table.claim_ids, table.claim_index, table.scores
        )
        return {
            claim_id: (value, float(confidence > 0))
            for claim_id, (value, confidence) in decisions.items()
        }


def _sign_decisions(
    claim_ids: Sequence[str], claim_index: np.ndarray, attitudes: np.ndarray
) -> dict[str, tuple[TruthValue, float]]:
    """Majority sign and margin of each claim with a non-neutral attitude."""
    n_claims = len(claim_ids)
    totals = np.bincount(claim_index, weights=attitudes, minlength=n_claims)
    counts = np.bincount(
        claim_index, weights=np.abs(attitudes), minlength=n_claims
    )
    return {
        claim_id: (positive_fraction_decision(total), abs(total) / count)
        for claim_id, total, count in zip(
            claim_ids, totals.tolist(), counts.tolist()
        )
        if count
    }
