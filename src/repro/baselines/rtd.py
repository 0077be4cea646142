"""RTD baseline (Zhang, Han & Wang, IEEE BigData 2016).

RTD ("Robust Truth Discovery") targets *sparse* social media sensing
where widely-spread misinformation can out-shout the truth.  Its two key
ideas, reproduced here:

1. **Historical contribution weighting** — a source's influence on a
   claim is weighted by how well its *past* reports agreed with the
   current consensus, so prolific rumor-spreaders are discounted even if
   each individual rumor is popular.
2. **Independence discounting** — copied reports (retweets and
   near-duplicates, low independence score) contribute little, which
   breaks the "bandwagon" amplification that defeats plain voting.

The algorithm alternates between per-claim weighted votes and per-source
reliability updates, with reliability shrunk toward a prior in
proportion to the source's evidence count (the robustness device for the
long tail of one-report sources).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.baselines.base import BatchTruthDiscovery, Votes
from repro.core.scores import FULL_WEIGHTS
from repro.core.types import Report, TruthValue

__all__ = [
    "RTD",
]

_EPS = 1e-9

#: Prior mean of source reliability.
PRIOR_RELIABILITY = 0.6
#: Pseudo-count of the reliability prior; a source needs this many
#: consistent reports to move far from the prior.
PRIOR_STRENGTH = 4.0
#: Vote/reliability alternation cap.
MAX_ITER = 15
#: Convergence threshold on the max change of source reliability.
TOL = 1e-4


class RTD(BatchTruthDiscovery):
    """Robust truth discovery with misinformation penalties."""

    name = "RTD"

    def estimate_claims(
        self, reports: Sequence[Report]
    ) -> Mapping[str, tuple[TruthValue, float]]:
        # Net independence-weighted attitude per (source, claim).  RTD
        # ignores neutral reports, so a pair enters at its first
        # non-neutral one.
        heard = [report for report in reports if report.attitude]
        votes = Votes.from_reports(heard, FULL_WEIGHTS.score_column(heard))
        n_claims = len(votes.claims)
        rows, cols, weights = votes.rows, votes.cols, votes.values
        magnitudes = np.abs(weights)
        counted = np.where(magnitudes < _EPS, 0.0, magnitudes)

        reliability = np.full(len(votes.sources), PRIOR_RELIABILITY)
        truth_sign = np.zeros(n_claims)
        for _ in range(MAX_ITER):
            # --- claim truth from reliability-weighted votes -----------
            totals = np.bincount(
                cols, weights=weights * (2.0 * reliability[rows] - 1.0),
                minlength=n_claims,
            )
            new_sign = np.where(totals > 0, 1.0, -1.0)

            # --- source reliability from agreement history -------------
            agrees = (weights > 0) == (new_sign[cols] > 0)
            agree = np.bincount(
                rows, weights=np.where(agrees, counted, 0.0),
                minlength=reliability.size,
            )
            weight_total = np.bincount(rows, weights=counted, minlength=reliability.size)
            # Shrink toward the prior: robust on the long tail.
            numer = agree + PRIOR_RELIABILITY * PRIOR_STRENGTH
            denom = weight_total + PRIOR_STRENGTH
            new_rel = np.clip(numer / denom, _EPS, 1.0 - _EPS)
            delta = float(np.max(np.abs(new_rel - reliability), initial=0.0))
            reliability = new_rel

            changed = bool(np.any(new_sign != truth_sign))
            truth_sign = new_sign
            if delta < TOL and not changed:
                break

        backing = magnitudes * reliability[rows]
        agreeing = (weights > 0) == (truth_sign[cols] > 0)
        support = np.bincount(cols, weights=backing, minlength=n_claims)
        agree = np.bincount(
            cols, weights=np.where(agreeing, backing, 0.0), minlength=n_claims
        )
        decisions: dict[str, tuple[TruthValue, float]] = {}
        for claim_id, sign, total, agreed in zip(
            votes.claims, truth_sign.tolist(), support.tolist(), agree.tolist()
        ):
            confidence = agreed / total if total > _EPS else 0.0
            value = TruthValue.TRUE if sign > 0 else TruthValue.FALSE
            decisions[claim_id] = (value, confidence)
        # A claim whose every pair nets to exactly zero is heard but
        # undecided.
        for report in heard:
            decisions.setdefault(report.claim_id, (TruthValue.FALSE, 0.0))
        return decisions
