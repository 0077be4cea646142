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

import collections
from typing import Mapping, Sequence

from repro.baselines.base import BatchTruthDiscovery
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
        # Net independence-weighted attitude per (source, claim).
        net: dict[tuple[str, str], float] = collections.defaultdict(float)
        for report in reports:
            if report.attitude:
                net[(report.source_id, report.claim_id)] += (
                    float(report.attitude)
                    * report.independence
                    * (1.0 - report.uncertainty)
                )
        if not net:
            return {}

        votes_of_claim: dict[str, list[tuple[str, float]]] = collections.defaultdict(list)
        votes_of_source: dict[str, list[tuple[str, float]]] = collections.defaultdict(list)
        for (source_id, claim_id), weight in net.items():
            votes_of_claim[claim_id].append((source_id, weight))
            votes_of_source[source_id].append((claim_id, weight))

        reliability = {
            source: PRIOR_RELIABILITY for source in votes_of_source
        }
        truth_sign: dict[str, float] = {}

        for _ in range(MAX_ITER):
            # --- claim truth from reliability-weighted votes -----------
            new_sign: dict[str, float] = {}
            for claim_id, claim_votes in votes_of_claim.items():
                total = sum(
                    weight * (2.0 * reliability[source] - 1.0)
                    for source, weight in claim_votes
                )
                new_sign[claim_id] = 1.0 if total > 0 else -1.0

            # --- source reliability from agreement history -------------
            delta = 0.0
            for source_id, source_votes in votes_of_source.items():
                agree = 0.0
                weight_total = 0.0
                for claim_id, weight in source_votes:
                    sign = new_sign[claim_id]
                    magnitude = abs(weight)
                    if magnitude < _EPS:
                        continue
                    weight_total += magnitude
                    if (weight > 0) == (sign > 0):
                        agree += magnitude
                # Shrink toward the prior: robust on the long tail.
                numer = agree + PRIOR_RELIABILITY * PRIOR_STRENGTH
                denom = weight_total + PRIOR_STRENGTH
                new_rel = min(max(numer / denom, _EPS), 1.0 - _EPS)
                delta = max(delta, abs(new_rel - reliability[source_id]))
                reliability[source_id] = new_rel

            changed = sum(
                1
                for claim_id in new_sign
                if truth_sign.get(claim_id) != new_sign[claim_id]
            )
            truth_sign = new_sign
            if delta < TOL and changed == 0:
                break

        decisions: dict[str, tuple[TruthValue, float]] = {}
        for claim_id, sign in truth_sign.items():
            support = sum(
                abs(w) * reliability[s] for s, w in votes_of_claim[claim_id]
            )
            agree = sum(
                abs(w) * reliability[s]
                for s, w in votes_of_claim[claim_id]
                if (w > 0) == (sign > 0)
            )
            confidence = agree / support if support > _EPS else 0.0
            value = TruthValue.TRUE if sign > 0 else TruthValue.FALSE
            decisions[claim_id] = (value, confidence)
        return decisions
