"""TruthFinder baseline (Yin, Han & Yu, TKDE 2008).

TruthFinder iterates between source *trustworthiness* and claim
*confidence* with a pseudo-probabilistic model:

- a source's trustworthiness ``t(s)`` is the average confidence of the
  facts it provides;
- a fact's confidence combines the trustworthiness of its providers in
  log-odds space: ``sigma(f) = -sum_s ln(1 - t(s))``, mapped back with
  ``s(f) = 1 / (1 + exp(-gamma * sigma(f)))`` (the dampening factor
  ``gamma`` compensates for correlated sources).

For binary social-sensing claims each claim has two mutually exclusive
"facts" — *the claim is true* (supported by AGREE votes) and *the claim
is false* (supported by DISAGREE votes).  Mutual exclusion enters through
the implication term ``rho``: support for one fact is negative evidence
for the other.
"""

from __future__ import annotations

import collections
import math
from typing import Mapping, Sequence

from repro.baselines.base import BatchTruthDiscovery, source_claim_votes
from repro.core.types import Report, TruthValue

__all__ = [
    "TruthFinder",
]

_EPS = 1e-6

#: Starting trustworthiness of every source.
INITIAL_TRUST = 0.9
#: Dampening factor for correlated sources.
GAMMA = 0.3
#: Weight of the mutual-exclusion (implication) term.
RHO = 0.5
#: Iteration cap.
MAX_ITER = 20
#: Convergence threshold on the max change of source trust.
TOL = 1e-4


class TruthFinder(BatchTruthDiscovery):
    """Iterative pseudo-probabilistic truth finder."""

    name = "TruthFinder"

    def estimate_claims(
        self, reports: Sequence[Report]
    ) -> Mapping[str, tuple[TruthValue, float]]:
        votes = source_claim_votes(reports)
        if not votes:
            return {}

        # facts: (claim_id, polarity) with polarity in {+1, -1}
        supporters: dict[tuple[str, int], list[str]] = collections.defaultdict(list)
        facts_of_source: dict[str, list[tuple[str, int]]] = collections.defaultdict(list)
        claims: set[str] = set()
        for (source_id, claim_id), vote in votes.items():
            fact = (claim_id, vote)
            supporters[fact].append(source_id)
            facts_of_source[source_id].append(fact)
            claims.add(claim_id)

        trust = {source: INITIAL_TRUST for source in facts_of_source}
        confidence: dict[tuple[str, int], float] = {}

        for _ in range(MAX_ITER):
            # fact confidence from source trust
            raw: dict[tuple[str, int], float] = {}
            for fact, sources in supporters.items():
                tau = sum(-math.log(max(1.0 - trust[s], _EPS)) for s in sources)
                raw[fact] = tau
            for claim_id in claims:
                for polarity in (1, -1):
                    fact = (claim_id, polarity)
                    if fact not in raw and (claim_id, -polarity) not in raw:
                        continue
                    own = raw.get(fact, 0.0)
                    other = raw.get((claim_id, -polarity), 0.0)
                    adjusted = own - RHO * other
                    # Clamp the exponent: thousands of agreeing sources
                    # would otherwise overflow exp().
                    exponent = min(max(-GAMMA * adjusted, -500.0), 500.0)
                    confidence[fact] = 1.0 / (1.0 + math.exp(exponent))
            # source trust from fact confidence
            delta = 0.0
            for source_id, facts in facts_of_source.items():
                new_trust = sum(confidence.get(f, 0.5) for f in facts) / len(facts)
                new_trust = min(max(new_trust, _EPS), 1.0 - _EPS)
                delta = max(delta, abs(new_trust - trust[source_id]))
                trust[source_id] = new_trust
            if delta < TOL:
                break

        decisions: dict[str, tuple[TruthValue, float]] = {}
        for claim_id in claims:
            true_conf = confidence.get((claim_id, 1), 0.0)
            false_conf = confidence.get((claim_id, -1), 0.0)
            if true_conf >= false_conf:
                decisions[claim_id] = (TruthValue.TRUE, true_conf)
            else:
                decisions[claim_id] = (TruthValue.FALSE, false_conf)
        return decisions
