"""Invest and PooledInvest baselines (Pasternack & Roth, COLING 2010).

In *Invest* each source uniformly invests its trustworthiness among the
facts it claims; a fact's belief grows the pooled investment with a
non-linear function ``G(x) = x**g``; sources then collect returns
proportional to the share of a fact's belief their investment bought.
*PooledInvest* applies the growth function to a source's per-fact
allocation before pooling (linear returns afterwards).

Binary claims map to two mutually exclusive facts per claim, as in
:mod:`repro.baselines.truthfinder`.
"""

from __future__ import annotations

import collections
from typing import Mapping, Sequence

from repro.baselines.base import BatchTruthDiscovery, source_claim_votes
from repro.core.types import Report, TruthValue

__all__ = [
    "Invest",
    "PooledInvest",
]

_EPS = 1e-9

#: Growth exponent ``g`` of Invest (the value the paper used).
INVEST_GROWTH = 1.2
#: Growth exponent ``g`` of PooledInvest.
POOLED_GROWTH = 1.4
#: Iteration cap.
MAX_ITER = 20
#: Convergence threshold on the max change of source trust.
TOL = 1e-4


class Invest(BatchTruthDiscovery):
    """The Invest algorithm with growth exponent :data:`INVEST_GROWTH`."""

    name = "Invest"
    _pooled = False
    _growth = INVEST_GROWTH

    def estimate_claims(
        self, reports: Sequence[Report]
    ) -> Mapping[str, tuple[TruthValue, float]]:
        votes = source_claim_votes(reports)
        if not votes:
            return {}

        supporters: dict[tuple[str, int], list[str]] = collections.defaultdict(list)
        facts_of_source: dict[str, list[tuple[str, int]]] = collections.defaultdict(list)
        for (source_id, claim_id), vote in votes.items():
            fact = (claim_id, vote)
            supporters[fact].append(source_id)
            facts_of_source[source_id].append(fact)

        trust = {source: 1.0 for source in facts_of_source}
        belief: dict[tuple[str, int], float] = {}

        for _ in range(MAX_ITER):
            invested: dict[tuple[str, int], float] = collections.defaultdict(float)
            allocation: dict[tuple[str, tuple[str, int]], float] = {}
            for source_id, facts in facts_of_source.items():
                share = trust[source_id] / len(facts)
                for fact in facts:
                    if self._pooled:
                        grown = share**self._growth
                        invested[fact] += grown
                        allocation[(source_id, fact)] = grown
                    else:
                        invested[fact] += share
                        allocation[(source_id, fact)] = share
            if self._pooled:
                belief = dict(invested)
            else:
                belief = {fact: x**self._growth for fact, x in invested.items()}

            delta = 0.0
            for source_id, facts in facts_of_source.items():
                returns = 0.0
                for fact in facts:
                    pool = invested[fact]
                    if pool > _EPS:
                        returns += belief[fact] * (
                            allocation[(source_id, fact)] / pool
                        )
                new_trust = max(returns, _EPS)
                delta = max(delta, abs(new_trust - trust[source_id]))
                trust[source_id] = new_trust
            # Normalize trust so the fixed point is scale-free.
            mean_trust = sum(trust.values()) / len(trust)
            for source_id in trust:
                trust[source_id] /= max(mean_trust, _EPS)
            if delta < TOL:
                break

        decisions: dict[str, tuple[TruthValue, float]] = {}
        claims = {claim_id for claim_id, _ in belief}
        for claim_id in claims:
            true_belief = belief.get((claim_id, 1), 0.0)
            false_belief = belief.get((claim_id, -1), 0.0)
            total = true_belief + false_belief
            if true_belief >= false_belief:
                conf = true_belief / total if total > _EPS else 0.0
                decisions[claim_id] = (TruthValue.TRUE, conf)
            else:
                conf = false_belief / total if total > _EPS else 0.0
                decisions[claim_id] = (TruthValue.FALSE, conf)
        return decisions


class PooledInvest(Invest):
    """PooledInvest variant: growth applied per-allocation before pooling."""

    name = "PooledInvest"
    _pooled = True
    _growth = POOLED_GROWTH
