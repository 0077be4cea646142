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

from typing import Mapping, Sequence

import numpy as np

from repro.baselines.base import BatchTruthDiscovery, Votes
from repro.core.scores import ATTITUDE_ONLY
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
        votes = Votes.from_reports(reports, ATTITUDE_ONLY.score_column(reports))
        if not len(votes):
            return {}
        # Sources invest in source order, as a loop over sources would.
        by_source = np.argsort(votes.rows, kind="stable")
        rows = votes.rows[by_source]
        facts = votes.facts[by_source]
        n_facts = 2 * len(votes.claims)
        provided = np.bincount(rows, minlength=len(votes.sources))

        trust = np.ones(len(votes.sources))
        for _ in range(MAX_ITER):
            share = trust / provided
            if self._pooled:
                share = np.array([x**self._growth for x in share.tolist()])
            invested = np.bincount(facts, weights=share[rows], minlength=n_facts)
            if self._pooled:
                belief = invested
            else:
                belief = np.array([x**self._growth for x in invested.tolist()])

            # Each source's return on a fact is the share of the fact's
            # belief that its investment bought.
            paying = invested > _EPS
            pool = np.where(paying, invested, 1.0)
            payout = np.where(paying, belief, 0.0)
            returns = np.bincount(
                rows,
                weights=payout[facts] * (share[rows] / pool[facts]),
                minlength=len(trust),
            )
            new_trust = np.maximum(returns, _EPS)
            delta = float(np.max(np.abs(new_trust - trust)))
            # Normalize trust so the fixed point is scale-free.
            mean_trust = np.cumsum(new_trust)[-1] / new_trust.size
            trust = new_trust / max(mean_trust, _EPS)
            if delta < TOL:
                break

        decisions: dict[str, tuple[TruthValue, float]] = {}
        for claim_id, (true_belief, false_belief) in zip(
            votes.claims, belief.reshape(-1, 2).tolist()
        ):
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
