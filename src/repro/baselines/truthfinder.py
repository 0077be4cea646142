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

import math
from typing import Mapping, Sequence

import numpy as np

from repro.baselines.base import BatchTruthDiscovery, Votes
from repro.core.scores import ATTITUDE_ONLY
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
        votes = Votes.from_reports(reports, ATTITUDE_ONLY.score_column(reports))
        if not len(votes):
            return {}
        facts = votes.facts
        n_facts = 2 * len(votes.claims)
        # Facts per source, counted exactly.
        provided = np.bincount(votes.rows, minlength=len(votes.sources))

        trust = np.full(len(votes.sources), INITIAL_TRUST)
        for _ in range(MAX_ITER):
            # fact confidence from source trust
            evidence = np.array(
                [-math.log(max(1.0 - t, _EPS)) for t in trust.tolist()]
            )
            raw = np.bincount(facts, weights=evidence[votes.rows], minlength=n_facts)
            # Mutual exclusion: each fact's rival is its pair partner.
            adjusted = raw - RHO * raw.reshape(-1, 2)[:, ::-1].ravel()
            # Clamp the exponent: thousands of agreeing sources would
            # otherwise overflow exp().
            exponents = np.clip(-GAMMA * adjusted, -500.0, 500.0)
            confidence = np.array(
                [1.0 / (1.0 + math.exp(e)) for e in exponents.tolist()]
            )
            # source trust from fact confidence
            new_trust = np.bincount(
                votes.rows, weights=confidence[facts], minlength=len(provided)
            )
            new_trust = np.clip(new_trust / provided, _EPS, 1.0 - _EPS)
            delta = float(np.max(np.abs(new_trust - trust)))
            trust = new_trust
            if delta < TOL:
                break

        decisions: dict[str, tuple[TruthValue, float]] = {}
        for claim_id, (true_conf, false_conf) in zip(
            votes.claims, confidence.reshape(-1, 2).tolist()
        ):
            if true_conf >= false_conf:
                decisions[claim_id] = (TruthValue.TRUE, true_conf)
            else:
                decisions[claim_id] = (TruthValue.FALSE, false_conf)
        return decisions
