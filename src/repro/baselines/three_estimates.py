"""3-Estimates baseline (Galland, Abiteboul, Marian & Senellart, WSDM 2010).

3-Estimates jointly estimates three quantities:

- the *truth* of each fact,
- the *error rate* (inverse trust) of each source,
- the *difficulty* (hardness) of each claim — an easy claim answered
  wrongly hurts a source's trust more than a hard one.

This implementation follows the paper's "cosine-style" normalized update
equations on the signed vote matrix: votes are ``+1``/``-1`` per
(source, claim); each iteration recomputes truth values from
difficulty-weighted trusted votes, then error rates and difficulties from
the disagreement between votes and current truth, with all three
estimates renormalized into their nominal ranges (the paper's
normalization step, which it reports as essential for convergence).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.baselines.base import BatchTruthDiscovery, Votes
from repro.core.scores import ATTITUDE_ONLY
from repro.core.types import Report, TruthValue

__all__ = [
    "ThreeEstimates",
]

_EPS = 1e-9

#: Iteration cap.
MAX_ITER = 25
#: Convergence threshold on the max change of a claim's truth value.
TOL = 1e-4


class ThreeEstimates(BatchTruthDiscovery):
    """The 3-Estimates algorithm on binary signed votes."""

    name = "3-Estimates"

    def estimate_claims(
        self, reports: Sequence[Report]
    ) -> Mapping[str, tuple[TruthValue, float]]:
        votes = Votes.from_reports(reports, ATTITUDE_ONLY.score_column(reports))
        if not len(votes):
            return {}
        rows, cols, signs = votes.rows, votes.cols, votes.signs

        n_sources = len(votes.sources)
        n_claims = len(votes.claims)
        truth = np.zeros(n_claims)  # in [-1, 1]
        error = np.full(n_sources, 0.2)  # in [0, 1]
        hardness = np.full(n_claims, 0.5)  # in [0, 1]

        for _ in range(MAX_ITER):
            # --- truth from trusted, difficulty-adjusted votes ---------
            trust = (1.0 - error[rows]) * (1.0 - hardness[cols])
            numer = np.bincount(cols, weights=signs * trust, minlength=n_claims)
            denom = np.bincount(cols, weights=trust, minlength=n_claims)
            new_truth = numer / np.maximum(denom, _EPS)
            new_truth = np.clip(new_truth, -1.0, 1.0)

            # --- disagreement of each vote with the current truth ------
            # in [0, 1]: 0 = fully agrees, 1 = fully contradicts
            disagree = (1.0 - signs * new_truth[cols]) / 2.0

            # --- source error: mean disagreement, discounted on hard claims
            weight = 1.0 - hardness[cols]
            err_num = np.bincount(rows, weights=disagree * weight, minlength=n_sources)
            err_den = np.bincount(rows, weights=weight, minlength=n_sources)
            new_error = err_num / np.maximum(err_den, _EPS)

            # --- claim hardness: mean disagreement of trustworthy sources
            trust_w = 1.0 - error[rows]
            hard_num = np.bincount(cols, weights=disagree * trust_w, minlength=n_claims)
            hard_den = np.bincount(cols, weights=trust_w, minlength=n_claims)
            new_hardness = hard_num / np.maximum(hard_den, _EPS)

            # --- normalization (the paper's range rescaling) ------------
            new_error = _rescale_unit(new_error)
            new_hardness = _rescale_unit(new_hardness)

            delta = float(np.max(np.abs(new_truth - truth))) if n_claims else 0.0
            truth, error, hardness = new_truth, new_error, new_hardness
            if delta < TOL:
                break

        decisions: dict[str, tuple[TruthValue, float]] = {}
        for idx, claim_id in enumerate(votes.claims):
            value = TruthValue.TRUE if truth[idx] > 0 else TruthValue.FALSE
            decisions[claim_id] = (value, float(abs(truth[idx])))
        return decisions


def _rescale_unit(values: np.ndarray) -> np.ndarray:
    """Affinely rescale into [eps, 1-eps]; constant vectors collapse to 0.5."""
    if values.size == 0:
        return values
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < _EPS:
        return np.full_like(values, 0.5)
    scaled = (values - lo) / (hi - lo)
    return np.clip(scaled, 1e-3, 1.0 - 1e-3)
