"""CATD baseline (Li et al., VLDB 2014).

CATD ("Confidence-Aware Truth Discovery") targets *long-tail* data: most
sources contribute very few claims, so a point estimate of their
reliability is meaningless.  CATD instead scores each source with the
upper bound of a chi-squared confidence interval on its error variance:

    w_s = chi2.ppf(alpha/2, df=n_s) / sum_of_squared_errors(s)

A source with few observations gets a small chi-squared quantile, hence a
conservative (small) weight, while well-observed accurate sources get
large weights.  Truth values are then weight-voted, and the loop
(truth -> errors -> weights -> truth) repeats.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
from scipy import stats

from repro.baselines.base import BatchTruthDiscovery, Votes
from repro.core.scores import ATTITUDE_ONLY
from repro.core.types import Report, TruthValue

__all__ = [
    "CATD",
]

_EPS = 1e-9

#: Significance level of the chi-squared interval (as in the original
#: paper).
ALPHA = 0.05
#: Truth/weight alternation cap.
MAX_ITER = 10
#: Stop when fewer than this share of claims change their truth.
TOL = 1e-4


class CATD(BatchTruthDiscovery):
    """Confidence-aware weighted voting for sparse sources."""

    name = "CATD"

    def estimate_claims(
        self, reports: Sequence[Report]
    ) -> Mapping[str, tuple[TruthValue, float]]:
        votes = Votes.from_reports(reports, ATTITUDE_ONLY.score_column(reports))
        if not len(votes):
            return {}
        rows, cols, signs = votes.rows, votes.cols, votes.signs

        n_sources = len(votes.sources)
        n_claims = len(votes.claims)
        counts = np.bincount(rows, minlength=n_sources).astype(float)

        # Initialize truth with the unweighted vote.
        numer = np.bincount(cols, weights=signs, minlength=n_claims)
        truth = np.sign(numer)

        # chi-squared lower-tail quantile at each source's df; df >= 1.
        quantiles = stats.chi2.ppf(ALPHA / 2.0, np.maximum(counts, 1.0))
        weights = np.ones(n_sources)

        for _ in range(MAX_ITER):
            # squared error of each vote against current truth in {0, 1}
            sq_err = ((signs - truth[cols]) / 2.0) ** 2
            sse = np.bincount(rows, weights=sq_err, minlength=n_sources)
            weights = quantiles / np.maximum(sse, _EPS)
            # Cap so a perfect prolific source cannot dominate alone.
            weights = np.minimum(weights, np.percentile(weights, 99))

            numer = np.bincount(cols, weights=signs * weights[rows], minlength=n_claims)
            new_truth = np.sign(numer)
            new_truth[new_truth == 0] = -1.0
            if float(np.mean(new_truth != truth)) < TOL:
                truth = new_truth
                break
            truth = new_truth

        denom = np.bincount(cols, weights=weights[rows], minlength=n_claims)
        margin = np.abs(numer) / np.maximum(denom, _EPS)

        decisions: dict[str, tuple[TruthValue, float]] = {}
        for idx, claim_id in enumerate(votes.claims):
            value = TruthValue.TRUE if numer[idx] > 0 else TruthValue.FALSE
            decisions[claim_id] = (value, float(min(1.0, margin[idx])))
        return decisions
