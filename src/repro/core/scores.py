"""Contribution-score computation (paper Section II, Eq. (1)).

A report's *contribution score* combines three semantic components:

    CS = attitude * (1 - uncertainty) * independence

- *attitude* (Definition 1) is ``+1`` / ``-1`` / ``0`` for agree /
  disagree / no position;
- *uncertainty* (Definition 2) in ``[0, 1)`` measures hedging ("possible
  shooting", "unconfirmed");
- *independence* (Definition 3) in ``(0, 1]`` down-weights copied reports
  (retweets, near-duplicates).

The contribution score is the quantity the SSTD HMM aggregates into its
observation sequence; the classes here also let ablation benchmarks switch
individual components off (experiment A2 in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.columns import ReportColumns, report_columns
from repro.core.types import Report
from repro.devtools import contracts

__all__ = [
    "ATTITUDE_ONLY",
    "FULL_WEIGHTS",
    "ScoreWeights",
]

@dataclass(frozen=True, slots=True)
class ScoreWeights:
    """Toggles for the components of the contribution score.

    Used by ablation experiments: with ``use_uncertainty=False`` the
    ``(1 - kappa)`` factor is replaced by 1, and with
    ``use_independence=False`` the ``eta`` factor is replaced by 1.
    The attitude factor cannot be disabled because without it a report
    carries no signal at all.
    """

    use_uncertainty: bool = True
    use_independence: bool = True

    def score_column(
        self, reports: Iterable[Report] | ReportColumns
    ) -> np.ndarray:
        """Every report's contribution score under these toggles, as one
        float64 array in input order.

        ``reports`` may be their columns; a
        :class:`~repro.core.columns.Reports` gives the columns it
        carries, and any other iterable is read by
        :meth:`ReportColumns.of` (attitude, plus the factors these
        toggles keep).  The factors are multiplied in Eq. (1)'s order,
        ``attitude * (1 - uncertainty) * independence``, so an entry has
        the bits of that product in Python floats; the range contract
        runs once on the whole column.
        """
        columns = report_columns(reports)
        values = columns.attitudes.astype(np.float64)
        if self.use_uncertainty:
            values *= 1.0 - columns.uncertainty
        if self.use_independence:
            values *= columns.independence
        contracts.assert_score_range(values, "contribution score (Eq. 1)")
        return values


FULL_WEIGHTS = ScoreWeights()
ATTITUDE_ONLY = ScoreWeights(use_uncertainty=False, use_independence=False)
