"""Registry of all truth-discovery algorithms used in the evaluation.

Gives benchmarks one place to instantiate "SSTD plus the six baselines of
paper Section V-A1" with consistent configuration, and adapts the SSTD
engine (which lives in :mod:`repro.core`) to the common
:class:`~repro.baselines.base.TruthDiscoveryAlgorithm` interface.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.baselines.base import EvaluationGrid, TruthDiscoveryAlgorithm
from repro.baselines.catd import CATD
from repro.baselines.dynatd import DynaTD
from repro.baselines.invest import Invest, PooledInvest
from repro.baselines.rtd import RTD
from repro.baselines.sliding_vote import SlidingVote
from repro.baselines.three_estimates import ThreeEstimates
from repro.baselines.truthfinder import TruthFinder
from repro.baselines.voting import MajorityVote, MedianVote
from repro.core.acs import ACSConfig
from repro.core.columns import Estimates, report_columns
from repro.core.sstd import SSTD, SSTDConfig
from repro.core.types import Report

__all__ = [
    "ALGORITHM_FACTORIES",
    "PAPER_TABLE_METHODS",
    "SSTDAlgorithm",
    "make_algorithm",
    "paper_comparison_set",
]

#: Lower bound of the adaptive window, in evaluation grid steps; the
#: SSTD grid step is the window divided by this.
WINDOW_STEPS = 2.0
#: Reports the adaptive window targets on the average claim.
TARGET_REPORTS_PER_WINDOW = 12.0


class SSTDAlgorithm(TruthDiscoveryAlgorithm):
    """Adapter exposing the SSTD engine through the common interface.

    The ACS window adapts to report density: the paper picks the sliding
    window "based on the expected change frequency of the truth from the
    observed event", but on sparse traces the binding constraint is that
    a window needs several reports for a meaningful aggregated score.
    The adapter targets :data:`TARGET_REPORTS_PER_WINDOW` on the
    *average* claim (clamped to ``[WINDOW_STEPS x grid.step, span/8]``),
    decodes on its own grid, and resamples the estimate columns onto the
    evaluation grid by carrying the latest decoded value forward.  A ``config``
    replaces the adaptive choice.
    """

    name = "SSTD"

    def __init__(self, config: SSTDConfig | None = None) -> None:
        self._config_override = config

    def _choose_window(
        self, reports: Sequence[Report], grid: EvaluationGrid
    ) -> float:
        columns = report_columns(reports)
        span = max(grid.end - grid.start, grid.step)
        per_claim = len(columns) / max(1, len(columns.claim_ids))
        if per_claim <= 0:
            return WINDOW_STEPS * grid.step
        density_window = span * TARGET_REPORTS_PER_WINDOW / per_claim
        floor = WINDOW_STEPS * grid.step
        ceiling = max(span / 8.0, floor)
        return float(min(max(density_window, floor), ceiling))

    def discover(
        self, reports: Sequence[Report], grid: EvaluationGrid
    ) -> Estimates:
        config = self._config_override
        if config is None:
            window = self._choose_window(reports, grid)
            acs = ACSConfig(window=window, step=window / WINDOW_STEPS)
            config = SSTDConfig(acs=acs)
        engine = SSTD(config)
        decoded = engine.discover(reports, start=grid.start, end=grid.end)
        return self._resample(decoded, grid)

    @staticmethod
    def _resample(decoded: Estimates, grid: EvaluationGrid) -> Estimates:
        """Sample decoded series onto the evaluation grid (carry forward).

        One ``searchsorted`` per claim over its decoded times picks the
        row each grid time carries; a grid time before a claim's first
        estimate takes that estimate.
        """
        decoded = decoded.sorted()
        times = grid.times()
        bounds = np.searchsorted(
            decoded.claim_index, np.arange(len(decoded.claim_ids) + 1)
        ).tolist()
        picks = [
            lo
            + np.maximum(
                np.searchsorted(decoded.times[lo:hi], times, side="right") - 1,
                0,
            )
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
        rows = np.concatenate(picks) if picks else np.zeros(0, np.intp)
        return Estimates(
            decoded.claim_ids,
            decoded.claim_index[rows],
            np.tile(times, len(picks)),
            decoded.codes[rows],
            decoded.confidences[rows],
        )


#: Factories for the full comparison set, keyed by paper name.
ALGORITHM_FACTORIES: dict[str, Callable[[], TruthDiscoveryAlgorithm]] = {
    "SSTD": SSTDAlgorithm,
    "DynaTD": DynaTD,
    "TruthFinder": TruthFinder,
    "RTD": RTD,
    "CATD": CATD,
    "Invest": Invest,
    "3-Estimates": ThreeEstimates,
    "MajorityVote": MajorityVote,
    "Median": MedianVote,
    "PooledInvest": PooledInvest,
    "SlidingVote": SlidingVote,
}

#: The seven methods compared in the paper's Tables III-V, in table order.
PAPER_TABLE_METHODS = (
    "SSTD",
    "DynaTD",
    "TruthFinder",
    "RTD",
    "CATD",
    "Invest",
    "3-Estimates",
)


def make_algorithm(name: str) -> TruthDiscoveryAlgorithm:
    """Instantiate an algorithm by its paper name."""
    try:
        factory = ALGORITHM_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHM_FACTORIES)}"
        ) from None
    return factory()


def paper_comparison_set() -> list[TruthDiscoveryAlgorithm]:
    """SSTD plus the six baselines, in the paper's table order."""
    return [make_algorithm(name) for name in PAPER_TABLE_METHODS]
