"""Sliding-window majority voting — a cheap dynamic baseline.

The paper positions majority voting as the "very fast but low accuracy"
end of the spectrum (§II); its natural dynamic variant votes over a
sliding window so old reports age out, which lets it track truth
changes without any model.  It serves the benches as a lower bound for
the *dynamic* schemes: a dynamic method that cannot beat windowed
voting adds no value over the trivial approach.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import EvaluationGrid, TruthDiscoveryAlgorithm
from repro.core.acs import ReportTable
from repro.core.scores import ATTITUDE_ONLY
from repro.core.types import Report, TruthEstimate, TruthValue

__all__ = [
    "SlidingVote",
]

#: Window length as a multiple of the evaluation grid step.
WINDOW_STEPS = 2.0


class SlidingVote(TruthDiscoveryAlgorithm):
    """Majority vote over a sliding time window, per claim.

    The window at grid time ``t`` holds the reports in
    ``(t - window, t]``.  An empty window keeps the previous verdict.
    """

    name = "SlidingVote"

    def discover(
        self, reports: Sequence[Report], grid: EvaluationGrid
    ) -> list[TruthEstimate]:
        table = ReportTable.from_reports(reports, ATTITUDE_ONLY)
        times = grid.times()
        opens = times - WINDOW_STEPS * grid.step
        net_prefix = np.concatenate([[0.0], np.cumsum(table.scores)])
        heard_prefix = np.concatenate([[0.0], np.cumsum(np.abs(table.scores))])
        estimates: list[TruthEstimate] = []
        for k, claim_id in enumerate(table.claim_ids):
            first, last = table.offsets[k], table.offsets[k + 1]
            claim_times = table.times[first:last]
            lo = first + np.searchsorted(claim_times, opens, side="right")
            hi = first + np.searchsorted(claim_times, times, side="right")
            net = net_prefix[hi] - net_prefix[lo]
            count = heard_prefix[hi] - heard_prefix[lo]
            # Carry the verdict of the last non-empty window forward.
            last_heard = np.maximum.accumulate(
                np.where(count > 0, np.arange(times.size), -1)
            )
            says_true = (net > 0)[last_heard] & (last_heard >= 0)
            confidence = np.abs(net) / np.where(count > 0, count, 1.0)
            for t, true, conf in zip(
                times.tolist(), says_true.tolist(), confidence.tolist()
            ):
                estimates.append(
                    TruthEstimate(
                        claim_id=claim_id,
                        timestamp=t,
                        value=TruthValue.TRUE if true else TruthValue.FALSE,
                        confidence=min(conf, 1.0),
                    )
                )
        return estimates
