"""Sliding-window majority voting — a cheap dynamic baseline.

The paper positions majority voting as the "very fast but low accuracy"
end of the spectrum (§II); its natural dynamic variant votes over a
sliding window so old reports age out, which lets it track truth
changes without any model.  It serves the benches as a lower bound for
the *dynamic* schemes: a dynamic method that cannot beat windowed
voting adds no value over the trivial approach.
"""

from __future__ import annotations

import collections
from typing import Sequence

from repro.baselines.base import EvaluationGrid, TruthDiscoveryAlgorithm
from repro.core.types import Report, TruthEstimate, TruthValue

__all__ = [
    "SlidingVote",
]

#: Window length as a multiple of the evaluation grid step.
WINDOW_STEPS = 2.0


class SlidingVote(TruthDiscoveryAlgorithm):
    """Majority vote over a sliding time window, per claim.

    An empty window keeps the previous verdict.
    """

    name = "SlidingVote"

    def discover(
        self, reports: Sequence[Report], grid: EvaluationGrid
    ) -> list[TruthEstimate]:
        window = WINDOW_STEPS * grid.step
        by_claim: dict[str, list[Report]] = collections.defaultdict(list)
        for report in reports:
            by_claim[report.claim_id].append(report)

        estimates: list[TruthEstimate] = []
        times = grid.times()
        for claim_id in sorted(by_claim):
            ordered = sorted(
                by_claim[claim_id], key=lambda report: report.timestamp
            )
            queue: collections.deque[tuple[float, int]] = collections.deque()
            net = 0
            count = 0
            cursor = 0
            current = TruthValue.FALSE
            for t in times:
                while cursor < len(ordered) and ordered[cursor].timestamp <= t:
                    vote = int(ordered[cursor].attitude)
                    queue.append((ordered[cursor].timestamp, vote))
                    net += vote
                    count += abs(vote)
                    cursor += 1
                while queue and queue[0][0] <= t - window:
                    _, vote = queue.popleft()
                    net -= vote
                    count -= abs(vote)
                if count > 0:
                    current = (
                        TruthValue.TRUE if net > 0 else TruthValue.FALSE
                    )
                confidence = abs(net) / count if count else 0.0
                estimates.append(
                    TruthEstimate(
                        claim_id=claim_id,
                        timestamp=float(t),
                        value=current,
                        confidence=min(confidence, 1.0),
                    )
                )
        return estimates
