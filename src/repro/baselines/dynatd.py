"""DynaTD baseline (Li et al., KDD 2015 — "On the Discovery of Evolving Truth").

DynaTD is the strongest baseline in the paper: a *dynamic* truth
discovery scheme that processes the stream incrementally with a Maximum A
Posteriori update.  At each time step the posterior evidence for a claim
combines

- the decayed evidence from previous steps (the evolution prior: truth
  tends to persist), and
- a reliability-weighted vote over the reports of the current step.

Source reliabilities are updated online from agreement with the running
truth estimates, with exponential forgetting.  Unlike SSTD, DynaTD has no
explicit transition model learned per claim and does not use the
contribution-score components (uncertainty / independence), which is
where SSTD's accuracy edge comes from in the paper's evaluation.
"""

from __future__ import annotations

import collections
import math
from typing import Sequence

from repro.baselines.base import EvaluationGrid, TruthDiscoveryAlgorithm
from repro.core.types import Report, TruthEstimate, TruthValue

__all__ = [
    "DynaTD",
]

_EPS = 1e-9

#: Forgetting factor of accumulated claim evidence per step; 1.0 would
#: never forget (static), 0.0 would trust only the current step.
DECAY = 0.7
#: Learning rate of the per-source reliability EMA.
RELIABILITY_LR = 0.1
#: Reliability prior for unseen sources.
INITIAL_RELIABILITY = 0.6


class DynaTD(TruthDiscoveryAlgorithm):
    """Streaming MAP truth discovery with evolving source reliability."""

    name = "DynaTD"

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Clear all streaming state (evidence and reliabilities)."""
        self._evidence: dict[str, float] = collections.defaultdict(float)
        self._reliability: dict[str, float] = {}
        self._truth: dict[str, TruthValue] = {}

    # ------------------------------------------------------------------
    # Streaming API
    # ------------------------------------------------------------------
    def step(self, reports: Sequence[Report], now: float) -> list[TruthEstimate]:
        """Consume one time-step of reports, emit current estimates.

        ``reports`` are the reports that arrived since the previous step.
        """
        votes: dict[str, list[tuple[str, float]]] = collections.defaultdict(list)
        for report in reports:
            if report.attitude:
                votes[report.claim_id].append(
                    (report.source_id, float(report.attitude))
                )

        # Decay all accumulated evidence (evolution prior).
        for claim_id in self._evidence:
            self._evidence[claim_id] *= DECAY

        # Reliability-weighted vote of the current step, in log-odds form.
        for claim_id, claim_votes in votes.items():
            step_evidence = 0.0
            for source_id, sign in claim_votes:
                rel = self._reliability.get(source_id, INITIAL_RELIABILITY)
                rel = min(max(rel, _EPS), 1.0 - _EPS)
                step_evidence += sign * math.log(rel / (1.0 - rel))
            self._evidence[claim_id] += step_evidence

        # New truth decisions.
        for claim_id in votes:
            self._truth[claim_id] = (
                TruthValue.TRUE
                if self._evidence[claim_id] > 0
                else TruthValue.FALSE
            )

        # Online reliability update from agreement with the new truth.
        for claim_id, claim_votes in votes.items():
            truth_sign = 1.0 if self._truth[claim_id] is TruthValue.TRUE else -1.0
            for source_id, sign in claim_votes:
                agreed = 1.0 if sign == truth_sign else 0.0
                old = self._reliability.get(source_id, INITIAL_RELIABILITY)
                self._reliability[source_id] = (
                    1.0 - RELIABILITY_LR
                ) * old + RELIABILITY_LR * agreed

        estimates = []
        for claim_id in sorted(self._truth):
            evidence = self._evidence[claim_id]
            confidence = 1.0 - math.exp(-abs(evidence)) if evidence else 0.0
            estimates.append(
                TruthEstimate(
                    claim_id=claim_id,
                    timestamp=now,
                    value=self._truth[claim_id],
                    confidence=confidence,
                )
            )
        return estimates

    def source_reliability(self, source_id: str) -> float:
        """Current reliability estimate for ``source_id``."""
        return self._reliability.get(source_id, INITIAL_RELIABILITY)

    # ------------------------------------------------------------------
    # Batch-compatible API: replay the trace through the streaming core
    # ------------------------------------------------------------------
    def discover(
        self, reports: Sequence[Report], grid: EvaluationGrid
    ) -> list[TruthEstimate]:
        self.reset()
        ordered = sorted(reports, key=lambda report: report.timestamp)
        estimates: list[TruthEstimate] = []
        cursor = 0
        for t in grid.times():
            batch = []
            while cursor < len(ordered) and ordered[cursor].timestamp <= t:
                batch.append(ordered[cursor])
                cursor += 1
            estimates.extend(self.step(batch, float(t)))
        return estimates
