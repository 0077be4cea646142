"""Shared interface and helpers for truth discovery algorithms.

All algorithms — SSTD and the six baselines of paper Section V-A1 —
consume a sequence of :class:`~repro.core.types.Report` and emit
:class:`~repro.core.types.TruthEstimate` points on a common evaluation
grid, so the metrics module can score them identically.

Batch (static) algorithms such as TruthFinder estimate *one* truth value
per claim from the whole trace; :class:`BatchTruthDiscovery` replicates
that value across the evaluation grid.  This mirrors the paper's
evaluation: static schemes are inherently penalized on traces whose
ground truth changes over time, which is exactly the phenomenon the
dynamic-truth experiments measure.
"""

from __future__ import annotations

import abc
import collections
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.acs import ACSConfig
from repro.core.types import Report, TruthEstimate, TruthValue

__all__ = [
    "BatchTruthDiscovery",
    "EvaluationGrid",
    "TruthDiscoveryAlgorithm",
    "group_by_claim",
    "positive_fraction_decision",
    "source_claim_votes",
]


@dataclass(frozen=True, slots=True)
class EvaluationGrid:
    """Regular grid of timestamps on which estimates are emitted."""

    start: float
    end: float
    step: float = 60.0

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.end < self.start:
            raise ValueError(f"end {self.end} before start {self.start}")

    def times(self) -> np.ndarray:
        """Grid timestamps: ``start + step, start + 2*step, ...``

        The SSTD observation grid (:meth:`ACSConfig.grid`) at this step.
        """
        return ACSConfig(step=self.step).grid(self.start, self.end)

    @classmethod
    def from_reports(
        cls, reports: Sequence[Report], step: float = 60.0
    ) -> "EvaluationGrid":
        if not reports:
            raise ValueError("cannot build a grid from zero reports")
        timestamps = [report.timestamp for report in reports]
        return cls(start=min(timestamps), end=max(timestamps), step=step)


def group_by_claim(reports: Iterable[Report]) -> dict[str, list[Report]]:
    """Reports partitioned by claim, each sorted by time."""
    grouped: dict[str, list[Report]] = collections.defaultdict(list)
    for report in reports:
        grouped[report.claim_id].append(report)
    for claim_reports in grouped.values():
        claim_reports.sort(key=lambda report: report.timestamp)
    return dict(grouped)


def source_claim_votes(
    reports: Iterable[Report],
) -> dict[tuple[str, str], int]:
    """Net attitude of each (source, claim) pair.

    A source that reported a claim several times votes once, with the
    sign of its cumulative attitude — the standard reduction from report
    streams to the source-claim matrix that the classic batch algorithms
    (TruthFinder, Invest, 3-Estimates, CATD) operate on.
    """
    net: dict[tuple[str, str], float] = collections.defaultdict(float)
    for report in reports:
        net[(report.source_id, report.claim_id)] += float(report.attitude)
    votes = {}
    for key, value in net.items():
        if value > 0:
            votes[key] = 1
        elif value < 0:
            votes[key] = -1
    return votes


class TruthDiscoveryAlgorithm(abc.ABC):
    """Common API of every truth discovery scheme in this repository."""

    #: Human-readable name used in the results tables.
    name: str = "base"

    @abc.abstractmethod
    def discover(
        self, reports: Sequence[Report], grid: EvaluationGrid
    ) -> list[TruthEstimate]:
        """Estimate the truth of every claim at every grid timestamp."""


class BatchTruthDiscovery(TruthDiscoveryAlgorithm):
    """Base class for static algorithms: one decision per claim.

    Subclasses implement :meth:`estimate_claims`, mapping the full trace
    to one :class:`TruthValue` (and confidence) per claim; the base class
    replicates it over the grid.
    """

    @abc.abstractmethod
    def estimate_claims(
        self, reports: Sequence[Report]
    ) -> Mapping[str, tuple[TruthValue, float]]:
        """Single truth decision (value, confidence) per claim."""

    def discover(
        self, reports: Sequence[Report], grid: EvaluationGrid
    ) -> list[TruthEstimate]:
        decisions = self.estimate_claims(reports)
        times = grid.times()
        estimates = []
        for claim_id in sorted(decisions):
            value, confidence = decisions[claim_id]
            for t in times:
                estimates.append(
                    TruthEstimate(
                        claim_id=claim_id,
                        timestamp=float(t),
                        value=value,
                        confidence=confidence,
                    )
                )
        return estimates


def positive_fraction_decision(score: float) -> TruthValue:
    """Map a signed aggregate score to a truth decision (ties -> FALSE)."""
    return TruthValue.TRUE if score > 0 else TruthValue.FALSE
