"""Shared interface and helpers for truth discovery algorithms.

All algorithms — SSTD and the six baselines of paper Section V-A1 —
take a sequence of :class:`~repro.core.types.Report` and emit
:class:`~repro.core.types.TruthEstimate` points on a common evaluation
grid, so the metrics module can score them identically.  The
source-aware baselines read the reports once into :class:`Votes`, the
sources x claims vote matrix, and run on its columns; the source-free
ones read the claim-grouped :class:`~repro.core.acs.ReportTable` that
SSTD reads.

Batch (static) algorithms such as TruthFinder estimate *one* truth value
per claim from the whole trace; :class:`BatchTruthDiscovery` replicates
that value across the evaluation grid.  This mirrors the paper's
evaluation: static schemes are inherently penalized on traces whose
ground truth changes over time, which is exactly the phenomenon the
dynamic-truth experiments measure.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.acs import ACSConfig
from repro.core.types import Report, TruthEstimate, TruthValue

__all__ = [
    "BatchTruthDiscovery",
    "EvaluationGrid",
    "TruthDiscoveryAlgorithm",
    "Votes",
    "positive_fraction_decision",
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


@dataclass(frozen=True, eq=False)
class Votes:
    """The sources x claims vote matrix, as COO columns.

    Vote ``k`` is source ``sources[rows[k]]`` on claim ``claims[cols[k]]``
    with net value ``values[k]`` and sign ``signs[k]`` (``+1.0`` or
    ``-1.0``).  Votes are ordered by the first report of their pair,
    sources are numbered by their first vote and claims are sorted.
    ``np.bincount`` over these columns adds in vote order, so a
    per-claim or per-source total has the bits a loop over the pairs
    would give.
    """

    sources: tuple[str, ...]
    claims: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    signs: np.ndarray

    @classmethod
    def from_reports(
        cls, reports: Sequence[Report], value: np.ndarray
    ) -> Votes:
        """Net ``value`` (one entry per report) of each (source, claim) pair.

        A source that reported a claim several times votes once, with
        its cumulative value; a pair whose values cancel exactly (or
        are all 0, as neutral reports are) casts no vote.
        """
        index: dict[tuple[str, str], int] = {}
        pair = np.fromiter(
            (
                index.setdefault(
                    (report.source_id, report.claim_id), len(index)
                )
                for report in reports
            ),
            np.intp,
            len(value),
        )
        net = np.bincount(pair, weights=value)
        kept = np.flatnonzero(net)
        keys = list(index)
        voters = [keys[k] for k in kept.tolist()]
        source_of: dict[str, int] = {}
        rows = np.fromiter(
            (source_of.setdefault(s, len(source_of)) for s, _ in voters),
            np.intp,
            len(voters),
        )
        claims = tuple(sorted({claim_id for _, claim_id in voters}))
        claim_of = {claim_id: j for j, claim_id in enumerate(claims)}
        values = net[kept]
        return cls(
            sources=tuple(source_of),
            claims=claims,
            rows=rows,
            cols=np.fromiter(
                (claim_of[c] for _, c in voters), np.intp, len(voters)
            ),
            values=values,
            signs=np.sign(values),
        )

    def __len__(self) -> int:
        return self.values.size

    @property
    def facts(self) -> np.ndarray:
        """Fact of each vote, indexing the two exclusive facts of a claim.

        ``2 * claim`` is "the claim is true" (positive votes) and
        ``2 * claim + 1`` is "the claim is false" (negative votes).
        """
        return 2 * self.cols + (self.signs < 0)


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
