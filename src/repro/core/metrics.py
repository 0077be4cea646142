"""Evaluation metrics for dynamic truth discovery (paper Section V-B1).

The paper scores each method on Accuracy, Precision, Recall and F1 over
(claim, interval) decisions: the estimate of a claim's truth in each
evaluation interval is compared with the ground-truth timeline.  This
module provides the confusion-matrix arithmetic plus the interval-level
alignment between a set of :class:`~repro.core.types.TruthEstimate` and
ground-truth :class:`~repro.core.types.TruthTimeline` objects.  The
alignment reads the estimates as columns (:class:`Estimates`), one claim
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.columns import Estimates
from repro.core.types import TruthEstimate, TruthTimeline, TruthValue

__all__ = [
    "ConfusionMatrix",
    "EvaluationResult",
    "evaluate_estimates",
    "evaluate_per_claim",
    "format_results_table",
    "hardest_claims",
]


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """Binary confusion counts with TRUE as the positive class."""

    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        for name in ("tp", "fp", "tn", "fn"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        """Fraction of correct decisions; 0.0 on an empty matrix."""
        return (self.tp + self.tn) / self.total if self.total else 0.0

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 0.0 when nothing was predicted positive."""
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 0.0 when there are no positives."""
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall; 0.0 when undefined."""
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) else 0.0

    def __add__(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        return ConfusionMatrix(
            tp=self.tp + other.tp,
            fp=self.fp + other.fp,
            tn=self.tn + other.tn,
            fn=self.fn + other.fn,
        )

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[TruthValue, TruthValue]]
    ) -> "ConfusionMatrix":
        """Build from ``(predicted, actual)`` pairs."""
        tp = fp = tn = fn = 0
        for predicted, actual in pairs:
            if predicted is TruthValue.TRUE:
                if actual is TruthValue.TRUE:
                    tp += 1
                else:
                    fp += 1
            else:
                if actual is TruthValue.TRUE:
                    fn += 1
                else:
                    tn += 1
        return cls(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass(frozen=True, slots=True)
class EvaluationResult:
    """Aggregated metrics for one algorithm on one trace."""

    method: str
    matrix: ConfusionMatrix

    @property
    def accuracy(self) -> float:
        return self.matrix.accuracy

    @property
    def precision(self) -> float:
        return self.matrix.precision

    @property
    def recall(self) -> float:
        return self.matrix.recall

    @property
    def f1(self) -> float:
        return self.matrix.f1

    def as_row(self) -> dict[str, float | str]:
        """Row for the paper-style results tables (Tables III-V)."""
        return {
            "method": self.method,
            "accuracy": round(self.accuracy, 3),
            "precision": round(self.precision, 3),
            "recall": round(self.recall, 3),
            "f1": round(self.f1, 3),
        }


def _claim_matrices(
    estimates: Iterable[TruthEstimate],
    timelines: Mapping[str, TruthTimeline],
) -> dict[str, ConfusionMatrix]:
    """Confusion counts of every labelled claim, in order of its first
    estimate; a claim's truth comes from one
    :meth:`~repro.core.types.TruthTimeline.codes_at` call."""
    columns = Estimates.of(estimates)
    matrices: dict[str, ConfusionMatrix] = {}
    for k in dict.fromkeys(columns.claim_index.tolist()):
        timeline = timelines.get(columns.claim_ids[k])
        if timeline is None:
            continue
        rows = columns.claim_index == k
        truth = timeline.codes_at(columns.times[rows])
        # Cell 2 * predicted + actual: TN, FN, FP, TP.
        tn, fn, fp, tp = np.bincount(
            2 * columns.codes[rows] + truth, minlength=4
        ).tolist()
        matrices[timeline.claim_id] = ConfusionMatrix(tp, fp, tn, fn)
    return matrices


def evaluate_estimates(
    method: str,
    estimates: Iterable[TruthEstimate],
    timelines: Mapping[str, TruthTimeline],
) -> EvaluationResult:
    """Score point estimates against ground-truth timelines.

    Each estimate is compared with the ground truth of its claim at its
    timestamp.  Estimates for claims without a ground-truth timeline are
    skipped (real traces can contain unlabelled claims).
    """
    return EvaluationResult(
        method=method,
        matrix=sum(
            _claim_matrices(estimates, timelines).values(), ConfusionMatrix()
        ),
    )


def evaluate_per_claim(
    method: str,
    estimates: Iterable[TruthEstimate],
    timelines: Mapping[str, TruthTimeline],
) -> dict[str, EvaluationResult]:
    """Per-claim breakdown of :func:`evaluate_estimates`.

    Useful for diagnosing *which* claims an algorithm fails on — e.g.
    fast-flipping claims vs static ones, or sparse vs popular.
    """
    return {
        claim_id: EvaluationResult(method=method, matrix=matrix)
        for claim_id, matrix in _claim_matrices(estimates, timelines).items()
    }


def hardest_claims(
    per_claim: Mapping[str, EvaluationResult], worst_k: int = 5
) -> list[tuple[str, float]]:
    """Claims with the lowest accuracy, worst first."""
    ranked = sorted(
        ((claim_id, result.accuracy) for claim_id, result in per_claim.items()),
        key=lambda pair: pair[1],
    )
    return ranked[:worst_k]


def format_results_table(
    results: Sequence[EvaluationResult], title: str = ""
) -> str:
    """Render results in the layout of the paper's Tables III-V."""
    lines = []
    if title:
        lines.append(title)
    header = f"{'Method':<14}{'Accuracy':>10}{'Precision':>11}{'Recall':>9}{'F1':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for result in results:
        lines.append(
            f"{result.method:<14}{result.accuracy:>10.3f}"
            f"{result.precision:>11.3f}{result.recall:>9.3f}{result.f1:>8.3f}"
        )
    return "\n".join(lines)
