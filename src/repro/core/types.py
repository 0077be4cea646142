"""Core data model for social sensing truth discovery.

The paper (Section II) formulates social sensing as a group of *M* sources
``S = (S1..SM)`` reporting a set of *N* binary claims ``C = (C1..CN)``.
A :class:`Report` is one observation ``R[t][i][u]`` made by source ``Si``
about claim ``Cu`` at time ``t``.  Claims carry a *dynamic* ground truth:
the truth value of a claim may flip over time, so truth labels are indexed
by ``(claim, time)`` rather than by claim alone.

All records are plain frozen dataclasses so they can be hashed, compared,
serialized and used as dictionary keys without surprises.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "Attitude",
    "Claim",
    "Report",
    "Source",
    "TruthEstimate",
    "TruthLabel",
    "TruthTimeline",
    "TruthValue",
]


class TruthValue(enum.IntEnum):
    """The binary truth value of a claim at a time instant.

    The paper restricts claims to binary values (Section II): at any time
    instant a claim is either true or false, never both.
    """

    FALSE = 0
    TRUE = 1

    @classmethod
    def from_bool(cls, value: bool) -> "TruthValue":
        """Convert a Python bool into a :class:`TruthValue`."""
        return cls.TRUE if value else cls.FALSE

    def __bool__(self) -> bool:  # pragma: no cover - trivial
        return self is TruthValue.TRUE


class Attitude(enum.IntEnum):
    """Attitude score rho of a report (paper Definition 1).

    ``+1`` means the source asserts the claim is true, ``-1`` that it is
    false, and ``0`` that the source mentioned the claim without taking a
    position (or made no report).
    """

    DISAGREE = -1
    NEUTRAL = 0
    AGREE = 1


@dataclass(frozen=True, slots=True)
class Source:
    """A social sensor (e.g. one Twitter user).

    Attributes:
        source_id: Stable unique identifier.
        reliability: Optional ground-truth reliability in ``[0, 1]`` used
            by synthetic generators; real traces leave it ``None`` because
            source reliability is exactly what truth discovery must infer.
        is_spreader: Whether the synthetic generator marked this source as
            a misinformation spreader (propagates rumors).
    """

    source_id: str
    reliability: Optional[float] = None
    is_spreader: bool = False

    def __post_init__(self) -> None:
        if not self.source_id:
            raise ValueError("source_id must be a non-empty string")
        if self.reliability is not None and not 0.0 <= self.reliability <= 1.0:
            raise ValueError(
                f"reliability must be in [0, 1], got {self.reliability!r}"
            )


@dataclass(frozen=True, slots=True)
class Claim:
    """A statement about the physical world whose truth evolves over time.

    Attributes:
        claim_id: Stable unique identifier.
        text: Representative text of the claim (cluster centroid text for
            claims derived from tweets).
        topic: Free-form topic tag (e.g. ``"score-change"``).
    """

    claim_id: str
    text: str = ""
    topic: str = ""

    def __post_init__(self) -> None:
        if not self.claim_id:
            raise ValueError("claim_id must be a non-empty string")


@dataclass(frozen=True, slots=True)
class Report:
    """One observation by a source about a claim at a time instant.

    ``attitude``, ``uncertainty`` and ``independence`` are the three
    components of the contribution score (paper Definitions 1-3 and
    Eq. (1)); they are typically filled in by the text pipeline
    (:mod:`repro.text`) or by the synthetic generator.

    Attributes:
        source_id: The reporting source.
        claim_id: The claim being reported on.
        timestamp: Seconds since the start of the trace (float).
        attitude: Attitude score rho in ``{-1, 0, +1}``.
        uncertainty: Uncertainty score kappa in ``[0, 1)``; higher means
            the report hedges more.
        independence: Independence score eta in ``(0, 1]``; lower means the
            report is likely copied (e.g. a retweet).
        text: Raw text of the report, when available.
        is_retweet: Marker used by the independence scorer.
    """

    source_id: str
    claim_id: str
    timestamp: float
    attitude: Attitude = Attitude.NEUTRAL
    uncertainty: float = 0.0
    independence: float = 1.0
    text: str = ""
    is_retweet: bool = False

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")
        if not 0.0 <= self.uncertainty < 1.0:
            raise ValueError(
                f"uncertainty must be in [0, 1), got {self.uncertainty}"
            )
        if not 0.0 < self.independence <= 1.0:
            raise ValueError(
                f"independence must be in (0, 1], got {self.independence}"
            )

    @property
    def contribution_score(self) -> float:
        """Contribution score ``CS = rho * (1 - kappa) * eta`` (Eq. (1))."""
        return float(self.attitude) * (1.0 - self.uncertainty) * self.independence

    def with_scores(
        self,
        attitude: Optional[Attitude] = None,
        uncertainty: Optional[float] = None,
        independence: Optional[float] = None,
    ) -> "Report":
        """Return a copy with some score components replaced."""
        changes = {}
        if attitude is not None:
            changes["attitude"] = attitude
        if uncertainty is not None:
            changes["uncertainty"] = uncertainty
        if independence is not None:
            changes["independence"] = independence
        return replace(self, **changes)


@dataclass(frozen=True, slots=True)
class TruthLabel:
    """Ground truth of one claim over a half-open time interval.

    A claim's dynamic ground truth is a piecewise-constant function of
    time, represented as a sequence of labels whose intervals partition
    the trace duration.
    """

    claim_id: str
    start: float
    end: float
    value: TruthValue

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"label interval must be non-empty: [{self.start}, {self.end})"
            )

    def covers(self, timestamp: float) -> bool:
        """Whether ``timestamp`` falls inside ``[start, end)``."""
        return self.start <= timestamp < self.end


class TruthTimeline:
    """Piecewise-constant ground truth of a single claim.

    Wraps an ordered list of :class:`TruthLabel` covering contiguous,
    non-overlapping intervals, and answers point queries.
    """

    def __init__(self, claim_id: str, labels: Iterable[TruthLabel]) -> None:
        ordered = sorted(labels, key=lambda lab: lab.start)
        if not ordered:
            raise ValueError("a truth timeline needs at least one label")
        for label in ordered:
            if label.claim_id != claim_id:
                raise ValueError(
                    f"label for claim {label.claim_id!r} added to timeline "
                    f"of claim {claim_id!r}"
                )
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end:
                raise ValueError(
                    f"overlapping truth labels for claim {claim_id!r}: "
                    f"[{prev.start}, {prev.end}) and [{cur.start}, {cur.end})"
                )
        self.claim_id = claim_id
        self._labels = ordered

    @property
    def labels(self) -> tuple[TruthLabel, ...]:
        """The ordered labels of this timeline."""
        return tuple(self._labels)

    @property
    def start(self) -> float:
        return self._labels[0].start

    @property
    def end(self) -> float:
        return self._labels[-1].end

    def value_at(self, timestamp: float) -> TruthValue:
        """Ground truth at ``timestamp``.

        Times before the first label clamp to the first value; times at or
        after the last interval clamp to the last value.  This makes the
        timeline total, which is what evaluation needs when report
        timestamps straggle slightly outside the labelled range.
        """
        if timestamp < self._labels[0].start:
            return self._labels[0].value
        for label in self._labels:
            if label.covers(timestamp):
                return label.value
        return self._labels[-1].value

    def codes_at(self, timestamps: np.ndarray) -> np.ndarray:
        """:meth:`value_at` of every timestamp, as int8 truth codes.

        The only label that can cover ``t`` is the last one starting at
        or before it, so one ``searchsorted`` finds every candidate.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        labels = self._labels
        starts = np.array([label.start for label in labels])
        ends = np.array([label.end for label in labels])
        index = np.searchsorted(starts, timestamps, side="right") - 1
        before = index < 0
        index[timestamps >= ends[index]] = -1  # a gap or the tail: the last
        index[before] = 0
        return np.array([label.value for label in labels], np.int8)[index]

    def transition_times(self) -> list[float]:
        """Times at which the ground truth actually changes value."""
        times = []
        for prev, cur in zip(self._labels, self._labels[1:]):
            if cur.value != prev.value:
                times.append(cur.start)
        return times

    def __iter__(self) -> Iterator[TruthLabel]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TruthTimeline(claim_id={self.claim_id!r}, "
            f"labels={len(self._labels)}, span=[{self.start}, {self.end}))"
        )


@dataclass(frozen=True, slots=True)
class TruthEstimate:
    """One algorithm's estimate of a claim's truth at a time instant."""

    claim_id: str
    timestamp: float
    value: TruthValue
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(
                f"confidence must be in [0, 1], got {self.confidence}"
            )
