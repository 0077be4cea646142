"""End-to-end social sensing application (the paper's Figure 2, runnable).

Wires the truth layers into one object: scored reports come in, truth
timelines and source diagnostics come out.

    reports -> StreamingSSTD engine -> estimates
                      |                     |
           DeadlineTracker (QoS)    ReliabilityEstimator

The application consumes time-ordered batches of reports (e.g. from a
:class:`~repro.streams.replay.StreamReplayer`, or raw tweets from a
crawler scored by :class:`repro.text.pipeline.TweetPipeline`), ticks
the truth engine once per batch, tracks per-batch
processing time against a soft deadline, and exposes the current state
— per-claim verdicts, flip history, source reliability, misinformation
suspects — the way a deployed dashboard would query it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.acs import ACSConfig
from repro.obs import Clock, WallClock
from repro.core.reliability import (
    ReliabilityEstimator,
    SourceReliability,
    rank_spreaders,
)
from repro.core.sstd import SSTDConfig, StreamingSSTD
from repro.core.types import Report, TruthEstimate, TruthValue
from repro.system.deadline import DeadlineTracker

__all__ = [
    "ApplicationConfig",
    "FlipEvent",
    "SocialSensingApplication",
]


@dataclass(frozen=True, slots=True)
class ApplicationConfig:
    """Deployment knobs of the end-to-end application.

    Attributes:
        sstd: Truth-engine configuration (window sized to the event's
            expected truth-change frequency, §III-B).
        deadline: Soft per-batch processing deadline in seconds
            (wall-clock; the QoS target of §IV-C1).
        retrain_every: Streaming engine retrain cadence (ticks).
    """

    sstd: SSTDConfig = field(
        default_factory=lambda: SSTDConfig(
            acs=ACSConfig(window=600.0, step=60.0), min_observations=4
        )
    )
    deadline: float = 1.0
    retrain_every: int = 10

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")


@dataclass(frozen=True, slots=True)
class FlipEvent:
    """A live verdict change on one claim."""

    claim_id: str
    at: float
    new_value: TruthValue


class SocialSensingApplication:
    """The full SSTD application loop over a tweet stream."""

    def __init__(
        self,
        config: ApplicationConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.config = config or ApplicationConfig()
        self.clock: Clock = clock if clock is not None else WallClock()
        self.engine = StreamingSSTD(
            self.config.sstd, retrain_every=self.config.retrain_every
        )
        self.tracker = DeadlineTracker(deadline=self.config.deadline)
        self.flips: list[FlipEvent] = []
        self._verdicts: dict[str, TruthValue] = {}
        self._reports: list[Report] = []
        self._estimates: list[TruthEstimate] = []
        self._batch_index = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_reports(self, reports: Sequence[Report], now: float) -> int:
        """Ingest pre-scored reports and tick the truth engine; returns
        how many were ingested.  ``now`` is the stream time of the batch
        end.

        Wall-clock processing time is recorded against the deadline.
        """
        started = self.clock.now()
        for report in reports:
            self.engine.push(report)
            self._reports.append(report)
        estimates = list(self.engine.tick(now))
        self._estimates.extend(estimates)
        for estimate in estimates:
            previous = self._verdicts.get(estimate.claim_id)
            if previous is not None and previous != estimate.value:
                self.flips.append(
                    FlipEvent(
                        claim_id=estimate.claim_id,
                        at=now,
                        new_value=estimate.value,
                    )
                )
            self._verdicts[estimate.claim_id] = estimate.value
        elapsed = self.clock.now() - started
        self.tracker.record(self._batch_index, len(reports), elapsed)
        self._batch_index += 1
        return len(reports)

    # ------------------------------------------------------------------
    # Queries (the dashboard surface)
    # ------------------------------------------------------------------
    def verdicts(self) -> Mapping[str, TruthValue]:
        """Current truth verdict per claim."""
        return dict(self._verdicts)

    def estimates_for(self, claim_id: str) -> list[TruthEstimate]:
        """Full estimate history of one claim, time-ordered."""
        return sorted(
            (e for e in self._estimates if e.claim_id == claim_id),
            key=lambda e: e.timestamp,
        )

    def true_claims(self) -> list[str]:
        return sorted(
            claim_id
            for claim_id, value in self._verdicts.items()
            if value is TruthValue.TRUE
        )

    def source_reliabilities(self) -> dict[str, SourceReliability]:
        """Posterior reliability of every scored source."""
        return ReliabilityEstimator().estimate(self._reports, self._estimates)

    def suspected_spreaders(self, top_k: int = 10) -> list[SourceReliability]:
        """Most likely misinformation spreaders so far."""
        return rank_spreaders(self.source_reliabilities(), top_k=top_k)

    @property
    def qos_hit_rate(self) -> float:
        """Fraction of batches processed within the deadline."""
        return self.tracker.hit_rate

    @property
    def n_claims(self) -> int:
        return len(self._verdicts)

    @property
    def n_reports(self) -> int:
        return len(self._reports)

    def status_line(self) -> str:
        """One-line operational summary."""
        return (
            f"claims={self.n_claims} reports={self.n_reports} "
            f"true={len(self.true_claims())} flips={len(self.flips)} "
            f"qos={self.qos_hit_rate:.0%}"
        )
