"""Trace container: a full social sensing dataset plus ground truth.

A :class:`Trace` bundles everything one evaluation run needs — the
report stream, the source and claim populations, and the ground-truth
timelines — together with the summary statistics reported in the paper's
Table II and JSONL (de)serialization so generated traces can be cached on
disk and shared between benchmarks.

The report stream is a :class:`~repro.core.columns.Reports`: an
immutable, time-ordered tuple of :class:`Report` objects that also
carries their claim, time and score columns, so batch passes over a
trace (``SSTD.discover``, ``DistributedSSTD.run_batch``, the
source-free baselines) read no report object.  The generator writes
the columns directly; a trace built from a report list (or loaded, cut
by :meth:`Trace.subset`, or merged) reads them once.  ``Trace`` sorts a
copy of the reports it is given, never the caller's list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.core.columns import Reports
from repro.core.types import (
    Attitude,
    Claim,
    Report,
    Source,
    TruthLabel,
    TruthTimeline,
    TruthValue,
)

__all__ = [
    "Trace",
    "TraceStats",
    "merge_traces",
]

_TIMESTAMP = attrgetter("timestamp")


@dataclass(frozen=True, slots=True)
class TraceStats:
    """Summary statistics in the shape of the paper's Table II."""

    name: str
    duration_seconds: float
    n_reports: int
    n_sources: int
    n_claims: int

    @property
    def duration_days(self) -> float:
        return self.duration_seconds / 86_400.0

    def as_row(self) -> dict[str, object]:
        return {
            "data_trace": self.name,
            "time_duration_days": round(self.duration_days, 2),
            "#_of_reports": self.n_reports,
            "#_of_sources": self.n_sources,
            "#_of_claims": self.n_claims,
        }


@dataclass
class Trace:
    """A social sensing data trace with ground truth.

    Attributes:
        name: Scenario name (e.g. ``"Boston Bombing"``).
        reports: All reports, sorted by timestamp (ties keep their
            input order).  Any iterable of reports is accepted and
            stored as :class:`~repro.core.columns.Reports`; one that is
            already time-ordered ``Reports`` is kept as is.
        sources: Source population keyed by source id.
        claims: Claim set keyed by claim id.
        timelines: Ground-truth timeline per claim id.
    """

    name: str
    reports: Reports
    sources: dict[str, Source] = field(default_factory=dict)
    claims: dict[str, Claim] = field(default_factory=dict)
    timelines: dict[str, TruthTimeline] = field(default_factory=dict)

    def __post_init__(self) -> None:
        reports = self.reports
        if not (
            isinstance(reports, Reports)
            and not np.any(np.diff(reports.columns.times) < 0)
        ):
            self.reports = Reports.of(sorted(reports, key=_TIMESTAMP))

    @property
    def start(self) -> float:
        times = self.reports.columns.times
        return float(times[0]) if times.size else 0.0

    @property
    def end(self) -> float:
        times = self.reports.columns.times
        return float(times[-1]) if times.size else 0.0

    def stats(self) -> TraceStats:
        """Table II row for this trace."""
        return TraceStats(
            name=self.name,
            duration_seconds=self.end - self.start,
            n_reports=len(self.reports),
            n_sources=len({report.source_id for report in self.reports}),
            n_claims=len(self.reports.columns.claim_ids),
        )

    def subset(self, max_reports: int) -> "Trace":
        """Prefix of the trace with at most ``max_reports`` reports.

        Used by the data-size sweeps (Fig. 4): the prefix keeps arrival
        order so it is exactly "the first k tweets of the event".
        """
        if max_reports < 0:
            raise ValueError("max_reports must be >= 0")
        return Trace(
            name=self.name,
            reports=self.reports[:max_reports],
            sources=self.sources,
            claims=self.claims,
            timelines=self.timelines,
        )

    def reports_between(self, start: float, end: float) -> tuple[Report, ...]:
        """Reports with ``start <= timestamp < end``, in trace order."""
        times = self.reports.columns.times
        first, last = np.searchsorted(times, (start, end))
        return self.reports[first:last]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the trace as JSON-lines (one record per line)."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "trace", "name": self.name}) + "\n")
            for source in self.sources.values():
                fh.write(
                    json.dumps(
                        {
                            "kind": "source",
                            "source_id": source.source_id,
                            "reliability": source.reliability,
                            "is_spreader": source.is_spreader,
                        }
                    )
                    + "\n"
                )
            for claim in self.claims.values():
                fh.write(
                    json.dumps(
                        {
                            "kind": "claim",
                            "claim_id": claim.claim_id,
                            "text": claim.text,
                            "topic": claim.topic,
                        }
                    )
                    + "\n"
                )
            for timeline in self.timelines.values():
                fh.write(
                    json.dumps(
                        {
                            "kind": "timeline",
                            "claim_id": timeline.claim_id,
                            "labels": [
                                [lab.start, lab.end, int(lab.value)]
                                for lab in timeline
                            ],
                        }
                    )
                    + "\n"
                )
            for report in self.reports:
                fh.write(
                    json.dumps(
                        {
                            "kind": "report",
                            "source_id": report.source_id,
                            "claim_id": report.claim_id,
                            "timestamp": report.timestamp,
                            "attitude": int(report.attitude),
                            "uncertainty": report.uncertainty,
                            "independence": report.independence,
                            "text": report.text,
                            "is_retweet": report.is_retweet,
                        }
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace written by :meth:`save`."""
        path = Path(path)
        name = ""
        reports: list[Report] = []
        sources: dict[str, Source] = {}
        claims: dict[str, Claim] = {}
        timelines: dict[str, TruthTimeline] = {}
        with path.open("r", encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                kind = record.pop("kind")
                if kind == "trace":
                    name = record["name"]
                elif kind == "source":
                    source = Source(**record)
                    sources[source.source_id] = source
                elif kind == "claim":
                    claim = Claim(**record)
                    claims[claim.claim_id] = claim
                elif kind == "timeline":
                    claim_id = record["claim_id"]
                    labels = [
                        TruthLabel(
                            claim_id=claim_id,
                            start=start,
                            end=end,
                            value=TruthValue(value),
                        )
                        for start, end, value in record["labels"]
                    ]
                    timelines[claim_id] = TruthTimeline(claim_id, labels)
                elif kind == "report":
                    record["attitude"] = Attitude(record["attitude"])
                    reports.append(Report(**record))
                else:
                    raise ValueError(f"unknown record kind {kind!r} in {path}")
        return cls(
            name=name,
            reports=reports,
            sources=sources,
            claims=claims,
            timelines=timelines,
        )


def merge_traces(name: str, traces: Iterable[Trace]) -> Trace:
    """Concatenate several traces into one (ids must not collide)."""
    reports: list[Report] = []
    sources: dict[str, Source] = {}
    claims: dict[str, Claim] = {}
    timelines: dict[str, TruthTimeline] = {}
    for trace in traces:
        reports.extend(trace.reports)
        for mapping, update in (
            (sources, trace.sources),
            (claims, trace.claims),
            (timelines, trace.timelines),
        ):
            for key, value in update.items():
                if key in mapping:
                    raise ValueError(f"duplicate id {key!r} while merging traces")
                mapping[key] = value
    return Trace(
        name=name,
        reports=reports,
        sources=sources,
        claims=claims,
        timelines=timelines,
    )
