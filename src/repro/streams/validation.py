"""Trace sanity validation.

Generated or externally supplied traces pass through these checks
before experiments run: report hygiene (ordering), ground-truth
coverage and source metadata.  The CLI and test suites use it;
benchmarks assume traces that pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.streams.trace import Trace

__all__ = [
    "ValidationIssue",
    "ValidationReport",
    "assert_valid",
    "validate_trace",
]


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    """One problem found in a trace."""

    severity: str  # "error" | "warning"
    code: str
    message: str


@dataclass
class ValidationReport:
    """All issues found, plus convenience predicates."""

    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def errors(self) -> list[ValidationIssue]:
        return [issue for issue in self.issues if issue.severity == "error"]

    @property
    def warnings(self) -> list[ValidationIssue]:
        return [issue for issue in self.issues if issue.severity == "warning"]

    @property
    def ok(self) -> bool:
        """True when the trace has no errors (warnings allowed)."""
        return not self.errors

    def summary(self) -> str:
        if not self.issues:
            return "trace OK"
        return "; ".join(
            f"[{issue.severity}] {issue.code}: {issue.message}"
            for issue in self.issues
        )


def validate_trace(trace: Trace) -> ValidationReport:
    """Check a trace's structural invariants."""
    report = ValidationReport()

    def error(code: str, message: str) -> None:
        report.issues.append(ValidationIssue("error", code, message))

    def warning(code: str, message: str) -> None:
        report.issues.append(ValidationIssue("warning", code, message))

    if not trace.reports:
        error("empty", "trace contains no reports")
        return report

    # --- report hygiene -------------------------------------------------
    previous = None
    for index, record in enumerate(trace.reports):
        if previous is not None and record.timestamp < previous:
            error(
                "unordered",
                f"report {index} at t={record.timestamp} precedes its "
                f"predecessor at t={previous}",
            )
            break
        previous = record.timestamp

    # --- ground-truth coverage ------------------------------------------
    claim_ids = {record.claim_id for record in trace.reports}
    unlabelled = sorted(claim_ids - set(trace.timelines))
    if unlabelled:
        warning(
            "unlabelled-claims",
            f"{len(unlabelled)} claims lack ground-truth timelines "
            f"(e.g. {unlabelled[0]})",
        )
    for claim_id, timeline in trace.timelines.items():
        claim_reports = [
            r.timestamp for r in trace.reports if r.claim_id == claim_id
        ]
        if not claim_reports:
            continue
        if max(claim_reports) > timeline.end or min(claim_reports) < (
            timeline.start - 1e-9
        ):
            warning(
                "timeline-span",
                f"claim {claim_id}: reports fall outside the labelled "
                f"span [{timeline.start}, {timeline.end})",
            )

    # --- source metadata --------------------------------------------------
    active = {record.source_id for record in trace.reports}
    missing_sources = len(active - set(trace.sources))
    if missing_sources:
        warning(
            "missing-sources",
            f"{missing_sources} reporting sources have no Source record",
        )

    return report


def assert_valid(trace: Trace) -> None:
    """Raise ``ValueError`` when :func:`validate_trace` finds errors."""
    report = validate_trace(trace)
    if not report.ok:
        raise ValueError(f"invalid trace: {report.summary()}")
