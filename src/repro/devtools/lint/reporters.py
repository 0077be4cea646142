"""Finding reporters: human text and GitHub workflow annotations."""

from __future__ import annotations

import collections
from typing import Sequence

from repro.devtools.lint.engine import Finding

__all__ = ["render_github", "render_text"]


def render_text(findings: Sequence[Finding], n_files: int) -> str:
    """flake8-style ``path:line:col: RULE message`` lines plus a summary."""
    lines = [finding.format() for finding in findings]
    if findings:
        by_rule = collections.Counter(f.rule_id for f in findings)
        breakdown = ", ".join(
            f"{rule}={count}" for rule, count in sorted(by_rule.items())
        )
        lines.append(
            f"{len(findings)} finding(s) in {n_files} file(s) ({breakdown})"
        )
    else:
        lines.append(f"clean: 0 findings in {n_files} file(s)")
    return "\n".join(lines)


def _escape_property(value: str) -> str:
    """Escape a workflow-command *property* value (file=, title=)."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _escape_data(value: str) -> str:
    """Escape a workflow-command *message* (data after ``::``)."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(findings: Sequence[Finding], n_files: int) -> str:
    """GitHub Actions ``::error`` workflow commands, one per finding.

    Emitted to stdout inside a workflow run these become inline
    annotations on the PR diff; a trailing ``::notice`` carries the
    summary either way.
    """
    lines = [
        "::error file={file},line={line},col={col},title={title}::{message}".format(
            file=_escape_property(finding.path),
            line=finding.line,
            col=finding.col + 1,
            title=_escape_property(f"{finding.rule_id} lint"),
            message=_escape_data(f"{finding.rule_id} {finding.message}"),
        )
        for finding in findings
    ]
    summary = (
        f"{len(findings)} finding(s) in {n_files} file(s)"
        if findings
        else f"clean: 0 findings in {n_files} file(s)"
    )
    lines.append(f"::notice title=SSTD lint::{_escape_data(summary)}")
    return "\n".join(lines)
