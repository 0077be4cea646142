"""Command-line entry point of the SSTD lint engine.

Usage::

    python -m repro.devtools.lint src/repro            # lint the package
    python -m repro.devtools.lint --format github src  # CI annotations
    python -m repro.devtools.lint --select SSTD003 src/repro/obs
    python -m repro.devtools.lint --disable SSTD006,SSTD011 benchmarks
    python -m repro.devtools.lint --explain SSTD014
    python -m repro.devtools.lint --list-rules

``repro-cli lint ...`` passes its arguments straight to :func:`main`.
Exits non-zero when any finding survives suppression, so the command
doubles as a CI gate.  Suppress an individual finding with a trailing
``# noqa: SSTD###`` comment on the flagged line (justify it nearby);
suppressions that no longer silence anything are themselves flagged as
``SSTD000`` unless ``--no-stale-noqa`` is given.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.devtools.lint.engine import all_rules, iter_python_files, lint_paths
from repro.devtools.lint.reporters import render_github, render_text

__all__ = [
    "build_parser",
    "explain_rule",
    "main",
    "run_lint",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description=(
            "SSTD-specific static analysis: exception and export hygiene, "
            "mutable defaults, seeded randomness, probability-safe "
            "numerics, lock discipline, clock reads, and resource "
            "leaks. Exits 1 when "
            "findings remain, 2 on usage errors."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files or directories to lint (default: src/repro, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help="report format (default: text); 'github' emits workflow-"
        "command annotations",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all), e.g. "
        "SSTD003,SSTD004",
    )
    parser.add_argument(
        "--disable",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to skip (applied after "
        "--select); e.g. --disable SSTD006,SSTD011 for the relaxed "
        "benchmarks/examples profile",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print what a rule checks, its sanction syntax, and a "
        "minimal example, then exit (e.g. --explain SSTD014)",
    )
    parser.add_argument(
        "--no-stale-noqa",
        action="store_true",
        help="skip the SSTD000 stale-suppression audit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _default_paths() -> list[Path]:
    preferred = Path("src/repro")
    return [preferred if preferred.is_dir() else Path(".")]


_RENDERERS = {"text": render_text, "github": render_github}

_SSTD000_EXPLAIN = """\
SSTD000 — engine-level diagnostics

Reserved for the engine itself, not a registered rule: syntax errors
in linted files and stale suppressions (a '# noqa' that no longer
silences any finding).  There is no sanction — fix the syntax error,
or delete the stale suppression.
"""


def explain_rule(rule_id: str) -> tuple[str, int]:
    """Human documentation for one rule: ``(text, exit code)``.

    Pulls the summary from the rule object, the long-form rationale
    from the rule module's docstring, and the sanction/example the rule
    class declares.  SSTD000 (engine diagnostics) is special-cased.
    """
    rule_id = rule_id.strip().upper()
    if rule_id == "SSTD000":
        return _SSTD000_EXPLAIN, 0
    for rule in all_rules():
        if rule.rule_id != rule_id:
            continue
        sections = [f"{rule.rule_id} — {rule.summary}"]
        doc = sys.modules[type(rule).__module__].__doc__
        if doc:
            sections.append(doc.strip())
        if rule.sanction:
            sections.append(f"Sanction:\n  {rule.sanction}")
        if rule.example:
            example = "\n".join(
                f"  {line}" for line in rule.example.rstrip().splitlines()
            )
            sections.append(f"Example:\n{example}")
        return "\n\n".join(sections) + "\n", 0
    known = ", ".join(r.rule_id for r in all_rules())
    return (
        f"unknown rule id: {rule_id} (known: SSTD000, {known})\n",
        2,
    )


def _drop_disabled(rules: list, disable: str | None) -> list:
    if not disable:
        return rules
    disabled = {d.strip().upper() for d in disable.split(",") if d.strip()}
    known = {rule.rule_id for rule in all_rules()}
    unknown = sorted(disabled - known)
    if unknown:
        raise KeyError(
            f"--disable: unknown rule id(s): {', '.join(unknown)}"
        )
    return [rule for rule in rules if rule.rule_id not in disabled]


def run_lint(
    paths: Sequence[Path],
    output_format: str = "text",
    select: str | None = None,
    disable: str | None = None,
    audit_noqa: bool | None = None,
) -> tuple[str, int]:
    """Lint ``paths``; returns ``(report, exit_code)``.

    ``audit_noqa=None`` lets the engine decide (stale-``noqa`` audit on
    exactly when the full rule set runs).  A partial ``--select`` run
    therefore never reports SSTD000 stale suppressions.
    """
    selected = select.split(",") if select else None
    rules = _drop_disabled(all_rules(selected), disable)
    files = list(iter_python_files(paths))
    findings = lint_paths(files, rules=rules, audit_noqa=audit_noqa)
    report = _RENDERERS[output_format](findings, n_files=len(files))
    return report, 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.summary}")
        return 0
    if args.explain is not None:
        text, code = explain_rule(args.explain)
        print(text, end="", file=sys.stderr if code else sys.stdout)
        return code
    paths = args.paths or _default_paths()
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        report, code = run_lint(
            paths,
            output_format=args.format,
            select=args.select,
            disable=args.disable,
            audit_noqa=False if args.no_stale_noqa else None,
        )
    except KeyError as exc:
        print(str(exc.args[0]) if exc.args else str(exc), file=sys.stderr)
        return 2
    print(report)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
