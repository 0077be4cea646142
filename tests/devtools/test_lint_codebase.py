"""Tier-1 gate: the whole ``src/repro`` tree stays lint-clean.

This test makes the SSTD lint rules permanent: any PR that introduces a
violation (or deletes the annotations that make the lock-discipline
pass meaningful) fails the suite, exactly like CI's dedicated lint job.
"""

import contextlib
import io
from pathlib import Path

import pytest

from repro.devtools.lint import all_rules
from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.engine import _noqa_comments

REPO_ROOT = Path(__file__).resolve().parents[2]
PACKAGE = REPO_ROOT / "src" / "repro"


def test_package_tree_exists():
    assert PACKAGE.is_dir(), f"expected package at {PACKAGE}"


@pytest.fixture(scope="module")
def full_lint():
    # Exactly what CI runs: `python -m repro.devtools.lint src/repro`.
    # One run of the whole tree serves every test below that needs it.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lint_main([str(PACKAGE)])
    return code, out.getvalue()


def test_full_lint_pass_is_clean(full_lint):
    code, out = full_lint
    assert code == 0, f"lint findings in src/repro:\n{out}"


def test_cli_gate_exits_zero(full_lint):
    code, out = full_lint
    assert code == 0
    assert "clean" in out


def test_every_registered_rule_ran():
    # A clean run must not be clean because rules failed to register.
    assert [r.rule_id for r in all_rules()] == [
        "SSTD001",
        "SSTD002",
        "SSTD003",
        "SSTD004",
        "SSTD005",
        "SSTD006",
        "SSTD011",
    ]


def test_src_has_no_sstd_suppressions():
    # Findings in src/ are fixed, never suppressed: no '# noqa' naming
    # an SSTD rule, and no bare '# noqa' (which silences every rule).
    # The engine's own tokenizer decides, so a docstring that merely
    # mentions the syntax does not count.
    suppressions = [
        f"{path}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, (codes, _col) in _noqa_comments(
            path.read_text(encoding="utf-8")
        ).items()
        if codes is None or any(code.startswith("SSTD") for code in codes)
    ]
    assert not suppressions, suppressions
