"""Engine mechanics: suppression, module naming, reporters, CLI."""

from pathlib import Path

import pytest

from repro.devtools.lint import RULE_REGISTRY, all_rules, lint_source
from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.engine import Finding, module_name_for
from repro.devtools.lint.reporters import render_github, render_text

BARE_EXCEPT = """\
__all__ = []

def f():
    try:
        pass
    except:
        pass
"""


class TestRegistry:
    def test_all_ten_rules_registered(self):
        # Of the first ten rule ids SSTD007-SSTD010 are retired.
        retired = {"SSTD007", "SSTD008", "SSTD009", "SSTD010"}
        expected = {f"SSTD{i:03d}" for i in range(1, 11)} - retired
        assert expected <= set(RULE_REGISTRY)
        assert not retired & set(RULE_REGISTRY)

    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            all_rules(["SSTD999"])

    def test_select_restricts(self):
        rules = all_rules(["SSTD001"])
        assert [r.rule_id for r in rules] == ["SSTD001"]


class TestSuppression:
    def test_finding_reported_without_noqa(self):
        findings = lint_source(BARE_EXCEPT, path="x.py")
        assert [f.rule_id for f in findings] == ["SSTD001"]

    def test_coded_noqa_suppresses(self):
        src = BARE_EXCEPT.replace("except:", "except:  # noqa: SSTD001")
        assert lint_source(src, path="x.py") == []

    def test_bare_noqa_suppresses_everything(self):
        src = BARE_EXCEPT.replace("except:", "except:  # noqa")
        assert lint_source(src, path="x.py") == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        # The SSTD001 finding survives, and the SSTD002 suppression —
        # silencing nothing — is itself reported stale by the audit.
        src = BARE_EXCEPT.replace("except:", "except:  # noqa: SSTD002")
        assert [f.rule_id for f in lint_source(src, path="x.py")] == [
            "SSTD001",
            "SSTD000",
        ]


class TestModuleNames:
    def test_anchored_at_repro(self):
        assert (
            module_name_for(Path("src/repro/hmm/batch.py")) == "repro.hmm.batch"
        )

    def test_init_maps_to_package(self):
        assert module_name_for(Path("src/repro/hmm/__init__.py")) == "repro.hmm"

    def test_outside_repro_uses_stem(self):
        assert module_name_for(Path("/tmp/whatever/thing.py")) == "thing"


class TestReporters:
    def test_text_clean(self):
        assert "clean" in render_text([], n_files=3)

    def test_text_counts_by_rule(self):
        findings = lint_source(BARE_EXCEPT, path="x.py")
        report = render_text(findings, n_files=1)
        assert "x.py:6:5: SSTD001" in report
        assert "SSTD001=1" in report


class TestGithubReporter:
    def test_error_annotation_per_finding(self):
        findings = lint_source(BARE_EXCEPT, path="x.py")
        report = render_github(findings, n_files=1)
        assert "::error file=x.py,line=6,col=5,title=SSTD001 lint::" in report
        assert report.endswith("::notice title=SSTD lint::1 finding(s) in 1 file(s)")

    def test_clean_run_emits_only_the_notice(self):
        report = render_github([], n_files=3)
        assert report == "::notice title=SSTD lint::clean: 0 findings in 3 file(s)"

    def test_workflow_command_characters_are_escaped(self):
        finding = Finding(
            rule_id="SSTD001",
            message="first\nsecond % line",
            path="dir,with:odd.py",
            line=1,
            col=0,
        )
        report = render_github([finding], n_files=1)
        annotation = report.splitlines()[0]
        assert "file=dir%2Cwith%3Aodd.py" in annotation
        assert "first%0Asecond %25 line" in annotation
        assert "\n" not in annotation


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text('__all__ = ["x"]\n\nx = 1\n')
        assert lint_main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(BARE_EXCEPT)
        assert lint_main([str(dirty)]) == 1
        assert "SSTD001" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["/no/such/path.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_bad_select_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "x.py"
        target.write_text("__all__ = []\n")
        assert lint_main(["--select", "SSTD999", str(target)]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 7):
            assert f"SSTD00{i}" in out

    def test_repro_cli_lint_passes_arguments_through(self, capsys):
        from repro.cli import main as repro_main

        assert lint_main(["--list-rules"]) == 0
        direct = capsys.readouterr().out
        assert repro_main(["lint", "--list-rules"]) == 0
        assert capsys.readouterr().out == direct

    def test_syntax_error_becomes_finding(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert lint_main([str(bad)]) == 1
        assert "SSTD000" in capsys.readouterr().out

    def test_no_stale_noqa_flag_disables_the_audit(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text('__all__ = ["x"]\nx = 1  # noqa: SSTD003\n')
        assert lint_main([str(stale)]) == 1
        assert "SSTD000" in capsys.readouterr().out
        assert lint_main(["--no-stale-noqa", str(stale)]) == 0
        assert "clean" in capsys.readouterr().out
