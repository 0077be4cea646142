"""The lint CLI's ``--explain`` and ``--disable`` options."""

from repro.devtools.lint import all_rules
from repro.devtools.lint.cli import explain_rule, main as lint_main


class TestExplainCli:
    def test_explain_known_rule(self, capsys):
        assert lint_main(["--explain", "SSTD001"]) == 0
        out = capsys.readouterr().out
        assert "SSTD001" in out
        assert "# deliberate:" in out  # sanction syntax
        assert "except Exception as exc" in out  # example

    def test_explain_engine_rule(self, capsys):
        assert lint_main(["--explain", "SSTD000"]) == 0
        assert "stale" in capsys.readouterr().out

    def test_explain_unknown_rule(self, capsys):
        assert lint_main(["--explain", "SSTD999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_explain_retired_rule_is_unknown(self, capsys):
        assert lint_main(["--explain", "SSTD014"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_explain_via_repro_cli(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--explain", "SSTD001"]) == 0
        assert "# deliberate:" in capsys.readouterr().out

    def test_every_rule_explains(self):
        for rule in all_rules():
            text, code = explain_rule(rule.rule_id)
            assert code == 0
            assert rule.rule_id in text

    def test_disable_complements_selection(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("def f():\n    return []\n")  # no __all__
        assert (
            lint_main(["--select", "SSTD006", str(target)])
            == 1
        )
        capsys.readouterr()
        assert (
            lint_main(
                [
                    "--select",
                    "SSTD006",
                    "--disable",
                    "SSTD006",
                    str(target),
                ]
            )
            == 0
        )

    def test_disable_unknown_rule_exits_2(self, capsys):
        assert lint_main(["--disable", "SSTD999", "."]) == 2
        assert "unknown rule id" in capsys.readouterr().err
