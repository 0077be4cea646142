"""SSTD014: resource lifecycle, plus the ``--explain`` CLI.

The seeded positive is a shared-memory segment leaked on an exception
path.  The negatives pin
the sanctioned idioms — ``finally`` and ``with`` coverage, ownership
transfers and ``# owns-resource:``.
"""

import shutil
from pathlib import Path

import pytest

import repro
from repro.devtools.lint import all_rules, lint_paths
from repro.devtools.lint.cli import explain_rule, main as lint_main

LEAK_RULES = all_rules(["SSTD014"])


def run_over(tmp_path: Path, files: dict[str, str], rules):
    for name, src in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(src)
    return lint_paths([tmp_path], rules=rules)


LEAKY_SEGMENT = '''
import repro.system.shm as shm

__all__ = ["decode"]


def decode(arrays, risky):
    owner = shm.publish_arrays(arrays)
    risky()
    owner.close_and_unlink()
'''

GUARDED_SEGMENT = '''
import repro.system.shm as shm

__all__ = ["decode"]


def decode(arrays, risky):
    owner = shm.publish_arrays(arrays)
    try:
        risky()
    finally:
        owner.close_and_unlink()
'''


class TestLeakOnExceptionPath:
    def test_seeded_positive_segment_leak(self, tmp_path):
        findings = run_over(
            tmp_path, {"leak.py": LEAKY_SEGMENT}, LEAK_RULES
        )
        assert [f.rule_id for f in findings] == ["SSTD014"]
        assert "shared-memory segment" in findings[0].message
        assert "raises" in findings[0].message

    def test_finally_covered_is_clean(self, tmp_path):
        assert (
            run_over(tmp_path, {"ok.py": GUARDED_SEGMENT}, LEAK_RULES)
            == []
        )

    def test_with_covered_is_clean(self, tmp_path):
        src = '''
import repro.system.shm as shm

__all__ = ["read"]


def read(handle, key):
    with shm.attach(handle) as seg:
        return seg.array(key).sum()
'''
        assert run_over(tmp_path, {"ok.py": src}, LEAK_RULES) == []

    def test_return_transfers_ownership(self, tmp_path):
        src = '''
import repro.system.shm as shm

__all__ = ["publish"]


def publish(arrays):
    owner = shm.publish_arrays(arrays)
    return owner
'''
        assert run_over(tmp_path, {"ok.py": src}, LEAK_RULES) == []

    def test_return_while_held_is_a_normal_path_leak(self, tmp_path):
        src = '''
import repro.system.shm as shm

__all__ = ["peek"]


def peek(arrays):
    owner = shm.publish_arrays(arrays)
    return None
'''
        findings = run_over(tmp_path, {"leak.py": src}, LEAK_RULES)
        assert [f.rule_id for f in findings] == ["SSTD014"]
        assert "return" in findings[0].message

    def test_discarded_acquire_is_a_leak(self, tmp_path):
        src = '''
import repro.system.shm as shm

__all__ = ["fire"]


def fire(arrays):
    shm.publish_arrays(arrays)
'''
        findings = run_over(tmp_path, {"leak.py": src}, LEAK_RULES)
        assert [f.rule_id for f in findings] == ["SSTD014"]
        assert "discarded" in findings[0].message

    def test_owns_resource_annotation_transfers(self, tmp_path):
        src = '''
import repro.system.shm as shm

__all__ = ["Holder"]


class Holder:
    def __init__(self, arrays):
        self.owner = shm.publish_arrays(arrays)  # owns-resource: released by close()

    def close(self):
        self.owner.close_and_unlink()
'''
        assert run_over(tmp_path, {"holder.py": src}, LEAK_RULES) == []

    def test_unannotated_attribute_store_flagged(self, tmp_path):
        src = '''
import repro.system.shm as shm

__all__ = ["Holder"]


class Holder:
    def __init__(self, arrays):
        self.owner = shm.publish_arrays(arrays)
'''
        findings = run_over(tmp_path, {"holder.py": src}, LEAK_RULES)
        assert [f.rule_id for f in findings] == ["SSTD014"]
        assert "owns-resource" in findings[0].message

    def test_local_helper_shadowing_open_is_not_matched(self, tmp_path):
        src = '''
__all__ = ["open", "use"]


def open(name):
    return name


def use(risky):
    handle = open("x")
    risky()
    return handle
'''
        assert run_over(tmp_path, {"shadow.py": src}, LEAK_RULES) == []


CHAINED_RELEASE = '''
import repro.system.shm as shm

__all__ = ["attach", "peek"]


def attach(handle):
    return shm.attach(handle)


def peek(handle):
{body}
'''


class TestChainedCall:
    # A chained call starts at its receiver call's position, so targets
    # keyed by (line, col) gave ``attach(handle).close()``'s ``.close()``
    # the target of ``attach`` and reported a discarded acquire.
    def test_acquire_released_by_chained_call_is_clean(self, tmp_path):
        body = "    attach(handle).close()\n"
        files = {"chain.py": CHAINED_RELEASE.format(body=body)}
        assert run_over(tmp_path, files, LEAK_RULES) == []

    def test_discarded_project_acquire_is_still_a_leak(self, tmp_path):
        body = "    attach(handle)\n"
        files = {"chain.py": CHAINED_RELEASE.format(body=body)}
        findings = run_over(tmp_path, files, LEAK_RULES)
        assert [(f.rule_id, f.line) for f in findings] == [("SSTD014", 12)]
        assert "discarded" in findings[0].message


EXECUTOR_FACTORY = '''
from repro.workqueue.process import ProcessWorkQueue

__all__ = ["System"]


class System:
    def _make_executor(self, n_workers):
        return ProcessWorkQueue(n_workers=n_workers)

    def run(self, shards):
        executor = self._make_executor(2)
{body}
'''


class TestExecutorLeak:
    # The executor-leak class found in DistributedSSTD's run paths: the
    # executor comes from a factory method, so only the call graph's
    # returned-call summaries know that ``executor`` holds a resource.
    def test_unprotected_executor_leaks_on_exception_path(self, tmp_path):
        body = (
            "        plan = self._plan(shards)\n"
            "        results = self._decode(executor, plan)\n"
            "        executor.shutdown()\n"
            "        return results\n"
        )
        findings = run_over(
            tmp_path,
            {"system.py": EXECUTOR_FACTORY.format(body=body)},
            LEAK_RULES,
        )
        assert [f.rule_id for f in findings] == ["SSTD014"]
        assert "work-queue executor 'executor'" in findings[0].message

    def test_finally_shutdown_is_clean(self, tmp_path):
        body = (
            "        try:\n"
            "            plan = self._plan(shards)\n"
            "            return self._decode(executor, plan)\n"
            "        finally:\n"
            "            executor.shutdown()\n"
        )
        files = {"system.py": EXECUTOR_FACTORY.format(body=body)}
        assert run_over(tmp_path, files, LEAK_RULES) == []


RUN_BATCH_GUARDED = """\
            executor = self._make_executor(worker_count)
            try:
                clock_start = self.obs.clock.now()
                decoded = self._decode_shards(
                    executor,
                    claim_sequences(table.by_claim(), config.sstd, start, end),
                    config.sstd,
                    sizes,
                )
            finally:
                executor.shutdown()
"""

RUN_BATCH_UNGUARDED = """\
            executor = self._make_executor(worker_count)
            clock_start = self.obs.clock.now()
            decoded = self._decode_shards(
                executor,
                claim_sequences(table.by_claim(), config.sstd, start, end),
                config.sstd,
                sizes,
            )
            executor.shutdown()
"""


class TestRealSource:
    # The rule-audit mutation on the real system: run_batch's executor
    # comes from ``_make_executor``, whose ``ProcessWorkQueue`` lives in
    # another package, so the finding needs the cross-module returners.
    def test_run_batch_without_finally_shutdown_is_flagged(self, tmp_path):
        source = Path(repro.__file__).parent
        copy = tmp_path / "repro"
        for package in ("system", "workqueue"):
            shutil.copytree(source / package, copy / package)
        assert lint_paths([copy], rules=LEAK_RULES) == []
        target = copy / "system" / "sstd_system.py"
        text = target.read_text()
        assert text.count(RUN_BATCH_GUARDED) == 1
        target.write_text(text.replace(RUN_BATCH_GUARDED, RUN_BATCH_UNGUARDED))
        findings = lint_paths([copy], rules=LEAK_RULES)
        assert [(Path(f.path).name, f.rule_id) for f in findings] == [
            ("sstd_system.py", "SSTD014")
        ]
        assert "work-queue executor 'executor'" in findings[0].message


class TestExplainCli:
    def test_explain_known_rule(self, capsys):
        assert lint_main(["--explain", "SSTD014"]) == 0
        out = capsys.readouterr().out
        assert "SSTD014" in out
        assert "owns-resource" in out  # sanction syntax
        assert "finally" in out  # example

    def test_explain_engine_rule(self, capsys):
        assert lint_main(["--explain", "SSTD000"]) == 0
        assert "stale" in capsys.readouterr().out

    def test_explain_unknown_rule(self, capsys):
        assert lint_main(["--explain", "SSTD999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_explain_via_repro_cli(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--explain", "SSTD014"]) == 0
        assert "owns-resource" in capsys.readouterr().out

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


REEXPORT_LEAK = '''
from repro.workqueue import ProcessWorkQueue

__all__ = ["run"]


def run(shards, plan):
    executor = ProcessWorkQueue(n_workers=2)
    results = plan(executor, shards)
    executor.shutdown()
    return results
'''


class TestLazyPackageReexport:
    # ``repro.workqueue`` re-exports ProcessWorkQueue through a lazy
    # namespace: the analyzer must read its export declaration to see
    # the acquire, as the CI relaxed-profile lint of tests relies on.
    def test_executor_through_package_reexport_is_flagged(self, tmp_path):
        target = tmp_path / "leak.py"
        target.write_text(REEXPORT_LEAK)
        findings = lint_paths(
            [target, Path(repro.__file__).parent], rules=LEAK_RULES
        )
        assert [(Path(f.path).name, f.rule_id) for f in findings] == [
            ("leak.py", "SSTD014")
        ]
        assert "work-queue executor 'executor'" in findings[0].message


BRANCH_ACQUIRE = '''
from repro.workqueue.process import ProcessWorkQueue

__all__ = ["run"]


def run(shards, plan, local):
    if local:
        executor = None
    else:
        executor = ProcessWorkQueue(n_workers=2)
    results = plan(executor, shards)
    executor.shutdown()
    return results
'''


class TestKnownFalseNegatives:
    # DESIGN.md §10: the branch join demotes the binding to "maybe",
    # which is never reported, so this leak on the exception path of
    # ``plan`` goes unflagged.  A fix of the join turns this XPASS.
    @pytest.mark.xfail(strict=True, reason="branch join hides the acquire")
    def test_acquire_in_one_branch_then_unguarded_use(self, tmp_path):
        findings = run_over(tmp_path, {"branch.py": BRANCH_ACQUIRE}, LEAK_RULES)
        assert [f.rule_id for f in findings] == ["SSTD014"]
