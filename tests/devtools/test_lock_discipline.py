"""SSTD003 against the real process-backed executor and synthetic breaks.

The positive half runs the rule over the actual source of
:mod:`repro.workqueue.process` and requires a clean pass; the executor
is single-threaded, which a runtime check pins.  The negative half
seeds unguarded mutations and requires them flagged.
"""

import threading
from pathlib import Path

import repro.workqueue.process as process_module
from repro.devtools.lint import all_rules, lint_source
from repro.obs import Observability
from repro.workqueue import PayloadSpec, ProcessWorkQueue, Task

RULES = all_rules(["SSTD003"])

SYNTHETIC = '''
import threading

class Scheduler:
    def __init__(self):
        self._lock = threading.Lock()
        self._queue = []  # guarded-by: _lock
        self._done = 0  # guarded-by: _lock
        self._cond = threading.Condition(self._lock)  # lock-alias: _lock

    def unguarded_mutation(self, item):
        self._queue.append(item)

    def unguarded_read(self):
        return self._done

    def guarded(self, item):
        with self._lock:
            self._queue.append(item)
            self._done += 1

    def guarded_via_alias(self, item):
        with self._cond:
            self._queue.append(item)

    def documented_caller_holds(self):  # holds-lock: _lock
        return len(self._queue)
'''


class TestRealWorkqueueLocal:
    def test_process_workqueue_source_is_lock_clean(self):
        source = Path(process_module.__file__).read_text()
        findings = lint_source(
            source, path=process_module.__file__, rules=RULES
        )
        assert findings == [], [f.format() for f in findings]

    def test_executor_starts_no_thread(self):
        """No lock is needed because no second thread exists: the master
        runs on the caller's thread, and pipes have no feeder threads."""
        before = threading.active_count()
        wq = ProcessWorkQueue(n_workers=2, obs=Observability())
        try:
            assert threading.active_count() == before
            for k in range(4):
                wq.submit(Task(job_id=f"j{k}", fn=PayloadSpec(abs, (-k,))))
            assert threading.active_count() == before
            results = wq.drain(timeout=30.0)
            assert sorted(r.output for r in results) == [0, 1, 2, 3]
            assert threading.active_count() == before
        finally:
            wq.shutdown()
        assert threading.active_count() == before


class TestSyntheticViolations:
    def findings(self, src: str):
        return lint_source(src, path="repro/workqueue/fake.py", rules=RULES)

    def test_unguarded_mutation_and_read_flagged(self):
        findings = self.findings(SYNTHETIC)
        assert len(findings) == 2
        assert any("unguarded_mutation" in f.message for f in findings)
        assert any("unguarded_read" in f.message for f in findings)

    def test_guarded_alias_and_documented_accesses_pass(self):
        findings = self.findings(SYNTHETIC)
        for method in ("guarded", "guarded_via_alias", "documented_caller_holds"):
            assert not any(f"{method}()" in f.message for f in findings)

    def test_init_is_exempt(self):
        findings = self.findings(SYNTHETIC)
        assert not any("__init__" in f.message for f in findings)

    def test_removing_with_block_trips_rule(self):
        broken = SYNTHETIC.replace(
        "        with self._lock:\n"
        "            self._queue.append(item)\n"
        "            self._done += 1\n",
        "        self._queue.append(item)\n"
        "        self._done += 1\n",
        )
        extra = self.findings(broken)
        assert len(extra) == 4  # 2 original + queue and done in guarded()
