"""SSTD003 against real sources and synthetic breaks.

The positive half runs the rule over the actual source of
:mod:`repro.workqueue.process` and requires a clean pass; the executor
is single-threaded, which a runtime check pins.  The negative half
seeds unguarded mutations — synthetic ones, and the registry's own
``inc`` without its ``with`` block — and requires them flagged.
"""

import threading
from pathlib import Path

import repro.obs.metrics as metrics_module
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

    def unguarded_mutation(self, item):
        self._queue.append(item)

    def unguarded_read(self):
        return self._done

    def guarded(self, item):
        with self._lock:
            self._queue.append(item)
            self._done += 1

    def guarded_in_nested_function(self):
        with self._lock:
            def peek():
                return self._queue[0]
            return peek()
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

    def test_with_block_accesses_pass(self):
        findings = self.findings(SYNTHETIC)
        for method in ("guarded", "guarded_in_nested_function"):
            assert not any(f"{method}()" in f.message for f in findings)

    def test_only_a_with_block_counts_as_holding_the_lock(self):
        # The check is lexical: neither a local alias of the lock nor
        # an acquire()/release() pair counts as holding it.
        src = SYNTHETIC + (
            "\n"
            "    def via_alias(self):\n"
            "        lock = self._lock\n"
            "        with lock:\n"
            "            self._done += 1\n"
            "\n"
            "    def via_acquire(self):\n"
            "        self._lock.acquire()\n"
            "        try:\n"
            "            self._done += 1\n"
            "        finally:\n"
            "            self._lock.release()\n"
        )
        flagged = {f.message.split("but ")[1].split("()")[0] for f in self.findings(src)}
        assert flagged == {
            "unguarded_mutation", "unguarded_read", "via_alias", "via_acquire"
        }

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


class TestRealRegistry:
    def test_inc_without_its_with_block_is_flagged(self):
        source = Path(metrics_module.__file__).read_text()
        clean = lint_source(source, path=metrics_module.__file__, rules=RULES)
        assert clean == [], [f.format() for f in clean]
        guarded = (
            "        with self._lock:\n"
            "            self._counters[name] = "
            "self._counters.get(name, 0.0) + amount\n"
        )
        assert guarded in source
        broken = source.replace(
            guarded,
            "        self._counters[name] = "
            "self._counters.get(name, 0.0) + amount\n",
        )
        findings = lint_source(broken, path=metrics_module.__file__, rules=RULES)
        assert len(findings) == 2  # the read and the write of _counters
        assert all("inc()" in f.message for f in findings)
