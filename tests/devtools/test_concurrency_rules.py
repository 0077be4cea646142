"""SSTD007 (lock-scope escapes) and SSTD008 (blocking under a lock)."""

from pathlib import Path

import repro.workqueue.process as process_module
from repro.devtools.lint import all_rules, lint_source

ESCAPE_RULES = all_rules(["SSTD007"])
BLOCKING_RULES = all_rules(["SSTD008"])


def escape_findings(src: str):
    return lint_source(src, path="case.py", rules=ESCAPE_RULES)


def blocking_findings(src: str):
    return lint_source(src, path="case.py", rules=BLOCKING_RULES)


HELPER_SRC = '''
import threading

class Q:
    def __init__(self):
        self._lock = threading.Lock()
        self._pending = []  # guarded-by: _lock

    def _pick(self):  # holds-lock: _lock
        return self._pending.pop()

    def good(self):
        with self._lock:
            return self._pick()

    def bad(self):
        return self._pick()
'''


class TestGuardedEscape:
    def test_helper_called_without_its_lock_flagged(self):
        findings = escape_findings(HELPER_SRC)
        assert len(findings) == 1
        assert "bad()" in findings[0].message
        assert "holds-lock: _lock" in findings[0].message

    def test_helper_called_with_lock_passes(self):
        assert not any(
            "good()" in f.message for f in escape_findings(HELPER_SRC)
        )

    def test_noqa_suppresses_escape_finding(self):
        suppressed = HELPER_SRC.replace(
            "    def bad(self):\n        return self._pick()",
            "    def bad(self):\n        return self._pick()  # noqa: SSTD007",
        )
        assert escape_findings(suppressed) == []

    def test_container_capture_escape_flagged(self):
        src = '''
import threading

class Q:
    def __init__(self):
        self._lock = threading.Lock()
        self._pending = []  # guarded-by: _lock

    def leak(self):
        with self._lock:
            pending = self._pending
        return len(pending)
'''
        findings = escape_findings(src)
        assert len(findings) == 1
        assert "captured into 'pending'" in findings[0].message

    def test_scalar_snapshot_not_flagged(self):
        src = '''
import threading

class Q:
    def __init__(self):
        self._lock = threading.Lock()
        self._done = 0  # guarded-by: _lock

    def drain(self):
        with self._lock:
            done = self._done
        return done
'''
        assert escape_findings(src) == []


BLOCKING_SRC = '''
import os
import time
import threading
import queue

class Q:
    def __init__(self):
        self._lock = threading.Lock()
        self._inbox = queue.Queue(4)
        self._outbox = queue.Queue()
        self._worker = threading.Thread(target=self._run)

    def sleeps_under_lock(self):
        with self._lock:
            time.sleep(0.1)

    def joins_under_lock(self):
        with self._lock:
            self._worker.join()

    def joins_under_local_alias(self):
        lock = self._lock
        with lock:
            self._worker.join()

    def bounded_put_under_lock(self, item):
        with self._lock:
            self._inbox.put(item)

    def fine(self, item):
        with self._lock:
            self._outbox.put(item)
            self._inbox.put(item, block=False)
            path = os.path.join("a", "b")
        self._worker.join()
        time.sleep(0.1)
        return path

    def _run(self):
        pass
'''


class TestBlockingUnderLock:
    def test_flags_each_blocking_call_under_the_lock(self):
        findings = blocking_findings(BLOCKING_SRC)
        flagged = {f.message.split("(")[0].strip() for f in findings}
        assert flagged == {
            "sleeps_under_lock",
            "joins_under_lock",
            "joins_under_local_alias",
            "bounded_put_under_lock",
        }

    def test_nonblocking_variants_and_module_join_pass(self):
        assert not any(
            "fine()" in f.message for f in blocking_findings(BLOCKING_SRC)
        )

    def test_blocking_helper_summary_propagates(self):
        src = '''
import threading

class Q:
    def __init__(self):
        self._lock = threading.Lock()
        self._worker = threading.Thread(target=self._run)

    def _wait(self):
        self._worker.join()

    def stop(self):
        with self._lock:
            self._wait()

    def _run(self):
        pass
'''
        findings = blocking_findings(src)
        assert len(findings) == 1
        # Routed through the call-graph summaries: the diagnostic names
        # the callee and carries the chain down to the blocking leaf.
        assert "calls Q._wait()" in findings[0].message
        assert "which may block" in findings[0].message
        assert "chain Q._wait" in findings[0].message

    def test_condition_wait_is_exempt(self):
        src = '''
import threading

class Q:
    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)  # lock-alias: _lock

    def wait_for_work(self):
        with self._cond:
            self._cond.wait()
            self._cond.notify_all()
'''
        assert blocking_findings(src) == []

    def test_noqa_suppresses_blocking_finding(self):
        src = BLOCKING_SRC.replace(
            "            time.sleep(0.1)\n\n    def joins_under_lock",
            "            time.sleep(0.1)  # noqa: SSTD008\n\n    def joins_under_lock",
        )
        assert not any(
            "sleeps_under_lock" in f.message for f in blocking_findings(src)
        )


class TestRealProcessWorkqueue:
    def test_process_workqueue_source_is_blocking_clean(self):
        source = Path(process_module.__file__).read_text()
        findings = lint_source(
            source,
            path=process_module.__file__,
            rules=all_rules(["SSTD007", "SSTD008"]),
        )
        assert findings == [], [f.format() for f in findings]
