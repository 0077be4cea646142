"""SSTD011: runtime packages read time via the repro.obs Clock protocol."""

from repro.devtools.lint import all_rules, lint_source

RULES = all_rules(["SSTD011"])


def findings(src: str, module: str = "repro.workqueue.process"):
    return lint_source(src, path="case.py", rules=RULES, module=module)


class TestDirectClockRead:
    def test_perf_counter_flagged(self):
        src = """
import time

def elapsed(start):
    return time.perf_counter() - start
"""
        result = findings(src)
        assert len(result) == 1
        assert result[0].rule_id == "SSTD011"
        assert "time.perf_counter()" in result[0].message
        assert "repro.obs" in result[0].message

    def test_monotonic_and_time_flagged(self):
        src = """
import time

def stamp():
    return time.time(), time.monotonic(), time.monotonic_ns()
"""
        assert len(findings(src)) == 3

    def test_from_import_alias_flagged(self):
        src = """
from time import perf_counter as clock

def now():
    return clock()
"""
        assert len(findings(src)) == 1

    def test_sleep_not_flagged(self):
        # time.sleep is blocking, not a clock read; SSTD008's concern.
        src = """
import time

def nap():
    time.sleep(0.1)
"""
        assert findings(src) == []

    def test_clock_protocol_read_accepted(self):
        src = """
from repro.obs import WallClock

def elapsed(start):
    return WallClock().now() - start
"""
        assert findings(src) == []

    def test_ungated_package_exempt(self):
        src = """
import time

def now():
    return time.time()
"""
        assert findings(src, module="repro.benchmarks.runner") == []
        assert findings(src, module="repro.obs.clock") == []

    def test_all_gated_packages(self):
        src = """
import time

def now():
    return time.time()
"""
        for module in (
            "repro.workqueue.process",
            "repro.system.sstd_system",
            "repro.cluster.simulation",
        ):
            assert len(findings(src, module=module)) == 1, module

    def test_noqa_suppresses(self):
        src = """
import time

def now():
    return time.time()  # noqa: SSTD011
"""
        assert findings(src) == []
