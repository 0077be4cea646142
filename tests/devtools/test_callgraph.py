"""Whole-program call graph: resolution and may-block summaries."""

from pathlib import Path

from repro.devtools.lint import all_rules, lint_paths, lint_source
from repro.devtools.lint.callgraph import build_project

BLOCKING_RULES = all_rules(["SSTD008"])


def project_over(tmp_path: Path, files: dict[str, str]):
    entries = []
    for name, src in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(src)
        entries.append((str(target), src))
    return build_project(entries)


UTIL_SRC = '''
import time

__all__ = ["flush"]


def flush():
    time.sleep(0.01)
'''

CALLER_SRC = '''
import threading

from util import flush

__all__ = ["Holder"]


class Holder:
    def __init__(self):
        self._lock = threading.Lock()

    def tick(self):
        with self._lock:
            flush()
'''


class TestBlockingSummaries:
    def test_leaf_and_transitive_summaries(self, tmp_path):
        proj = project_over(
            tmp_path, {"util.py": UTIL_SRC, "caller.py": CALLER_SRC}
        )
        assert "util.flush" in proj.blocking
        assert "sleep" in proj.blocking["util.flush"].reason
        tick = proj.blocking.get("caller.Holder.tick")
        assert tick is not None
        assert tick.chain[-1] == "util.flush"

    def test_cross_module_finding_with_chain(self, tmp_path):
        (tmp_path / "util.py").write_text(UTIL_SRC)
        (tmp_path / "caller.py").write_text(CALLER_SRC)
        findings = lint_paths([tmp_path], rules=BLOCKING_RULES)
        assert len(findings) == 1
        assert findings[0].rule_id == "SSTD008"
        assert "util.flush" in findings[0].message
        assert "chain" in findings[0].message

    def test_intraprocedural_path_provably_misses_it(self):
        # Regression anchor for the tentpole: linting the caller alone
        # (the pre-PR-6 reach of the analysis) cannot resolve the
        # imported callee, so the blocking-under-lock escape is
        # invisible without the project layer.
        assert (
            lint_source(CALLER_SRC, path="caller.py", rules=BLOCKING_RULES)
            == []
        )


REEXPORT_FILES = {
    "repro/obs/__init__.py": (
        "from repro.obs.metrics import MetricRegistry\n"
        "\n"
        '__all__ = ["MetricRegistry"]\n'
    ),
    "repro/obs/metrics.py": '''
import threading

__all__ = ["MetricRegistry"]


class MetricRegistry:
    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {}  # guarded-by: _lock

    def inc(self, name):
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + 1
''',
    "repro/wq.py": '''
import threading

from repro.obs import MetricRegistry

__all__ = ["Q"]


class Q:
    def __init__(self, metrics: MetricRegistry):
        self._lock = threading.Lock()
        self.metrics = metrics

    def bump(self):
        with self._lock:
            self.metrics.inc("bump")
''',
}


class TestResolution:
    def test_reexport_and_attr_chain_resolution(self, tmp_path):
        proj = project_over(tmp_path, dict(REEXPORT_FILES))
        sites = proj.resolved_calls("repro.wq")
        targets = {t for site in sites for t in site.targets}
        assert "repro.obs.metrics.MetricRegistry.inc" in targets

    def test_classmethod_factory_types_the_attribute(self, tmp_path):
        files = {
            "obsmod.py": '''
import time

__all__ = ["Obs"]


class Obs:
    @classmethod
    def from_env(cls):
        return cls()

    def ping(self):
        time.sleep(0.01)
''',
            "usermod.py": '''
from obsmod import Obs

__all__ = ["User"]


class User:
    def __init__(self):
        self.obs = Obs.from_env()

    def go(self):
        self.obs.ping()
''',
        }
        proj = project_over(tmp_path, files)
        targets = {
            t
            for site in proj.resolved_calls("usermod")
            for t in site.targets
        }
        assert "obsmod.Obs.ping" in targets
        assert "usermod.User.go" in proj.blocking
