"""Whole-program call resolution: resource returners and resolution."""

from pathlib import Path

from repro.devtools.lint import all_rules, lint_paths, lint_source
from repro.devtools.lint.callgraph import build_project
from repro.devtools.lint.rules.resources import resource_returners

LEAK_RULES = all_rules(["SSTD014"])


def project_over(tmp_path: Path, files: dict[str, str]):
    entries = []
    for name, src in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(src)
        entries.append((str(target), src))
    return build_project(entries)


UTIL_SRC = '''
import repro.system.shm as shm

__all__ = ["publish", "publish_all"]


def publish(arrays):
    return shm.publish_arrays(arrays)


def publish_all(arrays):
    owner = publish(arrays)
    return owner
'''

CALLER_SRC = '''
from util import publish_all

__all__ = ["Holder"]


class Holder:
    def tick(self, arrays, risky):
        owner = publish_all(arrays)
        risky()
        owner.close_and_unlink()
'''


class TestReturnerSummaries:
    def test_leaf_and_transitive_summaries(self, tmp_path):
        proj = project_over(
            tmp_path, {"util.py": UTIL_SRC, "caller.py": CALLER_SRC}
        )
        returners = resource_returners(proj)
        assert returners["util.publish"] == "shm-segment"
        assert returners["util.publish_all"] == "shm-segment"
        assert "caller.Holder.tick" not in returners

    def test_cross_module_finding(self, tmp_path):
        (tmp_path / "util.py").write_text(UTIL_SRC)
        (tmp_path / "caller.py").write_text(CALLER_SRC)
        findings = lint_paths([tmp_path], rules=LEAK_RULES)
        assert [(Path(f.path).name, f.rule_id) for f in findings] == [
            ("caller.py", "SSTD014")
        ]
        assert "shared-memory segment 'owner'" in findings[0].message

    def test_intraprocedural_path_provably_misses_it(self):
        # Linting the caller alone cannot resolve the imported factory,
        # so the leak is invisible without the project layer.
        assert (
            lint_source(CALLER_SRC, path="caller.py", rules=LEAK_RULES) == []
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
