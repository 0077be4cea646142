"""Where ``src/repro`` may start threads and processes, pinned by structure.

The master/worker runtime runs on the caller's thread, so no lock
analysis guards it.  What keeps that true is this file: only the two
``repro.obs`` modules whose state callers may share across threads
import ``threading``, and the one ``Process`` the package creates is
the process executor's daemon worker.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), ast.parse(path.read_text(encoding="utf-8"))


def test_only_obs_spans_and_metrics_import_threading():
    importers = set()
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "threading" for name in names):
                importers.add(module)
    assert importers == {"repro.obs.spans", "repro.obs.metrics"}


def test_the_one_process_is_the_executors_daemon_worker():
    calls = [
        (module, node)
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "Process"
            or isinstance(node.func, ast.Name)
            and node.func.id == "Process"
        )
    ]
    assert [module for module, _ in calls] == ["repro.workqueue.process"]
    [(_, call)] = calls
    daemon = [kw.value for kw in call.keywords if kw.arg == "daemon"]
    assert len(daemon) == 1
    assert isinstance(daemon[0], ast.Constant) and daemon[0].value is True
