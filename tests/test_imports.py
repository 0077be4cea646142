"""What importing the package costs: no third-party graph library, and
a run loads only the modules it executes (DESIGN.md §5)."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.devtools.lint.names import ImportMap

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages whose ``__init__`` binds its exports eagerly: importing the
#: lint rules registers them, and ``repro.hmm.kernels`` re-exports
#: nothing.
EAGER = {"repro.devtools.lint", "repro.devtools.lint.rules", "repro.hmm.kernels"}

PACKAGES = sorted(
    ["repro"]
    + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
)

#: Code a serial or streaming run never executes.
UNUSED_BY_A_RUN = (
    "repro.text",
    "repro.cluster",
    "repro.workqueue.master",
    "repro.control.controller",
    "repro.core.dependencies",
    "repro.system.application",
    "numpy.ma",
)

SERIAL_RUN = """
import json, sys
import repro.system.sstd_system
import repro.streams.generator
from repro.core.sstd import SSTD, StreamingSSTD
from repro.streams.events import ScenarioSpec
from repro.streams.generator import GeneratorConfig, generate_trace

spec = ScenarioSpec(
    name="cold", duration=1800.0, n_reports=600, n_claims=3,
    claim_texts=("the road is closed",), topic="cold",
)
trace = generate_trace(spec, seed=1, config=GeneratorConfig(with_text=False))
estimates = SSTD().discover(trace.reports)
engine = StreamingSSTD()
for report in trace.reports:
    engine.push(report)
ticked = engine.tick(spec.duration)
print(json.dumps([len(estimates), len(ticked), sorted(sys.modules)]))
"""


def _run(code):
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return result.stdout.strip()


def test_import_repro_leaves_networkx_unloaded():
    code = (
        "import sys, repro, repro.core, repro.core.dependencies; "
        "print('networkx' in sys.modules)"
    )
    assert _run(code) == "False"


def test_serial_and_streaming_run_load_only_what_they_execute():
    n_discovered, n_ticked, modules = json.loads(_run(SERIAL_RUN))
    assert n_discovered > 0 and n_ticked > 0
    loaded = [
        name
        for name in modules
        if any(name == m or name.startswith(m + ".") for m in UNUSED_BY_A_RUN)
    ]
    assert loaded == []


def _declared(package):
    """``name -> defining module path`` as the package declares it."""
    init = Path(importlib.import_module(package).__file__)
    return ImportMap(ast.parse(init.read_text())).aliases


def _defining_object(path):
    module, _, name = path.rpartition(".")
    return getattr(importlib.import_module(module), name)


@pytest.mark.parametrize("package", sorted(set(PACKAGES) - EAGER))
def test_lazy_namespace_exports_defining_objects(package):
    pkg = importlib.import_module(package)
    assert callable(vars(pkg).get("__getattr__")), f"{package} is not lazy"
    declared = _declared(package)
    exports = [name for name in pkg.__all__ if name != "__version__"]
    assert exports
    for name in exports:
        assert getattr(pkg, name) is _defining_object(declared[name]), name
        assert name in dir(pkg)
    # Importing every submodule (``repro.text.tokenize`` shares its name
    # with the function the package exports) rebinds no export.
    for info in pkgutil.walk_packages(pkg.__path__, f"{package}."):
        importlib.import_module(info.name)
    for name in exports:
        assert getattr(pkg, name) is _defining_object(declared[name]), name


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module("repro.core"), "no_such_name")
