"""``repro.obs`` is a leaf layer: it imports no other ``repro`` package.

Runtime code records metrics and spans from inside its own critical
sections, so it takes ``repro.obs`` locks while holding its own.  A
lock-order cycle through those edges needs ``repro.obs`` code to call
back into the runtime under an ``repro.obs`` lock, which it cannot do
without importing it.
"""

import ast
import importlib.util
from pathlib import Path

import repro.obs

OBS_DIR = Path(repro.obs.__file__).parent


def imported_modules(path: Path, package: str) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            relative = "." * node.level + (node.module or "")
            names.add(importlib.util.resolve_name(relative, package))
    return names


#: The lazy-namespace helper every package ``__init__`` uses: a leaf
#: that imports nothing from ``repro``, so no edge runs back through it.
LEAVES = {"repro._lazy"}


def test_obs_imports_nothing_else_from_repro():
    outside = {
        f"{path.name}: {name}"
        for path in sorted(OBS_DIR.glob("*.py"))
        for name in imported_modules(path, "repro.obs")
        if name.split(".")[0] == "repro"
        and name != "repro.obs"
        and not name.startswith("repro.obs.")
        and name not in LEAVES
    }
    assert not outside, sorted(outside)


def test_leaves_import_nothing_from_repro():
    for leaf in LEAVES:
        path = Path(importlib.util.find_spec(leaf).origin)
        assert not {
            name
            for name in imported_modules(path, "repro")
            if name.split(".")[0] == "repro"
        }, leaf
