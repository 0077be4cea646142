"""Name-resolution helpers shared by the rules and the import tests."""

from __future__ import annotations

import ast

__all__ = ["ImportMap", "dotted_name", "self_attr"]

#: The lazy-namespace helper whose export declaration is read as imports.
_LAZY_ATTACH = "repro._lazy.attach"


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> str | None:
    """``attr`` for a plain ``self.<attr>`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class ImportMap:
    """Resolves local names to canonical module paths for one file.

    Tracks ``import numpy as np`` (``np`` -> ``numpy``), ``import
    numpy.random as nr`` (``nr`` -> ``numpy.random``), and ``from X
    import y as z`` (``z`` -> ``X.y``), so rules can match usage sites
    regardless of aliasing.  A lazy package's export declaration
    (:func:`repro._lazy.attach`) counts as ``from X import y`` for
    each name it lists.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import a.b` binds `a`; `import a.b as c` binds c->a.b
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"
        for node in tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                self._read_lazy_exports(node.value)

    def _read_lazy_exports(self, call: ast.Call) -> None:
        """``attach(__name__, {"X": ("y", ...), ...})`` binds ``y`` -> ``X.y``."""
        if self.resolve(call.func) != _LAZY_ATTACH or len(call.args) != 2:
            return
        exports = call.args[1]
        if not isinstance(exports, ast.Dict):
            return
        for key, names in zip(exports.keys, exports.values):
            if not (isinstance(key, ast.Constant) and isinstance(names, ast.Tuple)):
                continue
            for name in names.elts:
                if isinstance(name, ast.Constant) and isinstance(name.value, str):
                    self.aliases[name.value] = f"{key.value}.{name.value}"

    def resolve(self, expr: ast.expr) -> str | None:
        """Canonical dotted path of a Name/Attribute chain, if importable.

        ``np.random.rand`` with ``import numpy as np`` resolves to
        ``numpy.random.rand``; unknown roots resolve to the literal
        dotted name so callers can still pattern-match.
        """
        name = dotted_name(expr)
        if name is None:
            return None
        root, _, rest = name.partition(".")
        canonical_root = self.aliases.get(root, root)
        return f"{canonical_root}.{rest}" if rest else canonical_root
