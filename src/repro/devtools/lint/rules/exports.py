"""SSTD006: public modules must declare ``__all__``.

An explicit ``__all__`` is the module's public contract: it keeps
wildcard imports bounded, makes re-export layers (the package
``__init__`` files) auditable, and lets refactoring PRs see at a glance
what is API and what is implementation detail.  Modules whose name
starts with ``_`` are private and exempt; package ``__init__.py`` files
are public and must comply.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.devtools.lint.engine import FileContext, Finding, Rule, register

__all__ = ["MissingAllRule"]


def _declares_all(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            # ``__getattr__, __dir__, __all__ = attach(...)`` in a lazy
            # package ``__init__`` declares it too.
            for target in node.targets:
                names = target.elts if isinstance(target, ast.Tuple) else [target]
                if any(isinstance(n, ast.Name) and n.id == "__all__" for n in names):
                    return True
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if isinstance(target, ast.Name) and target.id == "__all__":
                return True
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Name) and target.id == "__all__":
                return True
    return False


@register
class MissingAllRule(Rule):
    rule_id = "SSTD006"
    summary = "public modules declare __all__"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        stem = Path(ctx.path).stem
        if stem.startswith("_") and stem != "__init__":
            return
        if not _declares_all(ctx.tree):
            yield self.finding(
                ctx,
                ctx.tree.body[0] if ctx.tree.body else ctx.tree,
                f"public module {ctx.module or stem} does not declare "
                "__all__; list its public API explicitly",
            )
