"""SSTD004: every random draw must flow from an explicit seed.

Reproducibility of the paper's experiments (and of CI) dies the moment
any module reaches for process-global RNG state.  The sanctioned
pattern, used across the repo, is::

    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)      # seed passed by caller

Flagged:

- ``np.random.default_rng()`` with *no* seed argument;
- any ``np.random.<fn>()`` global-state call (``rand``, ``normal``,
  ``seed``, ``shuffle``, ...) — the legacy singleton API;
- stdlib ``random.<fn>()`` module-level calls, and ``random.Random()``
  without a seed.

Allowed: ``default_rng(seed)``, the ``Generator`` / ``SeedSequence`` /
bit-generator types, and ``random.Random(seed)``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.names import ImportMap

__all__ = ["UnseededRandomRule"]

_NUMPY_ALLOWED = {
    "default_rng",  # only with a seed argument, checked separately
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

_STDLIB_ALLOWED = {"Random"}  # only with a seed argument


@register
class UnseededRandomRule(Rule):
    rule_id = "SSTD004"
    summary = "no unseeded or global-state randomness"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve(node.func)
            if target is None:
                continue
            finding = self._check_call(ctx, node, target)
            if finding is not None:
                yield finding

    def _check_call(
        self, ctx: FileContext, node: ast.Call, target: str
    ) -> Finding | None:
        has_args = bool(node.args or node.keywords)
        if target.startswith("numpy.random."):
            fn = target.removeprefix("numpy.random.")
            if fn == "default_rng" and not has_args:
                return self.finding(
                    ctx,
                    node,
                    "np.random.default_rng() without a seed is "
                    "irreproducible; thread an explicit seed or Generator "
                    "through the caller",
                )
            if "." not in fn and fn not in _NUMPY_ALLOWED:
                return self.finding(
                    ctx,
                    node,
                    f"np.random.{fn}() uses numpy's process-global RNG "
                    "state; use a seeded np.random.Generator instead",
                )
        elif target.startswith("random."):
            fn = target.removeprefix("random.")
            if "." in fn:
                return None
            if fn in _STDLIB_ALLOWED and has_args:
                return None
            return self.finding(
                ctx,
                node,
                f"random.{fn}() draws from the stdlib's global (or "
                "unseeded) RNG; use a seeded np.random.Generator or "
                "random.Random(seed)",
            )
        return None
