"""SSTD005: log/exp numerics confined to the sanctioned helpers.

Probability code that calls ``np.log`` / ``np.exp`` directly is one
zero-probability away from ``-inf`` propagating through an EM update
(see the renormalization drift discussed in Kayaalp et al., *Hidden
Markov Modeling over Graphs*).  Inside the probability-bearing packages
(``repro.hmm``, ``repro.core``) all log-space math must go through the
helpers in :mod:`repro.hmm.utils` (``log_mask_zero``,
``batch_normal_densities``, ``normalize_rows``, ...), which handle zeros,
masking and scaling explicitly.  Modules outside those packages (e.g.
traffic models using ``exp`` for decay curves) are not probability
code and are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import FileContext, Finding, Rule, register
from repro.devtools.lint.names import ImportMap

__all__ = ["RawLogExpRule"]

#: Packages whose arrays are (log-)probabilities.
PROBABILITY_PACKAGES = ("repro.hmm", "repro.core")

#: Modules allowed to use raw log/exp — the sanctioned helper layer.
SANCTIONED_MODULES = ("repro.hmm.utils",)

_BANNED_FUNCTIONS = {
    "numpy.log",
    "numpy.log2",
    "numpy.log10",
    "numpy.log1p",
    "numpy.exp",
    "numpy.expm1",
    "numpy.exp2",
    "numpy.divide",
    "numpy.true_divide",
    "math.log",
    "math.log2",
    "math.log10",
    "math.log1p",
    "math.exp",
    "math.expm1",
    "scipy.special.logsumexp",
    "scipy.special.softmax",
}


@register
class RawLogExpRule(Rule):
    rule_id = "SSTD005"
    summary = "log/exp on probabilities only via repro.hmm.utils helpers"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module = ctx.module
        if not module.startswith(PROBABILITY_PACKAGES):
            return
        if module in SANCTIONED_MODULES:
            return
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve(node.func)
            if target in _BANNED_FUNCTIONS:
                short = target.rsplit(".", 1)[-1]
                yield self.finding(
                    ctx,
                    node,
                    f"raw {short}() in probability module {module}; route "
                    "log-space math through repro.hmm.utils (log_mask_zero, "
                    "batch_normal_densities, normalize_rows) or add a "
                    "justified '# noqa: SSTD005'",
                )
