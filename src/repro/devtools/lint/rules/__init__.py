"""SSTD lint rules.

Importing this package registers every rule with the engine registry:

- ``SSTD001`` — no bare / silently-swallowing broad ``except``; in the
  runtime packages a named broad handler that does not re-raise needs
  a ``# deliberate: <reason>``;
- ``SSTD002`` — no mutable default arguments;
- ``SSTD003`` — a ``# guarded-by:`` attribute is only touched inside
  ``with self.<lock>:`` (a lexical, per-class check);
- ``SSTD004`` — determinism: all randomness must be seeded;
- ``SSTD005`` — log/exp numerics confined to ``repro.hmm.utils``;
- ``SSTD006`` — public modules must declare ``__all__``;
- ``SSTD011`` — runtime packages read time through the ``repro.obs``
  ``Clock`` protocol, never ``time.time()``/``monotonic()``/
  ``perf_counter()`` directly.

SSTD007, SSTD008, SSTD009, SSTD010, SSTD012, SSTD013, SSTD014, SSTD015
and SSTD016 were retired: a runtime check, a tier-1 test or the code's
structure catches what they caught (DESIGN.md §7 has the audit).
Their ids are not reused.

(``SSTD000`` is reserved for engine-level diagnostics — syntax errors
and stale ``noqa`` suppressions — and is emitted by the engine itself,
not by a registered rule.)
"""

from repro.devtools.lint.rules.defaults import MutableDefaultRule
from repro.devtools.lint.rules.determinism import UnseededRandomRule
from repro.devtools.lint.rules.exceptions import BroadExceptRule
from repro.devtools.lint.rules.exports import MissingAllRule
from repro.devtools.lint.rules.locks import LockDisciplineRule
from repro.devtools.lint.rules.numerics import RawLogExpRule
from repro.devtools.lint.rules.timing import DirectClockReadRule

__all__ = [
    "BroadExceptRule",
    "DirectClockReadRule",
    "LockDisciplineRule",
    "MissingAllRule",
    "MutableDefaultRule",
    "RawLogExpRule",
    "UnseededRandomRule",
]
