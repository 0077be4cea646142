"""SSTD lint rules.

Importing this package registers every rule with the engine registry:

- ``SSTD001`` — no bare / silently-swallowing broad ``except``;
- ``SSTD002`` — no mutable default arguments;
- ``SSTD003`` — lock discipline for ``# guarded-by:`` attributes;
- ``SSTD004`` — determinism: all randomness must be seeded;
- ``SSTD005`` — log/exp numerics confined to ``repro.hmm.utils``;
- ``SSTD006`` — public modules must declare ``__all__``;
- ``SSTD007`` — guarded state must not escape its lock scope;
- ``SSTD008`` — no blocking calls while holding a lock;
- ``SSTD009`` — process-queue payloads statically picklable;
- ``SSTD010`` — threads/processes joined, daemonized, or handed off;
- ``SSTD011`` — runtime packages read time through the ``repro.obs``
  ``Clock`` protocol, never ``time.time()``/``monotonic()``/
  ``perf_counter()`` directly;
- ``SSTD012`` — the global lock-acquisition order is acyclic
  (whole-program deadlock detection; ``# lock-order: A < B``
  declarations sanction audited hierarchies);
- ``SSTD013`` — kernel modules (``repro.hmm.batch``, the
  ``repro.hmm.kernels`` package, ``repro.hmm.utils``,
  ``repro.system.jobs``) never let set/dict-view iteration order reach
  numeric accumulations or task ordering (``# order-independent``
  sanctions commutative exact reductions);
- ``SSTD014`` — acquired resources (shared-memory segments, work
  queues, executors, files) are released on every path, normal and
  exceptional; ``with``/``finally``-covered releases and ownership
  hand-offs are clean, ``# owns-resource:`` sanctions attribute stores;
- ``SSTD015`` — ``# raises:`` exception contracts cover the computed
  escape set, and broad handlers in runtime packages never swallow
  silently without a ``# deliberate: <reason>``;
- ``SSTD016`` — no use-after-release (``submit`` after ``shutdown``,
  ``.array`` after close) and no double-release of callees not
  documented idempotent.

(``SSTD000`` is reserved for engine-level diagnostics — syntax errors
and stale ``noqa`` suppressions — and is emitted by the engine itself,
not by a registered rule.)

SSTD003 and SSTD007/008 share the lockset walker in
:mod:`repro.devtools.lint.flow`; SSTD007/008/009/012 additionally
consume the whole-program call graph in
:mod:`repro.devtools.lint.callgraph` when a file *set* is linted
(``lint_paths``), and degrade to their per-file behaviour for
standalone snippets (``lint_source``).
"""

from repro.devtools.lint.rules.concurrency import (
    BlockingUnderLockRule,
    GuardedEscapeRule,
)
from repro.devtools.lint.rules.defaults import MutableDefaultRule
from repro.devtools.lint.rules.determinism import UnseededRandomRule
from repro.devtools.lint.rules.exception_contracts import (
    ExceptionContractRule,
)
from repro.devtools.lint.rules.exceptions import BroadExceptRule
from repro.devtools.lint.rules.exports import MissingAllRule
from repro.devtools.lint.rules.kernel_determinism import (
    KernelDeterminismRule,
)
from repro.devtools.lint.rules.lifecycle import ThreadLifecycleRule
from repro.devtools.lint.rules.lockorder import LockOrderRule
from repro.devtools.lint.rules.locks import LockDisciplineRule
from repro.devtools.lint.rules.numerics import RawLogExpRule
from repro.devtools.lint.rules.picklability import PicklabilityRule
from repro.devtools.lint.rules.resources import (
    ResourceLeakRule,
    UseAfterReleaseRule,
)
from repro.devtools.lint.rules.timing import DirectClockReadRule

__all__ = [
    "BlockingUnderLockRule",
    "BroadExceptRule",
    "DirectClockReadRule",
    "ExceptionContractRule",
    "GuardedEscapeRule",
    "KernelDeterminismRule",
    "LockDisciplineRule",
    "LockOrderRule",
    "MissingAllRule",
    "MutableDefaultRule",
    "PicklabilityRule",
    "RawLogExpRule",
    "ResourceLeakRule",
    "ThreadLifecycleRule",
    "UnseededRandomRule",
    "UseAfterReleaseRule",
]
