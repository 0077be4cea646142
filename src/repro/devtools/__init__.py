"""Correctness tooling for the SSTD reproduction.

Two halves, mirroring the role lint + sanitizers play in a training
stack:

- :mod:`repro.devtools.lint` — a project-specific AST lint engine whose
  SSTD rules enforce invariants that neither the Python runtime nor
  the test suite checks (lock discipline for the shared state of
  ``repro.obs``, seeded randomness, log-space numerics confined to the
  sanctioned helpers, ...); rules whose bugs a runtime check or a test
  already catches were retired (DESIGN.md §7).  Run it with
  ``python -m repro.devtools.lint src/repro`` or ``repro-cli lint``.
- :mod:`repro.devtools.contracts` — cheap runtime validators for the
  probability-simplex and score-range invariants of the paper
  (Definitions 1-3, Eq. (5)), toggled by the ``REPRO_CONTRACTS``
  environment variable so EM steps fail loudly at the step that
  corrupted a distribution instead of three modules later.
"""

from repro._lazy import attach

# The `contracts` *submodule* is deliberately not an export:
# instrumented modules rely on `from repro.devtools import contracts`
# resolving to the module; use `contracts.contracts(...)` (or import it
# from the submodule) for the scoped on/off context manager.
__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.devtools.contracts": (
            "ContractViolation",
            "contracts_enabled",
            "set_contracts",
        ),
    },
)
