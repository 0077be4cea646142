"""Runtime contracts for SSTD's numerical invariants.

The paper's quantities live on tight domains: transition/emission
matrices are row-stochastic (Section III-C), contribution scores lie in
``[-1, 1]`` (Section II, Definitions 1-3), posteriors and forward
filters live on the probability simplex.  Baum-Welch re-estimation
preserves all of these *only* when every intermediate stays finite and
non-negative — one NaN or negative count silently corrupts the model
and surfaces as nonsense three modules later.

The validators here are wired into the model-update boundaries
(:mod:`repro.hmm`, :mod:`repro.core.scores`, :mod:`repro.core.sstd`).
They are toggleable and cheap when off (one attribute load and branch),
so production paths keep full speed while tests, CI and debugging runs
enable them:

- set the environment variable ``REPRO_CONTRACTS=1`` (or ``true`` /
  ``yes`` / ``on``) before the process starts, or
- call :func:`set_contracts` / use the :func:`contracts` context
  manager at runtime.

On violation every validator raises :class:`ContractViolation` with the
offending name and values in the message.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

import numpy as np

__all__ = [
    "CONTRACTS_ENV_VAR",
    "ContractViolation",
    "assert_finite",
    "assert_non_decreasing",
    "assert_probability_simplex",
    "assert_score_range",
    "assert_stochastic_matrix",
    "contracts",
    "contracts_enabled",
    "set_contracts",
]

#: Environment variable that enables contracts at import time.
CONTRACTS_ENV_VAR = "REPRO_CONTRACTS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


class ContractViolation(AssertionError):
    """A numerical invariant was broken at a model-update boundary."""


_enabled = os.environ.get(CONTRACTS_ENV_VAR, "").strip().lower() in _TRUTHY


def contracts_enabled() -> bool:
    """Whether contract validators currently run."""
    return _enabled


def set_contracts(enabled: bool) -> bool:
    """Turn contract checking on or off; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextlib.contextmanager
def contracts(enabled: bool = True) -> Iterator[None]:
    """Context manager scoping a contracts on/off switch."""
    previous = set_contracts(enabled)
    try:
        yield
    finally:
        set_contracts(previous)


def _fail(message: str) -> None:
    raise ContractViolation(message)


def assert_finite(values: np.ndarray, name: str = "array") -> None:
    """``values`` must contain no NaN or infinity."""
    if not _enabled:
        return
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)]
        _fail(f"{name} contains non-finite values: {bad[:8]!r}")


def assert_non_decreasing(
    previous: np.ndarray | float,
    current: np.ndarray | float,
    name: str = "objective",
    rtol: float = 1e-9,
) -> None:
    """``current`` must not fall below ``previous``, elementwise.

    The invariant of an EM iteration: the (penalised) log-likelihood a
    model enters iteration ``i + 1`` with is at least the one it entered
    iteration ``i`` with.  A drop within ``rtol * max(1, |previous|)``
    is rounding, not a violation.
    """
    if not _enabled:
        return
    previous = np.asarray(previous, dtype=float)
    current = np.asarray(current, dtype=float)
    slack = rtol * np.maximum(1.0, np.abs(previous))
    dropped = current < previous - slack
    if dropped.any():
        _fail(
            f"{name} decreased: {previous[dropped][:8]!r} -> "
            f"{current[dropped][:8]!r}"
        )


def assert_probability_simplex(
    values: np.ndarray, name: str = "distribution", atol: float = 1e-6
) -> None:
    """Rows of ``values`` (or the 1-D vector itself) must be distributions.

    Each row must be non-negative, finite, and sum to 1 within ``atol``.
    Accepts 1-D vectors and N-D arrays whose last axis is the simplex
    axis (e.g. ``(T, n_states)`` posterior matrices).
    """
    if not _enabled:
        return
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        _fail(f"{name} contains non-finite entries")
    if (values < 0).any():
        _fail(f"{name} has negative entries (min {values.min()!r})")
    sums = values.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=atol):
        _fail(
            f"{name} rows must sum to 1 within {atol}; "
            f"got sums in [{sums.min()!r}, {sums.max()!r}]"
        )


def assert_stochastic_matrix(
    matrix: np.ndarray, name: str = "matrix", atol: float = 1e-6
) -> None:
    """``matrix`` must be 2-D, non-negative, finite and row-stochastic.

    Unlike :func:`repro.hmm.utils.validate_stochastic_matrix` this does
    not require squareness, so it also covers the ``(n_states,
    n_symbols)`` emission matrix of the discrete HMM.
    """
    if not _enabled:
        return
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        _fail(f"{name} must be 2-D, got shape {matrix.shape}")
    assert_probability_simplex(matrix, name=name, atol=atol)


def assert_score_range(
    values: np.ndarray | float,
    name: str = "score",
    low: float = -1.0,
    high: float = 1.0,
) -> None:
    """Scores must be finite and lie in ``[low, high]``.

    Defaults cover the contribution score of paper Eq. (1): attitude in
    ``{-1, 0, +1}`` scaled by factors in ``[0, 1]`` keeps ``CS`` in
    ``[-1, 1]``.
    """
    if not _enabled:
        return
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        _fail(f"{name} contains non-finite values")
    if (values < low).any() or (values > high).any():
        _fail(
            f"{name} must lie in [{low}, {high}]; got range "
            f"[{values.min()!r}, {values.max()!r}]"
        )
