"""Pluggable kernel backends for the batched HMM time recursions.

:class:`repro.hmm.batch.BatchGaussianHMM` runs its four inner loops —
forward scaling, backward, Viterbi + backtrace, and the Baum-Welch
xi-statistic accumulation — through one of two interchangeable
backends:

- ``numpy`` (:mod:`~repro.hmm.kernels.numpy_ref`): the reference
  recursions over a time-major working copy — one interpreter-level
  iteration per timestep, a fixed handful of allocation-free ``out=``
  ufunc calls each, every contraction an explicit ordered chain of adds;
- ``numba`` (:mod:`~repro.hmm.kernels.numba_fast`): each whole time
  recursion fused into a single ``@njit(cache=True, nogil=True)`` loop
  with no per-timestep temporaries.

Selection goes through :func:`resolve_kernel`.  Precedence: an explicit
name (``SSTDConfig.kernel``) beats the ``REPRO_KERNEL`` environment
variable beats the default ``auto``.  ``auto`` picks numba only when it
is importable, the state count is below :data:`MAX_BITWISE_STATES`
(numpy's pairwise-summation threshold — above it last-axis sums stop
being sequential and the backends could disagree in the last bit), and
a one-time bitwise :func:`kernel_parity_ok` probe passes on this
machine; otherwise it falls back to numpy silently.  numba therefore
stays an optional dependency, and shard-composition determinism — the
PR-5 contract that a claim's result is bit-identical in any batch — is
preserved by construction: both backends produce identical bits, and a
master and its workers resolve the same backend from the same
environment.

The active backend is observable: ``batch_fit_decode`` stamps it on the
``sstd.batch_fit`` span and sets the ``hmm.kernel`` gauge
(:func:`kernel_gauge_value`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.hmm.kernels import numba_fast, numpy_ref
from repro.hmm.utils import log_mask_zero

__all__ = [
    "KERNEL_NAMES",
    "KernelOps",
    "MAX_BITWISE_STATES",
    "active_kernel_info",
    "available_backends",
    "kernel_gauge_value",
    "kernel_parity_ok",
    "resolve_kernel",
]

#: Valid values for ``SSTDConfig.kernel`` / ``REPRO_KERNEL``.
KERNEL_NAMES = ("auto", "numpy", "numba")

#: numpy switches last-axis sums from sequential to blocked pairwise
#: accumulation at 8 elements; below this bound every reduction the
#: model performs over the state axis (first timestep, M-step,
#: posterior normalisation — the time loops use explicit ordered adds)
#: is sequential, so a compiled loop can match numpy bit for bit.
#: ``auto`` never selects numba at or above it.
MAX_BITWISE_STATES = 8

#: ``hmm.kernel`` gauge encoding (gauges are floats).
_GAUGE_VALUES = {"numpy": 0.0, "numba": 1.0}


@dataclass(frozen=True)
class KernelOps:
    """One backend's implementations of the four kernel ops."""

    name: str
    forward: Callable[..., tuple[np.ndarray, np.ndarray]]
    backward: Callable[..., np.ndarray]
    viterbi: Callable[..., tuple[np.ndarray, np.ndarray]]
    estep_xi_sum: Callable[..., np.ndarray]


_NUMPY_OPS = KernelOps(
    name="numpy",
    forward=numpy_ref.forward,
    backward=numpy_ref.backward,
    viterbi=numpy_ref.viterbi,
    estep_xi_sum=numpy_ref.estep_xi_sum,
)

_NUMBA_OPS = KernelOps(
    name="numba",
    forward=numba_fast.forward,
    backward=numba_fast.backward,
    viterbi=numba_fast.viterbi,
    estep_xi_sum=numba_fast.estep_xi_sum,
)

#: Parity-probe verdict per state count, so the probe (which pays one
#: JIT compilation on first use) runs at most once per K per process.
_PARITY_CACHE: dict[int, bool] = {}


def available_backends() -> tuple[str, ...]:
    """Backends usable for real work on this interpreter."""
    if numba_fast.AVAILABLE:
        return ("numpy", "numba")
    return ("numpy",)


def kernel_gauge_value(name: str) -> float:
    """Numeric encoding of a backend name for the ``hmm.kernel`` gauge."""
    return _GAUGE_VALUES[name]


def _probe_stack(n_states: int) -> tuple[np.ndarray, ...]:
    """A small deterministic ragged stack exercising every kernel path.

    Built from closed-form ramps (no RNG, no transcendentals): ragged
    lengths down to 1, a dead timestep (all-zero emissions, the
    PROB_FLOOR rescue), a constant row, and irregular positive values
    whose products are inexact so accumulation-order bugs surface.
    """
    n_seqs, t_max, k = 5, 12, n_states
    base = 1.0 + np.arange(n_seqs * t_max * k, dtype=float) % 7.0
    emissions = (base / 3.0).reshape(n_seqs, t_max, k)
    emissions[1, 4, :] = 0.0  # dead timestep: total mass underflows
    emissions[2] = 0.625  # constant row
    lengths = np.array([12, 10, 7, 3, 1], dtype=np.int64)[:n_seqs]
    startprob = np.tile(
        (1.0 + np.arange(k)) / (k * (k + 1) / 2.0), (n_seqs, 1)
    )
    raw = 1.0 + (np.arange(n_seqs * k * k, dtype=float) % 5.0)
    transmat = raw.reshape(n_seqs, k, k)
    transmat /= transmat.sum(axis=2, keepdims=True)
    return startprob, transmat, emissions, lengths


def kernel_parity_ok(n_states: int) -> bool:
    """True when the numba backend matches numpy bit for bit at this K.

    Runs all four ops on a synthetic probe stack and compares exact
    array equality (NaN-free by construction).  Works — interpreted —
    even without numba installed, where it checks the fallback loops;
    the verdict is cached per state count.
    """
    cached = _PARITY_CACHE.get(n_states)
    if cached is not None:
        return cached
    startprob, transmat, emissions, lengths = _probe_stack(n_states)
    log_startprob = log_mask_zero(startprob)
    log_transmat = log_mask_zero(transmat)
    log_emissions = log_mask_zero(emissions)
    ok = True
    alpha_ref, scales_ref = _NUMPY_OPS.forward(
        startprob, transmat, emissions, lengths
    )
    alpha, scales = _NUMBA_OPS.forward(startprob, transmat, emissions, lengths)
    ok &= bool((alpha == alpha_ref).all() and (scales == scales_ref).all())
    beta_ref = _NUMPY_OPS.backward(transmat, emissions, scales_ref, lengths)
    beta = _NUMBA_OPS.backward(transmat, emissions, scales_ref, lengths)
    ok &= bool((beta == beta_ref).all())
    states_ref, joints_ref = _NUMPY_OPS.viterbi(
        log_startprob, log_transmat, log_emissions, lengths
    )
    states, joints = _NUMBA_OPS.viterbi(
        log_startprob, log_transmat, log_emissions, lengths
    )
    ok &= bool((states == states_ref).all() and (joints == joints_ref).all())
    xi_ref = _NUMPY_OPS.estep_xi_sum(
        transmat, emissions, alpha_ref, beta_ref, lengths
    )
    xi = _NUMBA_OPS.estep_xi_sum(
        transmat, emissions, alpha_ref, beta_ref, lengths
    )
    ok &= bool((xi == xi_ref).all())
    _PARITY_CACHE[n_states] = ok
    return ok


def resolve_kernel(
    name: str | None = None, n_states: int | None = None
) -> KernelOps:
    """Pick the kernel backend for a model with ``n_states`` states.

    ``name=None`` defers to ``REPRO_KERNEL`` (default ``auto``).
    ``numpy`` always works; ``numba`` raises if numba is not importable
    (an explicit request must not silently degrade); ``auto`` selects
    numba only when available *and* provably bit-identical at this
    state count, numpy otherwise.
    """
    requested = name or os.environ.get("REPRO_KERNEL") or "auto"
    if requested not in KERNEL_NAMES:
        raise ValueError(
            f"kernel must be one of {KERNEL_NAMES}, got {requested!r}"
        )
    if requested == "numpy":
        return _NUMPY_OPS
    if requested == "numba":
        if not numba_fast.AVAILABLE:
            raise RuntimeError(
                "kernel 'numba' requested but numba is not importable; "
                "install numba or use kernel='auto' for a silent fallback"
            )
        return _NUMBA_OPS
    # auto: compiled fast path only where the determinism contract holds
    if not numba_fast.AVAILABLE:
        return _NUMPY_OPS
    if n_states is not None and (
        n_states >= MAX_BITWISE_STATES or not kernel_parity_ok(n_states)
    ):
        return _NUMPY_OPS
    return _NUMBA_OPS


def active_kernel_info(n_states: int = 2) -> dict[str, object]:
    """What ``auto`` resolves to right now — recorded by benchmarks.

    Keys: ``backend`` (resolved name honouring ``REPRO_KERNEL``),
    ``numba_available``, ``numba_version`` (None without numba).
    """
    return {
        "backend": resolve_kernel(None, n_states=n_states).name,
        "numba_available": numba_fast.AVAILABLE,
        "numba_version": numba_fast.NUMBA_VERSION,
    }
