"""Fused numba kernels for the batched HMM time recursions.

Each op compiles one whole time recursion — forward scaling, backward,
Viterbi + backtrace, Baum-Welch xi accumulation — into a single
``@njit(cache=True, nogil=True)`` loop nest with **no per-timestep
interpreter work**: where the numpy reference still dispatches a
handful of ufunc calls per timestep over a transposed working copy (and
allocates a whole ``(N, T, K, K)`` xi numerator per EM iteration), these
kernels stream through the ``(N, T, K)`` stack in place with scalar
accumulators.

Bit-identity with :mod:`repro.hmm.kernels.numpy_ref` is a hard
contract, not an aspiration: every reduction iterates in exactly the
order the reference's explicit add chains accumulate (``k``-ordered
forward contraction, ``j``-ordered step totals and backward
contraction, ``t``-sequential leading-axis sums — see the reference
module's accumulation-order contract; ``acc = 0.0; acc += x`` starts
every chain exactly, as ``0.0 + x == x``), every compound product keeps
the reference's association (``(sum_k alpha*A) * em``, ``A * (em *
beta)``, ``(alpha * A) * (em * beta)``), a dead timestep gets the same
uniform row / ``PROB_FLOOR`` rescue (checked per step here, per run
there), and numba compiles with default strict IEEE-754 semantics (no
``fastmath``, so no FMA contraction or reordering).  The parity suite
in ``tests/hmm/test_kernels.py`` and the runtime probe in
:func:`repro.hmm.kernels.kernel_parity_ok` enforce it.

When numba is not installed the module still imports and every kernel
runs *interpreted* — the loops are plain Python over float64 scalars,
which follow the same IEEE-754 order — so the backend's semantics are
testable (slowly) everywhere; only :data:`AVAILABLE` decides whether
the selection layer will ever pick it for real work.

Because the compiled kernels release the GIL (``nogil=True``), shards
decoded on the ``threads`` backend run genuinely in parallel — the one
configuration where the thread pool was previously serialized by
CPU-bound Python (``benchmarks/bench_kernels.py`` charts the scaling).
"""

from __future__ import annotations

import numpy as np

from repro.hmm.kernels.numpy_ref import active_counts
from repro.hmm.utils import PROB_FLOOR

try:  # numba is an optional accelerator, never a hard dependency
    import numba as _numba
except ImportError:  # pragma: no cover - exercised on numba-less installs
    _numba = None

AVAILABLE = _numba is not None
NUMBA_VERSION = _numba.__version__ if AVAILABLE else None

__all__ = [
    "AVAILABLE",
    "NUMBA_VERSION",
    "backward",
    "estep_xi_sum",
    "forward",
    "viterbi",
]


def _compile(fn):
    """JIT when numba exists; otherwise run the loops interpreted."""
    if not AVAILABLE:
        return fn
    return _numba.njit(cache=True, nogil=True)(fn)


def _f64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64)


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _forward_impl(startprob, transmat, emissions, lengths, counts):
    n_seqs, t_max, k = emissions.shape
    alpha = np.full((n_seqs, t_max, k), 1.0 / k)
    scales = np.ones((n_seqs, t_max))
    for n in range(n_seqs):
        total = 0.0
        for j in range(k):
            value = startprob[n, j] * emissions[n, 0, j]
            alpha[n, 0, j] = value
            total += value
        if total == 0.0:
            for j in range(k):
                alpha[n, 0, j] = 1.0 / k
            scales[n, 0] = PROB_FLOOR
        else:
            for j in range(k):
                alpha[n, 0, j] = alpha[n, 0, j] / total
            scales[n, 0] = total
    for t in range(1, t_max):
        m = counts[t]
        if m == 0:
            break
        for n in range(m):
            total = 0.0
            for j in range(k):
                acc = 0.0
                for i in range(k):
                    acc += alpha[n, t - 1, i] * transmat[n, i, j]
                value = acc * emissions[n, t, j]
                alpha[n, t, j] = value
                total += value
            if total == 0.0:
                for j in range(k):
                    alpha[n, t, j] = 1.0 / k
                scales[n, t] = PROB_FLOOR
            else:
                for j in range(k):
                    alpha[n, t, j] = alpha[n, t, j] / total
                scales[n, t] = total
    return alpha, scales


def _backward_impl(transmat, emissions, scales, lengths, counts):
    n_seqs, t_max, k = emissions.shape
    beta = np.ones((n_seqs, t_max, k))
    tail = np.empty(k)
    for t in range(t_max - 2, -1, -1):
        m = counts[t + 1]
        if m == 0:
            continue
        for n in range(m):
            for j in range(k):
                tail[j] = emissions[n, t + 1, j] * beta[n, t + 1, j]
            scale = scales[n, t + 1]
            for i in range(k):
                acc = 0.0
                for j in range(k):
                    acc += transmat[n, i, j] * tail[j]
                beta[n, t, i] = acc / scale
    return beta


def _viterbi_impl(log_startprob, log_transmat, log_emissions, lengths, counts):
    n_seqs, t_max, k = log_emissions.shape
    delta = np.zeros((n_seqs, t_max, k))
    backpointer = np.zeros((n_seqs, t_max, k), dtype=np.int64)
    for n in range(n_seqs):
        for j in range(k):
            delta[n, 0, j] = log_startprob[n, j] + log_emissions[n, 0, j]
    for t in range(1, t_max):
        m = counts[t]
        if m == 0:
            break
        for n in range(m):
            for j in range(k):
                best_i = 0
                best = delta[n, t - 1, 0] + log_transmat[n, 0, j]
                for i in range(1, k):
                    cand = delta[n, t - 1, i] + log_transmat[n, i, j]
                    if cand > best:
                        best = cand
                        best_i = i
                backpointer[n, t, j] = best_i
                delta[n, t, j] = best + log_emissions[n, t, j]
    states = np.zeros((n_seqs, t_max), dtype=np.int64)
    log_joints = np.empty(n_seqs)
    for n in range(n_seqs):
        last = lengths[n] - 1
        best_j = 0
        best = delta[n, last, 0]
        for j in range(1, k):
            if delta[n, last, j] > best:
                best = delta[n, last, j]
                best_j = j
        states[n, last] = best_j
    for t in range(t_max - 2, -1, -1):
        m = counts[t + 1]
        if m == 0:
            continue
        for n in range(m):
            states[n, t] = backpointer[n, t + 1, states[n, t + 1]]
    for n in range(n_seqs):
        last = lengths[n] - 1
        log_joints[n] = delta[n, last, states[n, last]]
    return states, log_joints


def _estep_xi_sum_impl(transmat, emissions, alpha, beta, lengths):
    n_seqs, t_max, k = emissions.shape
    xi_sum = np.zeros((n_seqs, k, k))
    for n in range(n_seqs):
        steps = lengths[n] - 1
        for t in range(steps):
            for i in range(k):
                for j in range(k):
                    xi_sum[n, i, j] += (
                        alpha[n, t, i] * transmat[n, i, j]
                    ) * (emissions[n, t + 1, j] * beta[n, t + 1, j])
    return xi_sum


_forward_jit = _compile(_forward_impl)
_backward_jit = _compile(_backward_impl)
_viterbi_jit = _compile(_viterbi_impl)
_estep_xi_sum_jit = _compile(_estep_xi_sum_impl)


def forward(
    startprob: np.ndarray,
    transmat: np.ndarray,
    emissions: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused scaled forward pass; see :func:`numpy_ref.forward`."""
    emissions = _f64(emissions)
    lengths = _i64(lengths)
    counts = _i64(active_counts(lengths, emissions.shape[1]))
    return _forward_jit(
        _f64(startprob), _f64(transmat), emissions, lengths, counts
    )


def backward(
    transmat: np.ndarray,
    emissions: np.ndarray,
    scales: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Fused scaled backward pass; see :func:`numpy_ref.backward`."""
    emissions = _f64(emissions)
    lengths = _i64(lengths)
    counts = _i64(active_counts(lengths, emissions.shape[1]))
    return _backward_jit(
        _f64(transmat), emissions, _f64(scales), lengths, counts
    )


def viterbi(
    log_startprob: np.ndarray,
    log_transmat: np.ndarray,
    log_emissions: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused log-space Viterbi + backtrace; see :func:`numpy_ref.viterbi`."""
    log_emissions = _f64(log_emissions)
    lengths = _i64(lengths)
    counts = _i64(active_counts(lengths, log_emissions.shape[1]))
    return _viterbi_jit(
        _f64(log_startprob), _f64(log_transmat), log_emissions, lengths, counts
    )


def estep_xi_sum(
    transmat: np.ndarray,
    emissions: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Fused xi accumulation; see :func:`numpy_ref.estep_xi_sum`."""
    return _estep_xi_sum_jit(
        _f64(transmat), _f64(emissions), _f64(alpha), _f64(beta), _i64(lengths)
    )
