"""Numeric helpers of the batched HMM.

This module is the *sanctioned* home for raw log/exp math on
probability arrays — lint rule SSTD005 forbids it everywhere else in
``repro.hmm`` / ``repro.core`` so that zero-handling, masking and
scaling decisions live in one audited place.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "LOG_2PI",
    "PROB_FLOOR",
    "batch_normal_densities",
    "dirichlet_log_prior",
    "log_mask_zero",
    "masked_row_sums",
    "normalize_rows",
]

#: Floor used to keep probabilities strictly positive during EM.
PROB_FLOOR = 1e-12

#: log(2 pi), the normalization constant of the Gaussian log-density.
LOG_2PI = math.log(2.0 * math.pi)


def normalize_rows(
    matrix: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Normalize each row of ``matrix`` to sum to 1.

    Rows are taken along ``axis`` (the last by default; a 1-D vector is
    one row).  Rows that sum to zero become uniform distributions (this
    happens in Baum-Welch when a state receives no expected visits).
    With ``out`` (which may be ``matrix``) the result is written there.
    """
    matrix = np.asarray(matrix, dtype=float)
    sums = matrix.sum(axis=axis, keepdims=True)
    out = np.empty_like(matrix) if out is None else out
    np.divide(matrix, np.where(sums > 0, sums, 1.0), out=out)
    np.copyto(out, 1.0 / matrix.shape[axis], where=~(sums > 0))
    return out


def masked_row_sums(matrix: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row sums over each row's first ``lengths[row]`` entries.

    Vectorized replacement for the per-row Python loop
    ``[matrix[row, :lengths[row]].sum() for row in range(n)]`` with a
    **bit-identity guarantee**: rows are grouped by equal length and
    each group reduced with one ``block[:, :length].sum(axis=1)`` call.
    numpy's pairwise summation partitions additions by the *reduction
    length*, so summing a row's exact prefix reproduces the per-row
    call's accumulation order (and therefore its bits) — unlike a
    zero-padded full-row masked sum, whose pairwise tree depends on the
    padded width and silently reorders the real additions.  Because
    each row's result depends only on its own ``lengths[row]`` entries,
    the value is also independent of batch composition (the shard
    determinism contract of :mod:`repro.hmm.batch`).

    Rows may appear in any length order; zero-length rows sum to 0.
    """
    matrix = np.asarray(matrix, dtype=float)
    lengths = np.asarray(lengths, dtype=int)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    if lengths.shape != (matrix.shape[0],):
        raise ValueError(
            f"lengths must have shape ({matrix.shape[0]},), "
            f"got {lengths.shape}"
        )
    if (lengths < 0).any() or (lengths > matrix.shape[1]).any():
        raise ValueError("lengths must be in [0, T]")
    sums = np.zeros(matrix.shape[0])
    # Not np.unique: on numpy >= 2.3 it imports numpy.ma on first use.
    for length in sorted(set(lengths.tolist())):
        if length == 0:
            continue
        rows = lengths == length
        sums[rows] = matrix[rows, : int(length)].sum(axis=1)
    return sums


def log_mask_zero(values: np.ndarray) -> np.ndarray:
    """Elementwise log with ``log(0) = -inf`` and no warnings.

    Negative inputs are a bug in the caller (probabilities cannot go
    below zero) and raise ``ValueError`` instead of silently producing
    NaN.
    """
    values = np.asarray(values, dtype=float)
    if (values < 0).any():
        raise ValueError(
            f"log_mask_zero expects non-negative input, got min {values.min()!r}"
        )
    with np.errstate(divide="ignore"):
        return np.log(values)


def dirichlet_log_prior(
    transmat: np.ndarray, pseudo_counts: np.ndarray
) -> np.ndarray:
    """``sum_ij pseudo_counts[.., i, j] * log transmat[.., i, j]``.

    The log-density, up to a constant, of a Dirichlet prior with
    parameters ``1 + pseudo_counts`` on each row of a transition matrix
    — the term MAP Baum-Welch adds to the log-likelihood.  Summed over
    the last two axes, so a ``(N, K, K)`` stack gives ``(N,)``; an entry
    without pseudo-counts contributes 0 even where ``transmat`` is 0.
    """
    pseudo_counts = np.asarray(pseudo_counts, dtype=float)
    with np.errstate(invalid="ignore"):
        terms = pseudo_counts * log_mask_zero(transmat)
    return np.where(pseudo_counts > 0, terms, 0.0).sum(axis=(-2, -1))


def batch_normal_densities(
    values: np.ndarray, means: np.ndarray, variances: np.ndarray, out=None
) -> np.ndarray:
    """Per-sequence Gaussian density stack ``D[t, i, n]``, time-major.

    ``values`` is a ``(T, N)`` stack of observation sequences (one per
    column) and ``means`` / ``variances`` hold one ``(N, K)`` parameter
    set per sequence; the result is ``(T, K, N)`` (written into ``out``
    when given) with ``D[t, i, n] = N(values[t, n]; means[n, i],
    variances[n, i])``, computed as ``exp(-(log 2 pi + log var +
    diff**2 / var) / 2)``.  Every arithmetic step is elementwise, so a
    row's densities do not depend on the other rows.  Variances must be
    strictly positive — EM enforces a variance floor, and a
    zero/denormal variance here would silently overflow the density, so
    it raises instead.
    """
    values = np.asarray(values, dtype=float)
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if (variances <= 0).any() or not np.isfinite(variances).all():
        raise ValueError(
            f"variances must be strictly positive and finite, got {variances!r}"
        )
    if out is None:
        out = np.empty((values.shape[0], means.shape[1], values.shape[1]))
    np.subtract(values[:, None, :], means.T, out=out)
    np.square(out, out=out)
    np.divide(out, variances.T, out=out)
    np.add(LOG_2PI + np.log(variances).T, out, out=out)
    np.multiply(out, -0.5, out=out)
    return np.exp(out, out=out)
