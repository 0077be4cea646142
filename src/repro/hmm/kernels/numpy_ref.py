"""Numpy kernels for the batched HMM time recursions.

These free functions are the one implementation of forward, backward,
Viterbi and the Baum-Welch xi accumulation;
:class:`repro.hmm.batch.BatchGaussianHMM` calls them directly.
``tests/hmm/test_kernels.py`` holds them bit for bit to the original
einsum recursions (kept there as a frozen oracle) and
``tests/hmm/test_kernel_oracle.py`` to exhaustive path enumeration.

Working layout
--------------
The ops take and return C-contiguous ``(N, T, K)`` / ``(N, T)`` stacks,
but recurse over a **time-major, state-major** private copy: the stack
is transposed once to a contiguous ``(T, K, N)`` buffer (``(T, N)`` for
scales) and the result transposed back once.  In that layout one
timestep is a leading-axis view, the active rows ``[:m]`` are a
contiguous prefix of the last axis, and every ufunc inner loop runs over
rows rather than over two or three states.  Rows are sorted by length
descending, so the time axis splits into a few maximal *runs* of
constant active-row count (:func:`_runs`); prefix views, transition
slabs and scratch buffers are built once per run, the run is iterated
with ``zip`` over leading-axis views, and each step is a fixed handful
of ``out=`` ufunc calls that allocate nothing.  Arguments are only ever
read (worker inputs are read-only shared-memory views); everything
written is a buffer the op allocated itself.

Accumulation-order contract
---------------------------
Floating-point addition is not associative, so a claim decodes to the
same bits in any batch (shard-composition determinism) only if the
order of every reduction is independent of the stack it runs in.  No
``einsum`` and no ``.sum()`` is left inside a time loop; every
contraction is a chain of explicit elementwise adds:

- the forward contraction over the source state ``k`` is
  ``alpha[0]*A[0] + alpha[1]*A[1] (+ ...)`` accumulated left to right in
  ``k`` order;
- the per-step total over states and the backward contraction over the
  destination state ``j`` are likewise ``col[0] + col[1] (+ ...)`` in
  ``j`` order.  Being explicit adds, they stay sequential at any ``K``;
- compound products keep one association: ``(sum_k alpha*A) * em`` in
  the forward step, ``A * (em * beta)`` in the backward step;
- time reductions (the xi sums) run along the time axis of the whole
  C-contiguous stack with exactly 0.0 past each row's end; numpy
  accumulates a non-innermost axis slice by slice — sequentially in
  ``t`` — and ``acc + 0.0 == acc``.

Dead timesteps
--------------
A timestep whose total probability underflows to zero is rescued with a
uniform ``alpha`` row and a ``PROB_FLOOR`` scale.  The rescue is
*optimistic*: a run is first recursed without any per-step check, its
block of scales is tested for zeros once, and only a run that has one is
redone by the same step function with the rescue applied after every
step (rows are independent, so the NaNs a dead row produces in the
optimistic pass never reach another row).

Padded cells hold neutral values (``1/K`` in ``alpha``, ``1.0`` in
``scales`` / ``beta``, ``0`` states) and are never read by a recursion;
rows must be sorted by length descending (see
:func:`repro.hmm.batch.stack_ragged`).
"""

from __future__ import annotations

import numpy as np

from repro.hmm.utils import PROB_FLOOR

__all__ = [
    "active_counts",
    "backward",
    "estep_xi_sum",
    "forward",
    "viterbi",
]


def active_counts(lengths: np.ndarray, t_max: int) -> np.ndarray:
    """``counts[t]`` = rows whose sequence extends past timestep ``t``.

    Rows are sorted by length descending, so the active rows at any
    timestep form a prefix of the stack.
    """
    return (lengths[:, None] > np.arange(t_max)[None, :]).sum(axis=0)


def _runs(lengths: np.ndarray, t_max: int) -> list[tuple[int, int, int]]:
    """Maximal runs ``(t0, t1, m)`` of timesteps ``1 <= t0 <= t < t1``
    sharing one active-row count ``m = counts[t] > 0``, in time order.

    Timestep 0 is never part of a run: the forward and Viterbi passes
    initialise it, and the backward step writing ``t - 1`` from ``t``
    shares the forward step's ``counts[t]``.
    """
    if t_max < 2:
        return []
    counts = active_counts(lengths, t_max)
    cuts = (np.flatnonzero(counts[2:] != counts[1:-1]) + 2).tolist()
    return [
        (t0, t1, int(counts[t0]))
        for t0, t1 in zip([1, *cuts], [*cuts, t_max])
        if counts[t0] > 0
    ]


def _rows_last(stack: np.ndarray) -> np.ndarray:
    """Contiguous working copy of a per-row stack with the row axis moved
    last: ``(N, T, K) -> (T, K, N)``, ``(N, K, K) -> (K, K, N)``."""
    return np.ascontiguousarray(
        np.asarray(stack, dtype=float).transpose(1, 2, 0)
    )


def _rows_first(work: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_rows_last`: contiguous ``(N, T, K)``."""
    return np.ascontiguousarray(work.transpose(2, 0, 1))


def _forward_run(
    alpha: np.ndarray,
    scales: np.ndarray,
    emissions: np.ndarray,
    trans: np.ndarray,
    run: tuple[int, int, int],
    rescue: bool,
) -> None:
    """Forward steps of one run, in the ``(T, K, N)`` working layout.

    ``trans[i, j, n]`` is row n's ``A[i, j]``.  With ``rescue`` the
    dead-timestep repair runs after every step; without it a dead row
    leaves a zero in ``scales`` (and NaNs after it) for the caller to
    find.
    """
    t0, t1, m = run
    k = emissions.shape[1]
    slabs = trans[:, :, :m]
    products = np.empty((k, k, m))
    first_product, *more_products = products
    nxt = np.empty((k, m))
    first_state, *more_states = nxt
    multiply, add, divide = np.multiply, np.add, np.divide
    for prev, em, out, total in zip(
        alpha[t0 - 1 : t1 - 1, :, None, :m],
        emissions[t0:t1, :, :m],
        alpha[t0:t1, :, :m],
        scales[t0:t1, :m],
    ):
        # products[i, j] = alpha[t-1, i] * A[i, j]; summed over i in order.
        multiply(prev, slabs, out=products)
        acc = first_product
        for product in more_products:
            add(acc, product, out=nxt)
            acc = nxt
        multiply(acc, em, out=nxt)
        if more_states:
            acc = first_state
            for state in more_states:
                add(acc, state, out=total)
                acc = total
        else:
            total[...] = first_state
        divide(nxt, total, out=out)
        if rescue:
            dead = total == 0
            if dead.any():
                out[:, dead] = 1.0 / k
                total[dead] = PROB_FLOOR


def forward(
    startprob: np.ndarray,
    transmat: np.ndarray,
    emissions: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward pass over the stack.

    Returns ``(alpha, scales)``; a timestep whose total probability
    underflows to zero is rescued with a uniform ``alpha`` row and a
    ``PROB_FLOOR`` scale ("Dead timesteps" above).  The per-row
    log-likelihood is ``log(scales[row, :lengths[row]]).sum()``,
    computed by the caller (:meth:`BatchGaussianHMM.forward`).
    """
    n_seqs, t_max, k = emissions.shape
    work = _rows_last(emissions)
    trans = _rows_last(transmat)
    alpha = np.full((t_max, k, n_seqs), 1.0 / k)
    scales = np.ones((t_max, n_seqs))
    first = startprob * emissions[:, 0, :]
    total = first.sum(axis=1)
    dead = total == 0
    alpha[0] = np.where(
        dead[:, None], 1.0 / k, first / np.where(dead, 1.0, total)[:, None]
    ).T
    scales[0] = np.where(dead, PROB_FLOOR, total)
    # A dead row divides 0 by 0 in the optimistic pass; the redo below
    # overwrites whatever that leaves behind.
    with np.errstate(divide="ignore", invalid="ignore"):
        for run in _runs(lengths, t_max):
            _forward_run(alpha, scales, work, trans, run, rescue=False)
            t0, t1, m = run
            if (scales[t0:t1, :m] == 0).any():
                _forward_run(alpha, scales, work, trans, run, rescue=True)
    return _rows_first(alpha), np.ascontiguousarray(scales.T)


def backward(
    transmat: np.ndarray,
    emissions: np.ndarray,
    scales: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Scaled backward pass matching :func:`forward`'s scaling."""
    n_seqs, t_max, k = emissions.shape
    work = _rows_last(emissions)
    scale_rows = np.ascontiguousarray(np.asarray(scales, dtype=float).T)
    # trans[j, i, n] is row n's A[i, j]: one (K, m) slab per destination.
    trans = _rows_last(np.swapaxes(transmat, 1, 2))
    beta = np.ones((t_max, k, n_seqs))
    multiply, add, divide = np.multiply, np.add, np.divide
    # Rows whose final timestep is t keep beta[t] = 1; the step writing
    # t - 1 only applies where the sequence extends past t - 1.
    for t0, t1, m in reversed(_runs(lengths, t_max)):
        slabs = trans[:, :, :m]
        tail = np.empty((k, 1, m))
        tail_states = tail[:, 0, :]
        products = np.empty((k, k, m))
        first_product, *more_products = products
        total = np.empty((k, m))
        for em, nxt, scale, out in zip(
            work[t0:t1, :, :m][::-1],
            beta[t0:t1, :, :m][::-1],
            scale_rows[t0:t1, :m][::-1],
            beta[t0 - 1 : t1 - 1, :, :m][::-1],
        ):
            # products[j, i] = A[i, j] * (em[j] * beta[j]); summed over
            # j in order.
            multiply(em, nxt, out=tail_states)
            multiply(slabs, tail, out=products)
            acc = first_product
            for product in more_products:
                add(acc, product, out=total)
                acc = total
            divide(acc, scale, out=out)
    return _rows_first(beta)


def viterbi(
    log_startprob: np.ndarray,
    log_transmat: np.ndarray,
    log_emissions: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched log-space Viterbi with backtrace.

    Inputs are already in log space (``log_mask_zero`` lives with the
    caller so this module stays free of transcendental math).  Returns
    ``(states, log_joints)``: ``states[n, :lengths[n]]`` is row n's most
    probable hidden path (padding is 0) and ``log_joints[n]`` its joint
    log-probability.  Ties take the lowest state index, matching
    ``np.argmax``.
    """
    n_seqs, t_max, k = log_emissions.shape
    runs = _runs(lengths, t_max)
    work = _rows_last(log_emissions)
    trans = _rows_last(log_transmat)  # trans[i, j, n] = row n's log A[i, j]
    delta = np.zeros((t_max, k, n_seqs))
    backpointer = np.zeros((t_max, k, n_seqs), dtype=np.intp)
    delta[0] = (log_startprob + log_emissions[:, 0, :]).T
    add = np.add
    for t0, t1, m in runs:
        slabs = trans[:, :, :m]
        candidates = np.empty((k, k, m))
        best = np.empty((k, m))
        for prev, em, pointer, out in zip(
            delta[t0 - 1 : t1 - 1, :, None, :m],
            work[t0:t1, :, :m],
            backpointer[t0:t1, :, :m],
            delta[t0:t1, :, :m],
        ):
            # candidates[i, j] = delta[t-1, i] + log A[i, j]
            add(prev, slabs, out=candidates)
            candidates.argmax(axis=0, out=pointer)
            candidates.max(axis=0, out=best)
            add(best, em, out=out)

    rows = np.arange(n_seqs)
    last = lengths - 1
    states = np.zeros((t_max, n_seqs), dtype=int)
    states[last, rows] = np.argmax(delta[last, :, rows], axis=1)
    for t0, t1, m in reversed(runs):
        active = rows[:m]
        for pointer, nxt, out in zip(
            backpointer[t0:t1, :, :m][::-1],
            states[t0:t1, :m][::-1],
            states[t0 - 1 : t1 - 1, :m][::-1],
        ):
            out[...] = pointer[nxt, active]
    log_joints = delta[last, states[last, rows], rows]
    return np.ascontiguousarray(states.T), log_joints


def estep_xi_sum(
    transmat: np.ndarray,
    emissions: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    scales: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Baum-Welch expected transition counts, summed over each row's steps.

    ``xi_sum[n, i, j] = sum_t alpha[n,t,i] * A[n,i,j] * em[n,t+1,j] *
    beta[n,t+1,j] / scales[n,t+1]`` over ``t in [0, lengths[n] - 1)``.
    The ``1 / scales[t+1]`` belongs to this module's scaling:
    :func:`forward` leaves ``alpha[t]`` short of the joint by
    ``c_1..c_t`` and :func:`backward` leaves ``beta[t+1]`` short by
    ``c_{t+2}..c_T``, so their product with ``A * em[t+1]`` is
    ``c_{t+1}`` times the posterior ``xi_t(i, j)``.  With it,
    ``sum_j xi_sum[n, i, j] == sum_{t < len-1} gamma[n, t, i]`` and the
    transition M-step is the EM maximiser.  A scale is never 0 (a
    rescued dead step holds ``PROB_FLOOR``, padding holds 1.0).

    The elementwise product is batched and the steps past a row's end
    are set to exactly 0.0, so one ``.sum`` along the time axis of the
    whole stack serves every row: a non-innermost axis accumulates slice
    by slice — sequentially in ``t`` — and ``acc + 0.0 == acc``, which
    leaves each row the bits of summing its own steps alone.
    """
    n_seqs, t_max, k = emissions.shape
    if t_max < 2:
        return np.zeros((n_seqs, k, k))
    # Own C-contiguous buffer whatever the arguments' layout: the order
    # the sum below runs in follows the strides of what it reduces.
    xi = np.empty((n_seqs, t_max - 1, k, k))
    np.multiply(alpha[:, :-1, :, None], transmat[:, None, :, :], out=xi)
    tail = emissions[:, 1:, :] * beta[:, 1:, :]
    tail /= scales[:, 1:, None]
    np.multiply(xi, tail[:, :, None, :], out=xi)
    xi[np.arange(1, t_max) >= lengths[:, None]] = 0.0
    return xi.sum(axis=1)
