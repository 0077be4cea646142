"""Numpy kernels for the batched HMM time recursions.

These free functions are the one implementation of forward, backward,
Viterbi and the Baum-Welch xi accumulation;
:class:`repro.hmm.batch.BatchGaussianHMM` calls them directly.
``tests/hmm/test_kernels.py`` holds forward and backward to the original
einsum recursions (kept there as a frozen oracle: bit for bit on rows of
at most ``ONE_BLOCK_MAX + 1`` timesteps, to rounding on longer ones),
``tests/hmm/test_kernel_oracle.py`` to exhaustive path enumeration and
``tests/hmm/log_reference.py`` to a log-space recursion at production
lengths.

Working layout
--------------
Every stack is time-major and row-last (emissions, ``alpha``, ``beta``
``(T, K, N)``, scales and Viterbi states ``(T, N)``); only the per-row
parameters keep the row axis first.  One timestep is a leading-axis
view, every ufunc inner loop runs over rows rather than over two or
three states, and each step is a fixed handful of ``out=`` ufunc calls.
The blocked passes read up to ``CHUNK - 1`` steps past the longest row,
so a shorter ``emissions`` than :func:`work_steps` is copied once into a
padded buffer.  Arguments are only ever read (worker inputs are
read-only shared-memory views); everything written is an ``out=``
buffer or one the op allocated.

Blocked time
------------
A step costs a few microseconds of interpreter whatever the number of
rows, so a pass that walks ``T - 1`` steps one by one is bound by the
interpreter on long grids.  :func:`forward` and :func:`backward`
instead cut time into fixed blocks of :data:`CHUNK` steps, block ``b``
holding steps ``b*CHUNK + 1 .. (b+1)*CHUNK``, and run three phases:

1. *Transfer products.*  Every block but the last gets the product of
   its step matrices (``A diag(e_t)`` forward), built one block offset
   at a time for all blocks and rows at once: ``CHUNK - 1`` Python
   steps.
2. *Carry.*  The state vector at each block boundary follows from the
   previous boundary and that block's product: one small ``(K, N)``
   step per block, in order.
3. *Replay.*  The ordinary step function runs inside every block at
   once, from the block's boundary vector, and writes every timestep's
   ``alpha`` / ``scales`` (or ``beta``) straight into the working
   buffer: ``CHUNK`` Python steps.

A pass therefore takes about ``2 * CHUNK + T / CHUNK`` Python steps
instead of ``T - 1``.  A forward step matrix uses the step's emissions
divided by their total over states, which keeps ``CHUNK`` of them in
range (only the product's direction matters; the carry renormalises
the boundary vector).  A backward step divides by the forward scale, as
the recursion does, so the product carries the scaled ``beta`` exactly.
Block 0 replays from the exact initial vector; a later block starts from
a carried vector that differs from the sequential one by rounding only,
and the filter forgets its initial condition geometrically, so the
difference does not grow along the row.

Below about four blocks the products and the carry cost more Python
steps than they save, so a row of at most :data:`ONE_BLOCK_MAX` steps
runs as a single block: the replay alone, which is the sequential
recursion.  A stack holding both kinds runs its long rows (a prefix,
rows being sorted by length) and its short rows as two passes.

Forward blocks are anchored at ``t = 0``.  Backward blocks are anchored
at each row's own last step: the backward pass runs over per-row
time-reversed copies, so ``beta[len - 1]`` is exactly 1 and a row sees
the same blocks in any stack.

Accumulation-order contract
---------------------------
Floating-point addition is not associative, so a claim decodes to the
same bits in any batch (shard-composition determinism) only if every
row's arithmetic is independent of the stack it runs in: which rows
ride along, and how long the longest of them is.  Blocks are anchored
per row and chosen by the row's own length as above, and no ``einsum``
and no ``.sum()`` is left inside a time loop; every contraction is a
chain of explicit elementwise adds:

- the forward contraction over the source state ``k`` is
  ``alpha[0]*A[0] + alpha[1]*A[1] (+ ...)`` accumulated left to right in
  ``k`` order, and so is a product's contraction over its inner state;
- the per-step total over states and the backward contraction over the
  destination state ``j`` are likewise ``col[0] + col[1] (+ ...)`` in
  index order.  Being explicit adds, they stay sequential at any ``K``;
- compound products keep one association: ``(sum_k alpha*A) * em`` in
  the forward step, ``A * (em * beta)`` in the backward step;
- time reductions (the xi sums, the emission M-step) reduce axis 0 of a
  time-major stack with exactly 0.0 past each row's end; numpy
  accumulates a reduced axis that is not the innermost one slice by
  slice — sequentially in ``t``, as along axis 1 of the old ``(N, T, K)``
  stacks — and ``acc + 0.0 == acc``.  A sum over up to seven states is
  sequential in either layout.

The contract is bitwise independence of batch composition.  Bitwise
equality with the sequential recursion holds for rows of at most
``ONE_BLOCK_MAX + 1`` timesteps, and in the first block of longer rows.

Dead timesteps
--------------
A timestep whose total probability underflows to zero is rescued with a
uniform ``alpha`` row and a ``PROB_FLOOR`` scale; ``beta`` is zero
before it.  The forward pass runs without any per-step check: a dead
step leaves a zero scale and NaN after it (a blocked row also gets a
zero product and NaN boundary vectors).  Every row whose scales then
hold a zero or a NaN is redone alone, as a single block, with the rescue
applied after every step.  Only those rows are redone, so whether a row
is, and what it gets, depends on the row alone.  The backward pass needs
no rescue: a dead step's zero emission row zeroes ``beta`` before it,
and every product that crosses it, exactly.

Padded cells come back holding neutral values (``1/K`` in ``alpha``,
``1.0`` in ``scales`` / ``beta``, ``0`` states); what a recursion
computes past a row's end never reaches the row.  Rows must be sorted
by length descending (see :func:`repro.hmm.batch.stack_ragged`).
"""

from __future__ import annotations

import numpy as np

from repro.hmm.utils import PROB_FLOOR

__all__ = [
    "CHUNK",
    "ONE_BLOCK_MAX",
    "backward",
    "estep_xi_sum",
    "forward",
    "viterbi",
    "work_steps",
]

#: Steps per time block of :func:`forward` and :func:`backward` ("Blocked
#: time"); chosen by the sweep in EXPERIMENTS.md.
CHUNK = 8

#: Rows of at most this many steps run as one block, i.e. sequentially:
#: the transfer products and the carry cost more Python steps than they
#: save below about four blocks.
ONE_BLOCK_MAX = 4 * CHUNK


def _runs(lengths: np.ndarray, t_max: int) -> list[tuple[int, int, int]]:
    """Maximal runs ``(t0, t1, m)`` of timesteps ``1 <= t0 <= t < t1``
    sharing one active-row count ``m = counts[t] > 0``, in time order.

    Timestep 0 is never part of a run: the Viterbi pass initialises it,
    and its backtrace writing ``t - 1`` from ``t`` shares ``counts[t]``.
    """
    if t_max < 2:
        return []
    # counts[t]: rows whose sequence extends past timestep t (a prefix,
    # rows being sorted by length descending).
    counts = (lengths[:, None] > np.arange(t_max)).sum(axis=0)
    cuts = (np.flatnonzero(counts[2:] != counts[1:-1]) + 2).tolist()
    return [
        (t0, t1, int(counts[t0]))
        for t0, t1 in zip([1, *cuts], [*cuts, t_max])
        if counts[t0] > 0
    ]


def _rows_last(params: np.ndarray) -> np.ndarray:
    """Contiguous copy of a per-row parameter stack with the row axis
    moved last: ``(N, K, K) -> (K, K, N)``."""
    return np.ascontiguousarray(np.moveaxis(params, 0, -1), dtype=float)


def _add_in_order(terms: list[np.ndarray], out: np.ndarray) -> np.ndarray:
    """``out = terms[0] + terms[1] + ...``, added left to right."""
    first, *rest = terms
    if not rest:
        out[...] = first
        return out
    np.add(first, rest[0], out=out)
    for term in rest[1:]:
        np.add(out, term, out=out)
    return out


def _blocks(t_max: int, span: int) -> int:
    """Blocks of ``span`` steps covering timesteps ``1 .. t_max - 1``."""
    return -(-(t_max - 1) // span)


def _by_offset(buffer: np.ndarray, start: int, blocks: int, span: int):
    """``out[j, b] = buffer[start + b * span + j]``: the timesteps of every
    block at one offset, one view per offset (no copy).  A single block
    drops the block axis: ``out[j] = buffer[start + j]``."""
    if blocks == 1:
        return buffer[start : start + span]
    stop = start + blocks * span
    chunked = buffer[start:stop].reshape((blocks, span) + buffer.shape[1:])
    return chunked.swapaxes(0, 1)


def work_steps(longest: int) -> int:
    """Timesteps of a working buffer for a stack whose longest row has
    ``longest`` steps: whole blocks of that row's pass (:func:`_passes`)."""
    if longest <= ONE_BLOCK_MAX + 1:
        return longest
    return 1 + _blocks(longest, CHUNK) * CHUNK


def _forward_transfer(
    work: np.ndarray, trans: np.ndarray, n_full: int
) -> np.ndarray:
    """Phase 1: ``(n_full, K, K, N)`` products ``M_{t0} ... M_{t0+CHUNK-1}``
    of the first ``n_full`` blocks, ``M_t = A diag(e_t)``, all blocks and
    rows at once.

    Each step's emissions are divided by their total over states first,
    so a step matrix has entries at most 1 and every row of it sums to
    at least an entry of ``A`` over ``K``: ``CHUNK`` of them neither
    overflow nor underflow.  Only a product's direction matters; the
    carry renormalises.
    """
    _, k, n_seqs = work.shape
    region = work[1 : 1 + n_full * CHUNK]
    totals = np.empty((region.shape[0], n_seqs))
    _add_in_order(list(region.swapaxes(0, 1)), out=totals)
    scaled = region / totals[:, None, :]
    ems = _by_offset(scaled[:, None], 0, n_full, CHUNK)
    # product[b, i, j] = A[i, j] * e[j] at the block's first step.
    product = np.multiply(trans, ems[0])
    scratch = np.empty((n_full, k, k, k, n_seqs))
    inner = [scratch[:, :, l] for l in range(k)]
    for em in ems[1:]:
        # scratch[b, i, l, j] = P[b, i, l] * A[l, j]; summed over l in order.
        np.multiply(product[:, :, :, None, :], trans, out=scratch)
        _add_in_order(inner, out=product)
        np.multiply(product, em, out=product)
    return product


def _forward_carry(alpha: np.ndarray, transfer: np.ndarray) -> None:
    """Phase 2: ``alpha`` at every block boundary ``b * CHUNK``, the
    normalised product of the previous boundary and its block's
    transfer."""
    _, k, n_seqs = alpha.shape
    n_full = transfer.shape[0]
    products = np.empty((k, k, n_seqs))
    first_product, *more_products = products
    nxt = np.empty((k, n_seqs))
    first_state, *more_states = nxt
    total = np.empty(n_seqs)
    multiply, add, divide = np.multiply, np.add, np.divide
    for prev, block, out in zip(
        alpha[: n_full * CHUNK : CHUNK, :, None, :],
        transfer,
        alpha[CHUNK : (n_full + 1) * CHUNK : CHUNK],
    ):
        # products[i, j] = alpha[i] * P[i, j]; summed over i in order.
        multiply(prev, block, out=products)
        if not more_products:  # K = 1
            divide(first_product, first_product, out=out)
            continue
        acc = first_product
        for product in more_products:
            add(acc, product, out=nxt)
            acc = nxt
        acc = first_state
        for state in more_states:
            add(acc, state, out=total)
            acc = total
        divide(nxt, total, out=out)


def _forward_replay(
    alpha: np.ndarray,
    scales: np.ndarray,
    work: np.ndarray,
    trans: np.ndarray,
    span: int,
    rescue: bool,
) -> None:
    """Phase 3: the forward step at each offset of every ``span``-step
    block at once, from the block's boundary vector.

    ``trans[i, j, n]`` is row n's ``A[i, j]``.  With ``rescue`` the
    dead-timestep repair runs after every step; without it a dead step
    leaves a zero in ``scales`` (and NaNs after it) for the caller to
    find.
    """
    t_pad, k, n_seqs = alpha.shape
    blocks = (t_pad - 1) // span
    lead = (blocks,) if blocks > 1 else ()
    products = np.empty(lead + (k, k, n_seqs))
    first_product, *more_products = (products[..., i, :, :] for i in range(k))
    nxt = np.empty(lead + (k, n_seqs))
    first_state, *more_states = (nxt[..., j, :] for j in range(k))
    multiply, add, divide = np.multiply, np.add, np.divide
    for prev, em, out, total, column in zip(
        _by_offset(alpha, 0, blocks, span)[..., :, None, :],
        _by_offset(work, 1, blocks, span),
        _by_offset(alpha, 1, blocks, span),
        _by_offset(scales, 1, blocks, span),
        _by_offset(scales, 1, blocks, span)[..., None, :],
    ):
        # products[b, i, j] = alpha[t-1, i] * A[i, j]; summed over i in order.
        multiply(prev, trans, out=products)
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
        divide(nxt, column, out=out)
        if rescue:
            dead = total == 0
            if dead.any():
                np.copyto(out, 1.0 / k, where=dead[..., None, :])
                total[dead] = PROB_FLOOR


def _forward_pass(
    startprob: np.ndarray,
    transmat: np.ndarray,
    work: np.ndarray,
    alpha: np.ndarray,
    scales: np.ndarray,
    length: int,
    span: int,
    rescue: bool,
) -> None:
    """Forward recursion in blocks of ``span`` steps into ``alpha`` /
    ``scales``; cells past a row's end are left unspecified."""
    k = work.shape[1]
    blocks = _blocks(length, span)
    t_pad = 1 + blocks * span
    trans = _rows_last(transmat)
    first = startprob.T * work[0]
    total = _add_in_order(list(first), out=np.empty(first.shape[1:]))
    dead = total == 0
    alpha[0] = np.where(dead, 1.0 / k, first / np.where(dead, 1.0, total))
    scales[0] = np.where(dead, PROB_FLOOR, total)
    alpha, scales, work = alpha[:t_pad], scales[:t_pad], work[:t_pad]
    # A dead step divides 0 by 0 and leaves NaN in its row's later steps;
    # steps past a row's end run on whatever its padding holds.
    with np.errstate(all="ignore"):
        if blocks > 1:
            _forward_carry(alpha, _forward_transfer(work, trans, blocks - 1))
        if blocks:
            _forward_replay(alpha, scales, work, trans, span, rescue)


def _passes(lengths: np.ndarray) -> list[tuple[slice, int, int]]:
    """How a stack's rows are cut into blocks: ``(rows, length, span)``
    per pass, ``length`` the longest row of the pass.

    Rows with more than :data:`ONE_BLOCK_MAX` steps run in blocks of
    :data:`CHUNK`; the shorter rows (a suffix: rows are sorted by length
    descending) run as a single block, which is the sequential
    recursion.  Which pass a row takes depends on its own length alone.
    """
    n_long = int(np.count_nonzero(lengths > ONE_BLOCK_MAX + 1))
    passes = []
    if n_long:
        passes.append((slice(0, n_long), int(lengths[0]), CHUNK))
    if n_long < len(lengths):
        longest = int(lengths[n_long])
        passes.append((slice(n_long, None), longest, max(1, longest - 1)))
    return passes


def forward(
    startprob: np.ndarray,
    transmat: np.ndarray,
    emissions: np.ndarray,
    lengths: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward pass over the stack, in blocks of :data:`CHUNK`.

    Returns ``(alpha, scales)``, written into ``out`` (buffers of at
    least ``max(T, work_steps(lengths[0]))`` steps) when given.  A dead
    timestep is rescued with a uniform ``alpha`` row and a
    ``PROB_FLOOR`` scale ("Dead timesteps" above).  The caller sums
    ``log(scales[:lengths[n], n])`` into row n's log-likelihood.
    """
    t_max, k, n_seqs = emissions.shape
    steps = max(t_max, work_steps(int(lengths[0])))
    work = np.asarray(emissions, dtype=float)
    if t_max < steps:  # 1.0 past the end: a missing observation
        work = np.concatenate([work, np.ones((steps - t_max, k, n_seqs))])
    if out is None:
        out = np.empty((steps, k, n_seqs)), np.empty((steps, n_seqs))
    alpha, scales = out
    for rows, length, span in _passes(lengths):
        _forward_pass(
            startprob[rows], transmat[rows], work[:, :, rows],
            alpha[:, :, rows], scales[:, rows], length, span, rescue=False,
        )  # fmt: skip
    alpha, scales = alpha[:t_max], scales[:t_max]
    padded = np.arange(t_max)[:, None] >= lengths
    live = (scales > 0) | padded  # False on a zero and on a NaN
    if not live.all():
        dead = np.flatnonzero(~live.all(axis=0))
        length = int(lengths[dead[0]])
        redo = np.empty((length, k, dead.size)), np.empty((length, dead.size))
        _forward_pass(
            startprob[dead], transmat[dead], work[:length, :, dead], *redo,
            length, max(1, length - 1), rescue=True,
        )  # fmt: skip
        alpha[:length, :, dead], scales[:length, dead] = redo
    np.copyto(alpha, 1.0 / k, where=padded[:, None, :])
    np.copyto(scales, 1.0, where=padded)
    return alpha, scales


def _reversed_rows(
    stack: np.ndarray, groups: list[tuple[int, int, int]], t_pad: int
) -> np.ndarray:
    """``(T, ..., N)`` stack as a ``(t_pad, ..., N)`` working copy in
    each row's reversed time: ``out[s, ..., n] = stack[length - s, ...,
    n]`` for ``1 <= s < length``, 1.0 everywhere else (``groups`` is
    :func:`_length_groups` of the lengths)."""
    out = np.empty((t_pad,) + stack.shape[1:])
    out[0] = 1.0
    for n0, n1, length in groups:
        out[1:length, ..., n0:n1] = stack[length - 1 : 0 : -1, ..., n0:n1]
        out[length:, ..., n0:n1] = 1.0
    return out


def _length_groups(lengths: np.ndarray) -> list[tuple[int, int, int]]:
    """Maximal row ranges ``(n0, n1, length)`` of one length, in order."""
    if lengths[0] == lengths[-1]:
        return [(0, len(lengths), int(lengths[0]))]
    cuts = (np.flatnonzero(np.diff(lengths)) + 1).tolist()
    return [
        (n0, n1, int(lengths[n0]))
        for n0, n1 in zip([0, *cuts], [*cuts, len(lengths)])
    ]


def _backward_transfer(
    work: np.ndarray, scale_rows: np.ndarray, trans: np.ndarray, n_full: int
) -> np.ndarray:
    """Phase 1 in reversed time: ``(n_full, K, K, N)`` products of the
    first ``n_full`` blocks, ``Q[b, a]`` the ``beta`` at the block's end
    from the unit vector ``a`` at its start.

    Each step divides by its forward scale, as the recursion does, so
    ``Q`` carries the scaled ``beta`` exactly.
    """
    _, k, n_seqs = work.shape
    stop = 1 + n_full * CHUNK
    scaled = work[1:stop] / scale_rows[1:stop, None, :]
    columns = _by_offset(scaled[:, :, None], 0, n_full, CHUNK)
    rows = _by_offset(scaled[:, None], 0, n_full, CHUNK)
    # product[b, a, i] = A[i, a] * (em[a] / c): the step from unit vector a.
    product = np.multiply(trans, columns[0])
    tail = np.empty_like(product)
    scratch = np.empty((n_full, k, k, k, n_seqs))
    inner = [scratch[:, :, j] for j in range(k)]
    for em in rows[1:]:
        # scratch[b, a, j, i] = A[i, j] * (em[j] / c * Q[b, a, j]);
        # summed over j in order.
        np.multiply(em, product, out=tail)
        np.multiply(trans, tail[:, :, :, None, :], out=scratch)
        _add_in_order(inner, out=product)
    return product


def _backward_carry(beta: np.ndarray, transfer: np.ndarray) -> None:
    """Phase 2 in reversed time: ``beta`` at every block boundary, the
    previous boundary times its block's transfer."""
    _, k, n_seqs = beta.shape
    n_full = transfer.shape[0]
    products = np.empty((k, k, n_seqs))
    first_product, *more_products = products
    multiply, add = np.multiply, np.add
    for prev, block, out in zip(
        beta[: n_full * CHUNK : CHUNK, :, None, :],
        transfer,
        beta[CHUNK : (n_full + 1) * CHUNK : CHUNK],
    ):
        # products[a, i] = beta[a] * Q[a, i]; summed over a in order.
        multiply(prev, block, out=products)
        if more_products:
            add(first_product, more_products[0], out=out)
            for product in more_products[1:]:
                add(out, product, out=out)
        else:
            out[...] = first_product


def _backward_replay(
    beta: np.ndarray,
    work: np.ndarray,
    scale_rows: np.ndarray,
    trans: np.ndarray,
    span: int,
) -> None:
    """Phase 3 in reversed time: the backward step at each offset of
    every ``span``-step block at once, from the block's boundary vector.

    ``trans[j, i, n]`` is row n's ``A[i, j]``.
    """
    t_pad, k, n_seqs = beta.shape
    blocks = (t_pad - 1) // span
    lead = (blocks,) if blocks > 1 else ()
    tail = np.empty(lead + (k, 1, n_seqs))
    products = np.empty(lead + (k, k, n_seqs))
    first_product, *more_products = (products[..., j, :, :] for j in range(k))
    total = np.empty(lead + (k, n_seqs))
    multiply, add, divide = np.multiply, np.add, np.divide
    for em, nxt, scale, out in zip(
        _by_offset(work, 1, blocks, span)[..., :, None, :],
        _by_offset(beta, 0, blocks, span)[..., :, None, :],
        _by_offset(scale_rows, 1, blocks, span)[..., None, :],
        _by_offset(beta, 1, blocks, span),
    ):
        # products[b, j, i] = A[i, j] * (em[j] * beta[j]); summed over j
        # in order.
        multiply(em, nxt, out=tail)
        multiply(trans, tail, out=products)
        acc = first_product
        for product in more_products:
            add(acc, product, out=total)
            acc = total
        divide(acc, scale, out=out)


def _backward_pass(
    transmat: np.ndarray,
    emissions: np.ndarray,
    scales: np.ndarray,
    lengths: np.ndarray,
    span: int,
    out: np.ndarray,
) -> None:
    """Backward recursion in blocks of ``span`` steps anchored at each
    row's last step, written into ``out`` (1.0 past a row's end)."""
    k, n_seqs = emissions.shape[1:]
    blocks = _blocks(int(lengths[0]), span)
    t_pad = 1 + blocks * span
    groups = _length_groups(lengths)
    work = _reversed_rows(emissions, groups, t_pad)
    scale_rows = _reversed_rows(scales, groups, t_pad)
    # trans[j, i, n] is row n's A[i, j]: one (K, N) slab per destination.
    trans = _rows_last(np.swapaxes(transmat, 1, 2))
    beta = np.empty((t_pad, k, n_seqs))
    beta[0] = 1.0
    # Steps past a row's end run on the padding's 1.0s.
    with np.errstate(all="ignore"):
        if blocks > 1:
            transfer = _backward_transfer(work, scale_rows, trans, blocks - 1)
            _backward_carry(beta, transfer)
        if blocks:
            _backward_replay(beta, work, scale_rows, trans, span)
    for n0, n1, length in groups:
        out[:length, :, n0:n1] = beta[length - 1 :: -1, :, n0:n1]
        out[length:, :, n0:n1] = 1.0


def backward(
    transmat: np.ndarray,
    emissions: np.ndarray,
    scales: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scaled backward pass matching :func:`forward`'s scaling, cut into
    blocks as :func:`forward` is; written into ``out`` when given."""
    t_max, n_seqs = scales.shape
    if out is None:
        out = np.empty((t_max, emissions.shape[1], n_seqs))
    for rows, _, span in _passes(lengths):
        _backward_pass(
            transmat[rows], emissions[:, :, rows], scales[:, rows],
            lengths[rows], span, out[:, :, rows],
        )  # fmt: skip
    return out


def viterbi(
    log_startprob: np.ndarray,
    log_transmat: np.ndarray,
    log_emissions: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched log-space Viterbi with backtrace over the time-major
    ``(T, K, N)`` log emissions.

    Inputs are already in log space (``log_mask_zero`` lives with the
    caller so this module stays free of transcendental math).  Returns
    ``(states, log_joints)``: ``states[:lengths[n], n]`` is row n's most
    probable hidden path (padding is 0) and ``log_joints[n]`` its joint
    log-probability.  Ties take the lowest state index, matching
    ``np.argmax``.
    """
    t_max, k, n_seqs = log_emissions.shape
    runs = _runs(lengths, t_max)
    trans = _rows_last(log_transmat)  # trans[i, j, n] = row n's log A[i, j]
    delta = np.zeros((t_max, k, n_seqs))
    backpointer = np.zeros((t_max, k, n_seqs), dtype=np.intp)
    delta[0] = log_startprob.T + log_emissions[0]
    add = np.add
    for t0, t1, m in runs:
        slabs = trans[:, :, :m]
        candidates = np.empty((k, k, m))
        best = np.empty((k, m))
        for prev, em, pointer, out in zip(
            delta[t0 - 1 : t1 - 1, :, None, :m],
            log_emissions[t0:t1, :, :m],
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
    return states, log_joints


def estep_xi_sum(
    transmat: np.ndarray,
    emissions: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    scales: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Baum-Welch expected transition counts, summed over each row's steps.

    Over the time-major stacks of :func:`forward` and :func:`backward`,
    ``xi_sum[n, i, j] = sum_t alpha[t,i,n] * A[n,i,j] * em[t+1,j,n] *
    beta[t+1,j,n] / scales[t+1,n]`` over ``t in [0, lengths[n] - 1)``.
    The ``1 / scales[t+1]`` belongs to this module's scaling:
    :func:`forward` leaves ``alpha[t]`` short of the joint by
    ``c_1..c_t`` and :func:`backward` leaves ``beta[t+1]`` short by
    ``c_{t+2}..c_T``, so their product with ``A * em[t+1]`` is
    ``c_{t+1}`` times the posterior ``xi_t(i, j)``.  With it,
    ``sum_j xi_sum[n, i, j] == sum_{t < len-1} gamma[t, i, n]`` and the
    transition M-step is the EM maximiser.  A scale is never 0 (a
    rescued dead step holds ``PROB_FLOOR``, padding holds 1.0).

    The steps past a row's end get exactly 0.0, so one sum along axis 0
    of each source state's ``(T - 1, K, N)`` product serves every row:
    not the innermost axis, so numpy adds it sequentially in ``t``, and
    ``acc + 0.0 == acc`` leaves each row the bits of its own steps.
    """
    t_max, k, n_seqs = alpha.shape
    xi_sum = np.empty((k, k, n_seqs))
    trans = _rows_last(transmat)
    tail = emissions[1:t_max] * beta[1:t_max]
    tail /= scales[1:t_max, None, :]
    past_end = (np.arange(1, t_max)[:, None] >= lengths)[:, None, :]
    # Own C-contiguous buffer whatever the arguments' layout: the order
    # the sum below runs in follows the strides of what it reduces.
    xi = np.empty((t_max - 1, k, n_seqs))
    for i in range(k):
        # xi[t, j, n] = alpha[t, i, n] * A[n, i, j] * tail[t, j, n]
        np.multiply(alpha[:-1, i, None, :], trans[i], out=xi)
        np.multiply(xi, tail, out=xi)
        np.copyto(xi, 0.0, where=past_end)
        xi.sum(axis=0, out=xi_sum[i])
    return np.ascontiguousarray(np.moveaxis(xi_sum, -1, 0))
