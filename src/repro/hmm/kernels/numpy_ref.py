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
instead cut time into fixed blocks of :data:`CHUNK` steps anchored at
``t = 0``, block ``b`` holding steps ``b*CHUNK + 1 .. (b+1)*CHUNK``, and
run three phases:

1. *Transfer products.*  Every block gets the product ``P_b`` of its
   step matrices ``M_t = A diag(e_t / s_t)``, ``s_t`` the step's
   emission total over states, built one block offset at a time for all
   blocks and rows at once: ``CHUNK - 1`` Python steps.  On the way it
   keeps each row's *prefix*: the product of its end block ``q`` (the
   block holding its last step) up to that step.
2. *Carry.*  The state vector at each block boundary follows from the
   neighbouring boundary and that block's product: one small ``(K, N)``
   step per block.  Forward, ``alpha[(b+1)*CHUNK]`` is ``alpha[b*CHUNK]
   P_b`` normalised.  Backward, ``beta[b*CHUNK] = F_b P_b
   beta[(b+1)*CHUNK]``, ``F_b`` the product of the block's ``s_t /
   c_t`` (``c_t`` the forward scale): the backward step ``A diag(e_t) /
   c_t`` is ``M_t`` times ``s_t / c_t``.  The backward carry is the same
   for every row, from 1 at the pass's end: past a row's end block ``q``
   its product is the identity, and at ``q`` it is the row's prefix
   times its factors, so ``beta[q*CHUNK]`` is the row's start (1 when
   its last step is that boundary).
3. *Replay.*  The ordinary step function runs inside every block at
   once, from the block's boundary vector, and writes every timestep's
   ``alpha`` / ``scales`` (or ``beta``, offsets descending, setting each
   row's last step to exactly 1 as it passes) straight into the working
   buffer: ``CHUNK`` Python steps.

A row of more than :data:`ONE_LEVEL_MAX` blocks carries in two levels,
over groups of :data:`GROUP` blocks anchored at ``t = 0`` (the pass
rounded up to whole groups with identity products): every group's
product, composed pairwise (``log2(GROUP)`` steps), the carry over the
group boundaries (a step per group), then a carry step at each offset of
every group at once (``GROUP - 1`` steps): ``3 + 23 + 7`` steps at ``T
= 1440`` instead of 180.  Shorter rows carry one block at a time.

A pass therefore takes about ``2 * CHUNK + T / CHUNK`` Python steps
(``T / (CHUNK * GROUP)`` in two levels) instead of ``T - 1``, and
:func:`forward_backward` builds the block products once for both
passes.  Dividing by ``s_t`` keeps ``CHUNK`` step matrices in range
(only a forward product's direction matters; the carry renormalises).
So do the backward's factors: ``c_t = sum_j pred_t(j) e_t(j)`` with
``pred_t = alpha[t-1] A`` summing to 1, so ``s_t / c_t`` lies in ``[1,
1 / min_j pred_t(j)]``, and ``F_b P_b`` is the product of the ``A
diag(e_t) / c_t`` the backward has always carried.  A group spans
``GROUP * CHUNK = 64`` steps, too many for a bound on ``A``.  Forward,
each level of a group's product is divided by its largest entry, so
none spans more than two block products' range.  Backward, a product
``Q`` of the backward's steps from boundary ``a`` to ``b`` has
``alpha[a] Q = alpha[b]``: its entry ``(i, j)`` is at most ``1 /
alpha[a](i)``, the bound of the scaled ``beta`` itself, and its
``alpha[a]``-weighted total is 1.
The forward's block 0 and each row's end block in the backward replay
from exact vectors; other blocks start from carried vectors that differ
from the sequential ones by rounding, and the recursions forget their
boundary condition geometrically, so the difference does not grow along
the row.

Below about four blocks the products and the carry cost more Python
steps than they save, so a row of at most :data:`ONE_BLOCK_MAX` steps
runs as a single block: the replay alone, which is the sequential
recursion.  A stack holding both kinds runs its long rows (a prefix,
rows being sorted by length) and its short rows as two passes.
:class:`Layout` holds the passes and where each row ends in them.

Accumulation-order contract
---------------------------
Floating-point addition is not associative, so a claim decodes to the
same bits in any batch (shard-composition determinism) only if every
row's arithmetic is independent of the stack it runs in: which rows
ride along, and how long the longest of them is.  Blocks and groups
are anchored at ``t = 0``, a row's backward starts from its own last
step, its pass and carry are chosen by its own length, and no
``einsum`` and no ``.sum()`` is left inside a time loop; every
contraction is a chain of explicit elementwise adds:

- the forward contraction over the source state ``k`` is
  ``alpha[0]*A[0] + alpha[1]*A[1] (+ ...)`` accumulated left to right in
  ``k`` order, and so is a product's contraction over its inner state;
- the per-step total over states and the backward contractions over the
  destination state ``j`` are likewise ``col[0] + col[1] (+ ...)`` in
  index order.  Being explicit adds, they stay sequential at any ``K``;
  a block's ``s_t / c_t`` multiply in ``t`` order;
- compound products keep one association: ``(sum_k alpha*A) * em`` in
  the forward step, ``A * (em * beta)`` in the backward step and
  ``(F_b P_b) beta`` in its carry;
- the two-level carry has a fixed depth: groups anchored at ``t = 0``,
  each composed as ``((P0 P1)(P2 P3))((P4 P5)(P6 P7))``, taken or not by
  a row's own block count, and the identities past a row's end multiply
  exactly (``x * 1 + y * 0 == x``);
- time reductions (the xi sums, the emission M-step) reduce axis 0 of a
  time-major stack with exactly 0.0 past each row's end; numpy
  accumulates a reduced axis that is not the innermost one slice by
  slice — sequentially in ``t``, as along axis 1 of the old ``(N, T, K)``
  stacks — and ``acc + 0.0 == acc``.  A sum over up to seven states is
  sequential in either layout.

The contract is bitwise independence of batch composition.  Bitwise
equality with the sequential recursion holds for rows of at most
``ONE_BLOCK_MAX + 1`` timesteps, in the forward's first block of longer
rows and in their backward's end block.

Dead timesteps
--------------
A timestep whose total probability underflows to zero is rescued with a
uniform ``alpha`` row and a ``PROB_FLOOR`` scale; ``beta`` is zero
before it.  The forward pass runs without any per-step check: a dead
step leaves a zero scale and NaN after it (a blocked row also gets a
zero product and NaN boundary vectors).  Every row whose scales then
hold a zero or a NaN is redone alone, as a single block, with the rescue
applied after every step; so is the backward of every row whose scales
hold a rescued ``PROB_FLOOR``, since a dead step's ``e_t / s_t`` is
0 / 0 in the products, while the sequential step's zero emission row
zeroes ``beta`` before it exactly.  Only those rows are redone, so
whether a row is, and what it gets, depends on the row alone.

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
    "GROUP",
    "ONE_BLOCK_MAX",
    "ONE_LEVEL_MAX",
    "Layout",
    "backward",
    "estep_xi_sum",
    "forward",
    "forward_backward",
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

#: Block products per group of the two-level carry ("Blocked time").
GROUP = 8

#: Rows of at most this many blocks carry their block boundaries one
#: block at a time, longer rows in two levels; chosen by the sweep in
#: EXPERIMENTS.md.
ONE_LEVEL_MAX = 48


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


class _Ends:
    """Where the rows of a pass end: row n's last step ``lengths[n] - 1``
    is offset ``o`` of its ``span``-step end block ``q``."""

    def __init__(self, lengths: np.ndarray, span: int) -> None:
        last = np.asarray(lengths, dtype=np.intp) - 1
        block, offset = np.divmod(last, span)
        rows = np.arange(last.size)
        #: Per offset: ``(q, last step, rows)`` of the rows ending there.
        self.at: list[tuple[np.ndarray, ...] | None] = [None] * span
        for o in set(offset.tolist()):
            hit = offset == o
            self.at[o] = block[hit], last[hit], rows[hit]
        #: ``(q, o - 1, rows)`` of the rows whose backward starts from a
        #: prefix (``o > 0``).
        inside = offset > 0
        self.inside = block[inside], offset[inside] - 1, rows[inside]
        own = block + inside  # the blocks each row spans
        #: Rows carried in two levels (a prefix), and the most blocks of
        #: a row carried one block at a time.
        self.two_level = n_two = int(np.count_nonzero(own > ONE_LEVEL_MAX))
        self.one_level = int(own[n_two:].max(initial=0))
        whole = GROUP if n_two else 1
        #: ``(blocks, N)``: True past each row's end block, over the
        #: pass's blocks rounded up to whole groups if it has two levels.
        blocks = -(-int(own[0]) // whole) * whole
        self.past = np.arange(blocks)[:, None] >= own


class Layout:
    """Rows of ``lengths`` in working buffers of ``steps`` timesteps (at
    least ``t_max``): their passes (:func:`_passes`), where each row ends
    in them, and the padded cells.  It depends on the lengths alone, so
    ``BatchGaussianHMM.fit`` builds one per set of active rows."""

    def __init__(self, lengths: np.ndarray, t_max: int) -> None:
        self.lengths = lengths
        self.steps = max(t_max, work_steps(int(lengths[0])))
        #: ``(steps, N)``: True past each row's end.
        self.padded = np.arange(self.steps)[:, None] >= lengths
        self.passes = [
            (rows, length, span, _Ends(lengths[rows], span))
            for rows, length, span in _passes(lengths)
        ]


def _forward_transfer(
    work: np.ndarray, trans: np.ndarray, blocks: int, ends: _Ends
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase 1: ``(products, totals, prefixes)``.  ``products[b]`` is
    ``P_b`` (``M_t = A diag(e_t / s_t)``), all blocks and rows at once,
    and the identity on the blocks that round the pass up to whole
    groups (``ends.past``): a ``(blocks, K, K, N)`` view of state-major
    memory, so every inner loop runs over all blocks and rows.
    ``totals`` are the ``s_t`` of timesteps ``1 ..``; ``prefixes[n]`` is
    row n's end-block prefix, ``(N, K, K)``, kept as the loop passes it
    (unspecified when its last step is a boundary).

    Each step's emissions are divided by their total over states first,
    so a step matrix has entries at most 1 and every row of it sums to
    at least an entry of ``A`` over ``K``: ``CHUNK`` of them neither
    overflow nor underflow.  Only a forward product's direction matters;
    the carry renormalises.
    """
    _, k, n_seqs = work.shape
    region = work[1 : 1 + blocks * CHUNK]
    totals = np.empty((region.shape[0], n_seqs))
    _add_in_order(list(region.swapaxes(0, 1)), out=totals)
    scaled = region / totals[:, None, :]
    # ems[o][j, b] = e[j] / s at offset o of block b.
    ems = _by_offset(scaled, 0, blocks, CHUNK).swapaxes(1, 2)
    prefixes = np.empty((n_seqs, k, k))
    products = np.empty((k, k, len(ends.past), n_seqs))
    products[:, :, blocks:] = np.eye(k)[:, :, None, None]
    trans = np.repeat(trans[:, :, None, :], blocks, axis=2)
    # product[i, j, b] = A[i, j] * e[j] at the block's first step.
    product = np.multiply(trans, ems[0], out=products[:, :, :blocks])
    scratch = np.empty((k, k, k, blocks, n_seqs))
    inner = [scratch[:, l] for l in range(k)]
    # After offset o the product holds o + 1 steps: the prefix of the
    # rows whose last step is offset o + 1.
    for em, ending in zip([None, *ems[1:]], [*ends.at[1:], None]):
        if em is not None:
            # scratch[i, l, j, b] = P[i, l, b] * A[l, j]; summed over l
            # in order.
            np.multiply(product[:, :, None], trans, out=scratch)
            _add_in_order(inner, out=product)
            np.multiply(product, em, out=product)
        if ending is not None:
            block, _, rows = ending
            prefixes[rows] = product[:, :, block, rows].transpose(2, 0, 1)
    return products.transpose(2, 0, 1, 3), totals, prefixes


def _carry(
    prevs: np.ndarray, products: np.ndarray, outs: np.ndarray, normalise: bool
) -> None:
    """``out = prev P`` for each ``(prev, P, out)`` along the leading
    axis in turn, summed over ``P``'s first state in order; with
    ``normalise`` divided by its total over states.  Further leading axes
    ride along (every group at once)."""
    *lead, k, n_seqs = outs.shape[1:]
    pairs = np.empty((*lead, k, k, n_seqs))
    first_product, *more_products = (pairs[..., i, :, :] for i in range(k))
    nxt, total = np.empty((*lead, k, n_seqs)), np.empty((*lead, 1, n_seqs))
    first_state, *more_states = (nxt[..., j, :] for j in range(k))
    summed = total[..., 0, :]
    multiply, add, divide = np.multiply, np.add, np.divide
    for prev, block, out in zip(prevs[..., :, None, :], products, outs):
        # pairs[i, j] = prev[i] * P[i, j]; summed over i in order.
        multiply(prev, block, out=pairs)
        acc = first_product
        dest = nxt if normalise else out
        for product in more_products:
            add(acc, product, out=dest)
            acc = dest
        if not more_products:  # K = 1
            dest[...] = first_product
        if normalise:
            acc = first_state
            for state in more_states:
                add(acc, state, out=summed)
                acc = summed
            if not more_states:
                summed[...] = first_state
            divide(nxt, total, out=out)


def _group_products(products: np.ndarray, normalise: bool) -> np.ndarray:
    """The product of every group of :data:`GROUP` block products,
    composed pairwise; with ``normalise`` each level is divided by its
    largest entry."""
    k, groups = products.shape[1], len(products) // GROUP
    scratch = np.empty((len(products) // 2, k) + products.shape[1:])
    level = products
    while len(level) > groups:
        # pairs[m, i, l, j] = X_2m[i, l] * X_2m+1[l, j]; summed over l.
        pairs = scratch[: len(level) // 2]
        np.multiply(level[0::2, :, :, None], level[1::2, None], out=pairs)
        level = np.empty(pairs.shape[:2] + pairs.shape[3:])
        _add_in_order([pairs[:, :, l] for l in range(k)], out=level)
        if normalise:
            level /= level.max(axis=(1, 2), keepdims=True)
    return level


def _boundaries(
    bound: np.ndarray, products: np.ndarray, ends: _Ends, forward: bool
) -> None:
    """Phase 2, both directions: ``bound[b]``, the vector at the block
    boundary ``b * CHUNK``, from ``bound[0]`` forward (normalised) and
    from 1 at the pass's end backward (``v[b + 1] = v[b] P_b`` over the
    boundaries reversed and the products transposed).  The first
    ``ends.two_level`` rows carry over whole groups in a buffer of their
    own, then inside every group at once; the others block by block."""
    n_two, stop = ends.two_level, ends.one_level + (not forward)
    groups = np.empty((len(products) + 1, bound.shape[1], n_two))
    groups[0] = bound[0, :, :n_two]
    for vectors, mats, span in (
        (groups, products[..., :n_two], GROUP),
        (bound[:stop, :, n_two:], products[: stop - 1, ..., n_two:], 1),
    ):
        if not vectors.size:
            continue
        if not forward:
            vectors[-1] = 1.0
            vectors, mats = vectors[::-1], mats.swapaxes(1, 2)[::-1]
        spans = _group_products(mats, forward) if span > 1 else mats
        _carry(vectors[:-1:span], spans, vectors[span::span], forward)
        if span > 1:
            inside = (_by_offset(a, s, len(spans), span)[:-1] for a, s in
                      ((vectors, 0), (mats, 0), (vectors, 1)))  # fmt: skip
            _carry(*inside, forward)
    if n_two:
        bound[..., :n_two] = groups[: len(bound)]


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
    ends: _Ends | None = None,
    transfer: tuple | None = None,
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
        if transfer is not None:
            _boundaries(alpha[::CHUNK], transfer[0], ends, forward=True)
        if blocks:
            _forward_replay(alpha, scales, work, trans, span, rescue)


def _transfers(
    transmat: np.ndarray, work: np.ndarray, layout: Layout
) -> list[tuple | None]:
    """Each pass's :func:`_forward_transfer`; None for a single block."""
    with np.errstate(all="ignore"):  # a dead step's e_t / s_t is 0 / 0
        return [
            _forward_transfer(
                work[:, :, rows], _rows_last(transmat[rows]),
                _blocks(length, span), ends,
            )  # fmt: skip
            if length > ONE_BLOCK_MAX + 1
            else None
            for rows, length, span, ends in layout.passes
        ]


def _forward(
    startprob: np.ndarray,
    transmat: np.ndarray,
    work: np.ndarray,
    layout: Layout,
    alpha: np.ndarray,
    scales: np.ndarray,
    transfers: list[tuple | None],
) -> None:
    """:func:`forward` over buffers of ``layout.steps`` timesteps."""
    k = work.shape[1]
    for (rows, length, span, ends), transfer in zip(layout.passes, transfers):
        _forward_pass(
            startprob[rows], transmat[rows], work[:, :, rows],
            alpha[:, :, rows], scales[:, rows], length, span, False, ends,
            transfer,
        )  # fmt: skip
    live = (scales > 0) | layout.padded  # False on a zero and on a NaN
    if not live.all():
        dead = np.flatnonzero(~live.all(axis=0))
        length = int(layout.lengths[dead[0]])
        redo = np.empty((length, k, dead.size)), np.empty((length, dead.size))
        _forward_pass(
            startprob[dead], transmat[dead], work[:length, :, dead], *redo,
            length, max(1, length - 1), rescue=True,
        )  # fmt: skip
        alpha[:length, :, dead], scales[:length, dead] = redo
    np.copyto(alpha, 1.0 / k, where=layout.padded[:, None, :])
    np.copyto(scales, 1.0, where=layout.padded)


def _working(emissions: np.ndarray, steps: int) -> np.ndarray:
    """``emissions`` over ``steps`` timesteps, 1.0 (a missing
    observation) past its end; copied only when it is shorter."""
    work = np.asarray(emissions, dtype=float)
    if work.shape[0] < steps:
        pad = np.ones((steps - work.shape[0],) + work.shape[1:])
        work = np.concatenate([work, pad])
    return work


def forward(
    startprob: np.ndarray,
    transmat: np.ndarray,
    emissions: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward pass over the stack, in blocks of :data:`CHUNK`.

    Returns ``(alpha, scales)``.  A dead timestep is rescued with a
    uniform ``alpha`` row and a ``PROB_FLOOR`` scale ("Dead timesteps"
    above).  The caller sums ``log(scales[:lengths[n], n])`` into row
    n's log-likelihood.
    """
    t_max, k, n_seqs = emissions.shape
    layout = Layout(lengths, t_max)
    steps = layout.steps
    work = _working(emissions, steps)
    alpha, scales = np.empty((steps, k, n_seqs)), np.empty((steps, n_seqs))
    transfers = _transfers(transmat, work, layout)
    _forward(startprob, transmat, work, layout, alpha, scales, transfers)
    return alpha[:t_max], scales[:t_max]


def _backward_carry(
    beta: np.ndarray, scales: np.ndarray, transfer: tuple, ends: _Ends
) -> None:
    """Phase 2 of the backward over ``F_b P_b``, ``F_b`` the product of
    block b's ``s_t / c_t``: the identity past each row's end block and
    its prefix times its factors at that block.  These replace
    ``transfer``'s totals and products, in place."""
    products, totals, prefixes = transfer
    blocks, k = totals.shape[0] // CHUNK, products.shape[1]
    totals /= scales[1 : 1 + blocks * CHUNK]
    # factors[o, b]: s_t / c_t over offsets 0 .. o of block b, in order.
    factors = _by_offset(totals, 0, blocks, CHUNK)
    for prev, out in zip(factors, factors[1:]):
        np.multiply(prev, out, out=out)
    real = products[:blocks]
    np.multiply(real, factors[-1][:, None, None, :], out=real)
    np.copyto(products, np.eye(k)[:, :, None], where=ends.past[:, None, None])
    block, offset, rows = ends.inside
    folded = prefixes[rows] * factors[offset, block, rows][:, None, None]
    products[block, :, :, rows] = folded
    _boundaries(beta[::CHUNK], products, ends, forward=False)


def _backward_replay(
    beta: np.ndarray,
    work: np.ndarray,
    scales: np.ndarray,
    trans: np.ndarray,
    span: int,
    ends: _Ends,
) -> None:
    """Phase 3 of the backward: the backward step at each offset of
    every ``span``-step block at once, offsets descending, from the
    block's right boundary vector; a row's last step is set to 1 as the
    replay passes it.

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
    for em, nxt, scale, out, ending in zip(
        _by_offset(work, 1, blocks, span)[::-1, ..., :, None, :],
        _by_offset(beta, 1, blocks, span)[::-1, ..., :, None, :],
        _by_offset(scales, 1, blocks, span)[::-1, ..., None, :],
        _by_offset(beta, 0, blocks, span)[::-1],
        ends.at[::-1],
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
        if ending is not None:
            _, steps, rows = ending
            beta[steps, :, rows] = 1.0


def _backward_pass(
    transmat: np.ndarray,
    work: np.ndarray,
    scales: np.ndarray,
    beta: np.ndarray,
    length: int,
    span: int,
    ends: _Ends,
    transfer: tuple | None = None,
) -> None:
    """Backward recursion in blocks of ``span`` steps into ``beta``, each
    row from its own last step; cells past a row's end are left
    unspecified."""
    blocks = _blocks(length, span)
    t_pad = 1 + blocks * span
    # trans[j, i, n] is row n's A[i, j]: one (K, N) slab per destination.
    trans = _rows_last(np.swapaxes(transmat, 1, 2))
    beta, work, scales = beta[:t_pad], work[:t_pad], scales[:t_pad]
    beta[-1] = 1.0
    # Steps past a row's end run on whatever its padding holds.
    with np.errstate(all="ignore"):
        if transfer is not None:
            _backward_carry(beta, scales, transfer, ends)
        if blocks:
            _backward_replay(beta, work, scales, trans, span, ends)


def _backward(
    transmat: np.ndarray,
    work: np.ndarray,
    scales: np.ndarray,
    layout: Layout,
    beta: np.ndarray,
    transfers: list[tuple | None],
) -> None:
    """:func:`backward` over buffers of ``layout.steps`` timesteps."""
    for (rows, length, span, ends), transfer in zip(layout.passes, transfers):
        _backward_pass(
            transmat[rows], work[:, :, rows], scales[:, rows],
            beta[:, :, rows], length, span, ends, transfer,
        )  # fmt: skip
    # A rescued step's scale is PROB_FLOOR; a row that ran as one block
    # anyway gets its own bits again.
    rescued = np.flatnonzero((scales == PROB_FLOOR).any(axis=0))
    if rescued.size:
        lengths = layout.lengths[rescued]
        length, span = int(lengths[0]), max(1, int(lengths[0]) - 1)
        redo = np.empty((length, work.shape[1], rescued.size))
        _backward_pass(
            transmat[rescued], work[:length, :, rescued],
            scales[:length, rescued], redo, length, span, _Ends(lengths, span),
        )  # fmt: skip
        beta[:length, :, rescued] = redo
    np.copyto(beta, 1.0, where=layout.padded[:, None, :])


def backward(
    transmat: np.ndarray,
    emissions: np.ndarray,
    scales: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Scaled backward pass matching :func:`forward`'s scaling, from the
    products :func:`forward` builds."""
    t_max, n_seqs = scales.shape
    layout = Layout(lengths, t_max)
    work = _working(emissions, layout.steps)
    scales = _working(scales, layout.steps)
    beta = np.empty((layout.steps, work.shape[1], n_seqs))
    transfers = _transfers(transmat, work, layout)
    _backward(transmat, work, scales, layout, beta, transfers)
    return beta[:t_max]


def forward_backward(
    startprob: np.ndarray,
    transmat: np.ndarray,
    emissions: np.ndarray,
    layout: Layout,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """:func:`forward` then :func:`backward`, with their bits, into ``out
    = (alpha, scales, beta)``, building each pass's products once.
    ``emissions`` and ``out`` span ``layout.steps`` timesteps."""
    alpha, scales, beta = out
    transfers = _transfers(transmat, emissions, layout)
    _forward(startprob, transmat, emissions, layout, alpha, scales, transfers)
    _backward(transmat, emissions, scales, layout, beta, transfers)


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
