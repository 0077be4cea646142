"""The HMM kernels: masked row sums, the frozen oracle, blocked time.

``numpy_ref`` is pinned against a *frozen oracle*: the einsum /
``.sum(axis=2)`` / ``take_along_axis`` recursion bodies it had before
the time-major rewrite, kept verbatim below (``oracle_*``).  The
time-major rewrite changed how many interpreter round-trips a timestep
costs, not one bit of any output.  Blocked time (``CHUNK``) changed the
arithmetic of rows longer than ``ONE_BLOCK_MAX + 1`` steps: forward and
backward match the oracle bit for bit on shorter rows and to 1e-13
relative on longer ones, Viterbi bit for bit everywhere, and every row
gets the same bits alone as in any stack.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sstd import SSTD, SSTDConfig
from repro.hmm import BatchGaussianHMM
from repro.hmm.batch import _EStep
from repro.hmm.kernels import active_kernel_info, numpy_ref
from repro.hmm.utils import PROB_FLOOR, log_mask_zero, masked_row_sums
from repro.streams.events import PopulationConfig, ScenarioSpec
from repro.streams.generator import GeneratorConfig, generate_trace


# ---------------------------------------------------------------------------
# Frozen oracle: the pre-rewrite numpy_ref recursions, verbatim.  Do not
# "modernise" these — they are the reference the production kernels are
# compared against.
# ---------------------------------------------------------------------------
def oracle_active_counts(lengths, t_max):
    return (lengths[:, None] > np.arange(t_max)[None, :]).sum(axis=0)


def oracle_forward(startprob, transmat, emissions, lengths):
    n_seqs, t_max, k = emissions.shape
    counts = oracle_active_counts(lengths, t_max)
    alpha = np.full((n_seqs, t_max, k), 1.0 / k)
    scales = np.ones((n_seqs, t_max))
    first = startprob * emissions[:, 0, :]
    total = first.sum(axis=1)
    dead = total == 0
    alpha[:, 0, :] = np.where(
        dead[:, None], 1.0 / k, first / np.where(dead, 1.0, total)[:, None]
    )
    scales[:, 0] = np.where(dead, PROB_FLOOR, total)
    for t in range(1, t_max):
        m = counts[t]
        if m == 0:
            break
        nxt = (
            np.einsum("nk,nkj->nj", alpha[:m, t - 1, :], transmat[:m])
            * emissions[:m, t, :]
        )
        total = nxt.sum(axis=1)
        dead = total == 0
        alpha[:m, t, :] = np.where(
            dead[:, None],
            1.0 / k,
            nxt / np.where(dead, 1.0, total)[:, None],
        )
        scales[:m, t] = np.where(dead, PROB_FLOOR, total)
    return alpha, scales


def oracle_backward(transmat, emissions, scales, lengths):
    n_seqs, t_max, k = emissions.shape
    counts = oracle_active_counts(lengths, t_max)
    beta = np.ones((n_seqs, t_max, k))
    for t in range(t_max - 2, -1, -1):
        m = counts[t + 1]
        if m == 0:
            continue
        tail = emissions[:m, t + 1, :] * beta[:m, t + 1, :]
        beta[:m, t, :] = (transmat[:m] * tail[:, None, :]).sum(axis=2) / (
            scales[:m, t + 1][:, None]
        )
    return beta


def oracle_viterbi(log_startprob, log_transmat, log_emissions, lengths):
    n_seqs, t_max, k = log_emissions.shape
    counts = oracle_active_counts(lengths, t_max)
    delta = np.zeros((n_seqs, t_max, k))
    backpointer = np.zeros((n_seqs, t_max, k), dtype=int)
    delta[:, 0, :] = log_startprob + log_emissions[:, 0, :]
    for t in range(1, t_max):
        m = counts[t]
        if m == 0:
            break
        candidates = delta[:m, t - 1, :, None] + log_transmat[:m]
        best = np.argmax(candidates, axis=1)
        backpointer[:m, t, :] = best
        delta[:m, t, :] = (
            np.take_along_axis(candidates, best[:, None, :], axis=1)[:, 0, :]
            + log_emissions[:m, t, :]
        )

    rows = np.arange(n_seqs)
    last = lengths - 1
    states = np.zeros((n_seqs, t_max), dtype=int)
    states[rows, last] = np.argmax(delta[rows, last, :], axis=1)
    for t in range(t_max - 2, -1, -1):
        m = counts[t + 1]
        if m == 0:
            continue
        states[:m, t] = backpointer[np.arange(m), t + 1, states[:m, t + 1]]
    log_joints = delta[rows, last, states[rows, last]]
    return states, log_joints


def assert_oracle_equal(got, want, lengths):
    """``got`` is ``want`` bit for bit on the rows that run as one block
    (the sequential recursion) and within 1e-13 relative on the others;
    same dtype, shape and C layout."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    one_block = lengths <= numpy_ref.ONE_BLOCK_MAX + 1
    assert np.array_equal(got[one_block], want[one_block])
    np.testing.assert_allclose(
        got[~one_block], want[~one_block], rtol=1e-13, atol=0.0
    )


def same_bits(got, want):
    """Exact equality of values (NaN == NaN), dtype, shape and layout."""
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.flags.c_contiguous
        and np.array_equal(got, want, equal_nan=got.dtype.kind == "f")
    )


def random_params(rng, n, k):
    startprob = rng.random((n, k)) + 0.05
    startprob /= startprob.sum(axis=1, keepdims=True)
    transmat = rng.random((n, k, k)) + 0.05
    transmat /= transmat.sum(axis=2, keepdims=True)
    return startprob, transmat


def random_lengths(rng, n, t_max, shape):
    """Length-descending row lengths in one of the run shapes the
    kernels split the time axis into."""
    if shape == "equal":  # a single run
        lengths = np.full(n, t_max)
    elif shape == "decreasing":  # as many runs as distinct lengths
        lengths = np.maximum(1, t_max - np.arange(n))
    elif shape == "short":  # padding past the longest row (m == 0 steps)
        lengths = np.sort(rng.integers(1, max(2, t_max // 2 + 1), size=n))[::-1]
    else:  # "ragged": a few runs of several rows, lengths down to 1
        lengths = np.sort(rng.integers(1, t_max + 1, size=n))[::-1]
        lengths[-1] = 1
        lengths = np.sort(lengths)[::-1]
    return np.ascontiguousarray(lengths, dtype=np.int64)


def hostile_view(rng, array, how):
    """The same values behind a layout a worker may hand the kernels."""
    if how == "readonly":
        out = array.copy()
    elif how == "strided":  # every other element of a wider buffer
        wide = rng.random(array.shape[:-1] + (2 * array.shape[-1],))
        wide[..., ::2] = array
        out = wide[..., ::2]
    else:  # "fortran": column-major memory behind the same shape
        out = np.asfortranarray(array)
    out.setflags(write=False)
    assert np.array_equal(out, array)
    return out


def time_major(stack):
    """An ``(N, T, K)`` / ``(N, T)`` stack as the kernels' time-major
    view: no copy, so the kernels see the caller's strides and flags."""
    return np.moveaxis(stack, 0, -1)


def rows_first(stack):
    """A kernel's time-major output back to ``(N, T, K)`` / ``(N, T)``;
    the kernels hand out C-contiguous stacks of their own."""
    assert stack.flags.c_contiguous
    return np.ascontiguousarray(np.moveaxis(stack, -1, 0))


def kernel_forward(startprob, transmat, emissions, lengths):
    alpha, scales = numpy_ref.forward(
        startprob, transmat, time_major(emissions), lengths
    )
    return rows_first(alpha), rows_first(scales)


def kernel_backward(transmat, emissions, scales, lengths):
    beta = numpy_ref.backward(
        transmat, time_major(emissions), time_major(scales), lengths
    )
    return rows_first(beta)


def kernel_viterbi(log_startprob, log_transmat, log_emissions, lengths):
    states, log_joints = numpy_ref.viterbi(
        log_startprob, log_transmat, time_major(log_emissions), lengths
    )
    return rows_first(states), log_joints


def assert_matches_oracle(startprob, transmat, emissions, lengths):
    """numpy_ref forward / backward / viterbi == the frozen oracle
    (forward and backward as :func:`assert_oracle_equal` says).

    The oracle always sees plain C-contiguous copies — the only layout
    production ever gave it (einsum picks its inner loop, hence its
    rounding, from the strides it is handed) — while the kernels under
    test get the arrays as passed, whatever their layout or flags.
    """
    plain = [np.array(a, order="C") for a in (startprob, transmat, emissions)]
    alpha_ref, scales_ref = oracle_forward(*plain, lengths)
    alpha, scales = kernel_forward(startprob, transmat, emissions, lengths)
    assert_oracle_equal(alpha, alpha_ref, lengths)
    assert_oracle_equal(scales, scales_ref, lengths)

    beta_ref = oracle_backward(plain[1], plain[2], scales_ref, lengths)
    beta = kernel_backward(transmat, emissions, scales, lengths)
    assert_oracle_equal(beta, beta_ref, lengths)

    states_ref, joints_ref = oracle_viterbi(
        *(log_mask_zero(a) for a in plain), lengths
    )
    states, joints = kernel_viterbi(
        log_mask_zero(startprob),
        log_mask_zero(transmat),
        log_mask_zero(emissions),
        lengths,
    )
    assert same_bits(states, states_ref)
    assert same_bits(joints, joints_ref)


class TestMaskedRowSums:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_to_per_row_loop(self, seed):
        """The vectorized sum reproduces the old loop's bits exactly.

        This is the regression test for replacing the per-row Python
        list comprehension in ``BatchGaussianHMM.forward`` — including
        lengths beyond numpy's pairwise-summation threshold (128),
        where a zero-padded full-width masked sum would diverge.
        """
        rng = np.random.default_rng(seed)
        n, t = 7, int(rng.integers(1, 400))
        matrix = rng.normal(0.0, 3.0, size=(n, t))
        lengths = rng.integers(0, t + 1, size=n)
        # Always exercise a full row and (when possible) a long one.
        lengths[0] = t
        old_loop = np.array(
            [float(matrix[row, : lengths[row]].sum()) for row in range(n)]
        )
        vectorized = masked_row_sums(matrix, lengths)
        assert (vectorized == old_loop).all()

    def test_long_rows_past_pairwise_threshold(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(5, 517))
        lengths = np.array([517, 517, 300, 129, 128])
        old_loop = np.array(
            [float(matrix[row, : lengths[row]].sum()) for row in range(5)]
        )
        assert (masked_row_sums(matrix, lengths) == old_loop).all()

    def test_zero_length_rows_sum_to_zero(self):
        matrix = np.ones((3, 4))
        assert (
            masked_row_sums(matrix, np.array([0, 2, 0])) == [0.0, 2.0, 0.0]
        ).all()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            masked_row_sums(np.ones(3), np.array([1, 1, 1]))
        with pytest.raises(ValueError, match="shape"):
            masked_row_sums(np.ones((2, 3)), np.array([1]))
        with pytest.raises(ValueError, match="lengths"):
            masked_row_sums(np.ones((2, 3)), np.array([4, 1]))


class TestNumpyRefMatchesFrozenOracle:
    """The kernels return the parent recursions' bits (to rounding on
    blocked rows)."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        k=st.sampled_from([2, 3, 7]),
        t_max=st.one_of(
            st.integers(1, 24),
            st.integers(
                numpy_ref.ONE_BLOCK_MAX - 2,
                numpy_ref.ONE_BLOCK_MAX + 4 * numpy_ref.CHUNK,
            ),
        ),
        shape=st.sampled_from(["equal", "decreasing", "ragged", "short"]),
        missing=st.sampled_from([0.0, 0.5, 0.9]),
        n_dead=st.integers(0, 4),
        layout=st.sampled_from(["plain", "readonly", "strided", "fortran"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_stacks(
        self, seed, n, k, t_max, shape, missing, n_dead, layout
    ):
        rng = np.random.default_rng(seed)
        lengths = random_lengths(rng, n, t_max, shape)
        startprob, transmat = random_params(rng, n, k)
        emissions = rng.random((n, t_max, k))
        # NaN-heavy rows: a missing observation's emission row is all 1.
        emissions[rng.random((n, t_max)) < missing] = 1.0
        for _ in range(n_dead):
            emissions[rng.integers(0, n), rng.integers(0, t_max)] = 0.0
        if layout != "plain":
            startprob = hostile_view(rng, startprob, layout)
            transmat = hostile_view(rng, transmat, layout)
            emissions = hostile_view(rng, emissions, layout)
            lengths.setflags(write=False)
        assert_matches_oracle(startprob, transmat, emissions, lengths)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_dead_timesteps_at_every_position_of_a_run(self, k):
        """Two runs ([1, 6) over 5 rows, [6, 10) over 3); dead steps at
        t = 0, at the start / middle / end of each run, and twice in two
        rows of the same step — each placement alone and all together."""
        rng = np.random.default_rng(k)
        lengths = np.array([10, 10, 10, 6, 6], dtype=np.int64)
        startprob, transmat = random_params(rng, 5, k)
        base = rng.random((5, 10, k))
        placements = [
            [(0, 0)],
            [(1, 1)],  # start of the first run
            [(4, 3)],  # middle
            [(3, 5)],  # end, in a row that ends there
            [(2, 6)],  # start of the second run
            [(0, 9)],  # end of the second run
            [(0, 4), (4, 4)],  # two rows, same step
            [(1, 2), (1, 3), (1, 4)],  # one row, consecutive steps
        ]
        placements.append([cell for cells in placements for cell in cells])
        for cells in placements:
            emissions = base.copy()
            for row, t in cells:
                emissions[row, t] = 0.0
            assert_matches_oracle(startprob, transmat, emissions, lengths)
            alpha, scales = kernel_forward(
                startprob, transmat, emissions, lengths
            )
            for row, t in cells:
                assert scales[row, t] == PROB_FLOOR
                assert (alpha[row, t] == 1.0 / k).all()
            assert np.isfinite(alpha).all()

    def test_single_state_and_single_step(self):
        rng = np.random.default_rng(0)
        for n, t_max, k in [(3, 6, 1), (4, 1, 2), (1, 1, 1), (3, 70, 1)]:
            startprob, transmat = random_params(rng, n, k)
            emissions = rng.random((n, t_max, k))
            lengths = np.full(n, t_max, dtype=np.int64)
            assert_matches_oracle(startprob, transmat, emissions, lengths)

    @pytest.mark.parametrize("stack_shape", [(6, 9, 2), (1, 9, 2)])
    def test_arguments_are_never_written(self, stack_shape):
        """Worker inputs are read-only shm views: every op must work on
        them and leave them bit-for-bit as it found them."""
        rng = np.random.default_rng(5)
        n, t_max, k = stack_shape
        lengths = random_lengths(rng, n, t_max, "decreasing")
        startprob, transmat = random_params(rng, n, k)
        emissions = rng.random((n, t_max, k))
        emissions[0, 3] = 0.0  # forces the redo path too
        scales = oracle_forward(startprob, transmat, emissions, lengths)[1]
        args = (startprob, transmat, emissions, scales, lengths)
        before = [a.copy() for a in args]
        for a in args:
            a.setflags(write=False)
        alpha, out_scales = numpy_ref.forward(
            startprob, transmat, time_major(emissions), lengths
        )
        beta = numpy_ref.backward(
            transmat, time_major(emissions), time_major(scales), lengths
        )
        numpy_ref.viterbi(
            log_mask_zero(startprob),
            log_mask_zero(transmat),
            time_major(log_mask_zero(emissions)),
            lengths,
        )
        for a, b in zip(args, before):
            assert a.tobytes() == b.tobytes()
        # ... and what comes back is the caller's to write.
        for out in (alpha, out_scales, beta):
            assert out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in args)

    def test_discover_matches_the_oracle_path(self, monkeypatch):
        """End to end: ``SSTD.discover`` through the production kernels
        and through the frozen oracle decode the same truth values, with
        confidences within 1e-12 (the 90-step grid runs blocked)."""
        spec = ScenarioSpec(
            name="kernel-oracle",
            duration=5400.0,
            n_reports=900,
            n_claims=9,
            claim_texts=("the bridge is closed",),
            topic="test",
            mean_truth_flips=2.0,
            population=PopulationConfig(n_sources=80),
        )
        trace = generate_trace(
            spec, seed=23, config=GeneratorConfig(with_text=False)
        )

        def discover():
            estimates = SSTD().discover(list(trace.reports))
            assert any(0.0 < e.confidence < 1.0 for e in estimates)
            return estimates

        production = discover()
        oracle_calls = []

        # The oracle behind the kernels' time-major signatures; it
        # allocates its own outputs, so ``out`` buffers go unused.
        def spied_oracle_forward(
            startprob, transmat, emissions, lengths, out=None
        ):
            oracle_calls.append(1)
            alpha, scales = oracle_forward(
                startprob, transmat, rows_first(emissions), lengths
            )
            return time_major(alpha), time_major(scales)

        def oracle_backward_tm(
            transmat, emissions, scales, lengths, out=None
        ):
            return time_major(
                oracle_backward(
                    transmat,
                    rows_first(emissions),
                    np.ascontiguousarray(scales.T),
                    lengths,
                )
            )

        def oracle_viterbi_tm(log_start, log_trans, log_emissions, lengths):
            states, log_joints = oracle_viterbi(
                log_start, log_trans, rows_first(log_emissions), lengths
            )
            return time_major(states), log_joints

        def oracle_forward_backward(startprob, transmat, emissions, layout, out):
            alpha, scales = spied_oracle_forward(
                startprob, transmat, emissions, layout.lengths
            )
            beta = oracle_backward_tm(
                transmat, emissions, scales, layout.lengths
            )
            for buffer, value in zip(out, (alpha, scales, beta)):
                buffer[...] = value

        monkeypatch.setattr(numpy_ref, "forward", spied_oracle_forward)
        monkeypatch.setattr(numpy_ref, "backward", oracle_backward_tm)
        monkeypatch.setattr(
            numpy_ref, "forward_backward", oracle_forward_backward
        )
        monkeypatch.setattr(numpy_ref, "viterbi", oracle_viterbi_tm)
        oracle = discover()
        assert oracle_calls  # the model really went through the swap
        assert [(e.claim_id, e.timestamp, e.value) for e in oracle] == [
            (e.claim_id, e.timestamp, e.value) for e in production
        ]
        np.testing.assert_allclose(
            [e.confidence for e in oracle],
            [e.confidence for e in production],
            rtol=0.0,
            atol=1e-12,
        )
        grid = {e.timestamp for e in production}
        assert len(grid) > numpy_ref.ONE_BLOCK_MAX + 1  # the blocked path


#: Row lengths around the places the blocked layout changes: one block
#: and its edge, the one-block threshold, and block multiples past it.
EDGE_LENGTHS = sorted(
    {1, 2, numpy_ref.CHUNK, numpy_ref.CHUNK + 1, numpy_ref.CHUNK + 2}
    | {numpy_ref.ONE_BLOCK_MAX + d for d in (0, 1, 2, 3)}
    | {m * numpy_ref.CHUNK + d for m in (5, 6, 7) for d in (0, 1, 2)}
)


class TestBlockedTime:
    @given(
        seed=st.integers(0, 10_000),
        length=st.sampled_from(EDGE_LENGTHS),
        longer_by=st.integers(0, 3 * numpy_ref.CHUNK),
        others=st.lists(st.floats(0.0, 1.0), max_size=6),
        k=st.sampled_from([1, 2, 3]),
        n_dead=st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_row_has_the_same_bits_alone_and_in_any_stack(
        self, seed, length, longer_by, others, k, n_dead
    ):
        """Forward and backward blocks are anchored per row, so a row's
        ``alpha`` / ``scales`` / ``beta`` do not depend on the rows next
        to it nor on how many blocks longer the stack is."""
        rng = np.random.default_rng(seed)
        t_max = length + longer_by
        lengths = [length, t_max] + [max(1, round(f * t_max)) for f in others]
        lengths = np.array(sorted(lengths, reverse=True), dtype=np.int64)
        row = int(np.flatnonzero(lengths == length)[-1])
        n = len(lengths)
        startprob, transmat = random_params(rng, n, k)
        emissions = rng.random((n, t_max, k))
        emissions[rng.random((n, t_max)) < 0.3] = 1.0
        for _ in range(n_dead):
            emissions[row, rng.integers(0, length)] = 0.0

        alpha, scales = kernel_forward(startprob, transmat, emissions, lengths)
        beta = kernel_backward(transmat, emissions, scales, lengths)
        own = slice(row, row + 1)
        alone_lengths = np.array([length], dtype=np.int64)
        alone_alpha, alone_scales = kernel_forward(
            startprob[own], transmat[own], emissions[own, :length], alone_lengths
        )
        alone_beta = kernel_backward(
            transmat[own], emissions[own, :length], alone_scales, alone_lengths
        )
        assert alpha[row, :length].tobytes() == alone_alpha[0].tobytes()
        assert scales[row, :length].tobytes() == alone_scales[0].tobytes()
        assert beta[row, :length].tobytes() == alone_beta[0].tobytes()
        assert (alpha[row, length:] == 1.0 / k).all()
        assert (scales[row, length:] == 1.0).all()
        assert (beta[row, length:] == 1.0).all()

    @pytest.mark.parametrize(
        "cells",
        [
            [(0, 3)],  # inside the first block
            [(1, numpy_ref.CHUNK)],  # on a block boundary
            [(2, numpy_ref.CHUNK + 1)],  # first step after it
            [(0, 4 * numpy_ref.CHUNK + 3)],  # inside a middle block
            [(3, 5 * numpy_ref.CHUNK - 1), (3, 5 * numpy_ref.CHUNK + 2)],
        ],
        ids=["first-block", "boundary", "after-boundary", "middle", "two-blocks"],
    )
    def test_dead_timesteps_in_a_blocked_stack(self, cells):
        """A row with a dead step is redone by the sequential recursion:
        its forward is the oracle's bits (uniform ``alpha``,
        ``PROB_FLOOR`` scale), its ``beta`` is exactly zero before the
        step, and the other rows keep their blocked values."""
        rng = np.random.default_rng(len(cells))
        lengths = np.array([80, 80, 70, 50, 20], dtype=np.int64)
        startprob, transmat = random_params(rng, 5, 2)
        clean = rng.random((5, 80, 2))
        emissions = clean.copy()
        for row, t in cells:
            emissions[row, t] = 0.0
        assert_matches_oracle(startprob, transmat, emissions, lengths)

        alpha, scales = kernel_forward(startprob, transmat, emissions, lengths)
        beta = kernel_backward(transmat, emissions, scales, lengths)
        alpha_ref, scales_ref = oracle_forward(
            startprob, transmat, emissions, lengths
        )
        dead_rows = sorted({row for row, _ in cells})
        assert alpha[dead_rows].tobytes() == alpha_ref[dead_rows].tobytes()
        assert scales[dead_rows].tobytes() == scales_ref[dead_rows].tobytes()
        for row, t in cells:
            assert scales[row, t] == PROB_FLOOR
            assert (alpha[row, t] == 0.5).all()
        for row in dead_rows:
            last = max(t for r, t in cells if r == row)
            assert (beta[row, :last] == 0.0).all()
            assert (beta[row, last:lengths[row]] > 0.0).all()
        assert np.isfinite(alpha).all() and np.isfinite(beta).all()
        clean_alpha, clean_scales = kernel_forward(
            startprob, transmat, clean, lengths
        )
        live = [row for row in range(5) if row not in dead_rows]
        assert alpha[live].tobytes() == clean_alpha[live].tobytes()
        assert scales[live].tobytes() == clean_scales[live].tobytes()


CHUNK = numpy_ref.CHUNK


def random_stack(seed, lengths, k=2):
    """Parameters and ``(N, T, K)`` emissions for rows of ``lengths``,
    30 % of the steps missing (an all-1 emission row)."""
    rng = np.random.default_rng(seed)
    lengths = np.asarray(lengths, dtype=np.int64)
    startprob, transmat = random_params(rng, len(lengths), k)
    emissions = rng.random((len(lengths), int(lengths[0]), k))
    emissions[rng.random(emissions.shape[:2]) < 0.3] = 1.0
    return startprob, transmat, emissions, lengths


class TestBackwardAnchoring:
    """Backward blocks are anchored at ``t = 0``, as forward blocks are:
    a row's backward starts from its last step, offset ``j`` of its end
    block ``q``, whatever the rows next to it."""

    @staticmethod
    def check(startprob, transmat, emissions, lengths):
        assert_matches_oracle(startprob, transmat, emissions, lengths)
        _, scales = kernel_forward(startprob, transmat, emissions, lengths)
        beta = kernel_backward(transmat, emissions, scales, lengths)
        sequential = oracle_backward(transmat, emissions, scales, lengths)
        for row, length in enumerate(lengths.tolist()):
            if length <= numpy_ref.ONE_BLOCK_MAX + 1:
                start = 0
            else:
                start = (length - 1) // CHUNK * CHUNK
            own = slice(start, length)
            assert beta[row, own].tobytes() == sequential[row, own].tobytes()
            assert (beta[row, length - 1] == 1.0).all()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_ending_at_every_offset(self, k):
        base = numpy_ref.ONE_BLOCK_MAX + 2 * CHUNK + 1  # last step 6 * CHUNK
        lengths = [base + j for j in reversed(range(CHUNK))]
        assert {(n - 1) % CHUNK for n in lengths} == set(range(CHUNK))
        self.check(*random_stack(k, lengths, k))

    @pytest.mark.parametrize(
        "lengths",
        [[6 * CHUNK + 1, 5 * CHUNK + 4], [6 * CHUNK + 3, 6 * CHUNK + 1]],
        ids=["longest", "shorter"],
    )
    def test_a_row_ending_on_a_block_boundary(self, lengths):
        """``j = 0``: the row starts from 1 at the boundary; as the
        longest row its end block is one past the stack's last block."""
        self.check(*random_stack(3, lengths))

    def test_longest_row_ending_mid_block(self):
        lengths = [7 * CHUNK + 5, 7 * CHUNK + 2, 6 * CHUNK + 7, 5 * CHUNK]
        self.check(*random_stack(4, lengths))

    def test_short_and_blocked_passes_in_one_stack(self):
        one_block = numpy_ref.ONE_BLOCK_MAX + 1
        lengths = [10 * CHUNK + 3, one_block + 1, one_block, 20, 2, 1]
        self.check(*random_stack(5, lengths))

    def test_rows_ending_in_block_zero(self):
        """``q = 0``: no pass of a row's own length puts its end in
        block 0 (short rows run as one block), so this drives the blocked
        machinery over a hand-built pass holding short rows."""
        startprob, transmat, emissions, lengths = random_stack(
            6, [60, 9, 5, 2, 1]
        )
        plain = [np.array(a, order="C") for a in (startprob, transmat, emissions)]
        _, scales_ref = oracle_forward(*plain, lengths)
        sequential = oracle_backward(plain[1], plain[2], scales_ref, lengths)
        steps = numpy_ref.work_steps(int(lengths[0]))
        blocks = numpy_ref._blocks(int(lengths[0]), CHUNK)
        work = np.ones((steps, 2, len(lengths)))
        work[: emissions.shape[1]] = time_major(emissions)
        scales = np.ones((steps, len(lengths)))
        scales[: emissions.shape[1]] = time_major(scales_ref)
        ends = numpy_ref._Ends(lengths, CHUNK)
        transfer = numpy_ref._forward_transfer(
            work, numpy_ref._rows_last(transmat), blocks, ends
        )
        beta = np.empty((steps, 2, len(lengths)))
        numpy_ref._backward_pass(
            transmat, work, scales, beta, int(lengths[0]), CHUNK, ends, transfer
        )
        beta = rows_first(beta)
        for row, length in enumerate(lengths.tolist()):
            start = (length - 1) // CHUNK * CHUNK
            assert beta[row, start:length].tobytes() == (
                sequential[row, start:length].tobytes()
            )
            np.testing.assert_allclose(
                beta[row, :length], sequential[row, :length], rtol=1e-13, atol=0
            )

    @pytest.mark.parametrize("t", [3, CHUNK, 4 * CHUNK + 5, 6 * CHUNK + 1])
    def test_a_dead_step_inside_a_blocked_row(self, t):
        """The row with the dead step is redone sequentially in both
        passes: the oracle's bits, ``beta`` exactly zero before the step."""
        startprob, transmat, emissions, lengths = random_stack(
            7, [7 * CHUNK + 3, 7 * CHUNK + 3, 6 * CHUNK + 6, 20]
        )
        emissions[1, t] = 0.0
        self.check(startprob, transmat, emissions, lengths)
        alpha, scales = kernel_forward(startprob, transmat, emissions, lengths)
        beta = kernel_backward(transmat, emissions, scales, lengths)
        alpha_ref, scales_ref = oracle_forward(
            startprob, transmat, emissions, lengths
        )
        beta_ref = oracle_backward(transmat, emissions, scales_ref, lengths)
        assert scales[1, t] == PROB_FLOOR
        assert alpha[1].tobytes() == alpha_ref[1].tobytes()
        assert beta[1].tobytes() == beta_ref[1].tobytes()
        assert (beta[1, :t] == 0.0).all() and (beta[1, t:] > 0.0).all()


class TestOneSetOfProducts:
    """Fit's E-step shares each blocked pass's products between its
    forward and backward, and gets the public passes' bits."""

    @staticmethod
    def estep(seed, lengths, dead=()):
        rng = np.random.default_rng(seed)
        lengths = np.asarray(lengths, dtype=np.int64)
        n, k = len(lengths), 2
        observations = rng.normal(0.0, 2.0, size=(n, int(lengths[0])))
        observations[rng.random(observations.shape) < 0.3] = np.nan
        observations[np.arange(lengths[0]) >= lengths[:, None]] = np.nan
        for row, t in dead:  # both states' densities underflow to 0
            observations[row, t] = 1e6
        startprob, transmat = random_params(rng, n, k)
        means = np.sort(rng.normal(0.0, 1.0, size=(n, k)), axis=1)
        variances = rng.random((n, k)) + 0.5
        estep = _EStep(observations, lengths, k)
        estep.run(startprob, transmat, means, variances)
        return estep, startprob, transmat

    @pytest.mark.parametrize(
        "dead", [(), ((0, 50),), ((2, 5),)], ids=["clean", "blocked", "short"]
    )
    def test_estep_is_the_public_forward_and_backward(self, dead):
        lengths = [12 * CHUNK + 5, 9 * CHUNK, 25, 3]
        estep, startprob, transmat = self.estep(8, lengths, dead)
        for row, t in dead:
            assert estep.scales[t, row] == PROB_FLOOR
        alpha, scales = numpy_ref.forward(
            startprob, transmat, estep.emissions, estep.lengths
        )
        beta = numpy_ref.backward(
            transmat, estep.emissions, scales, estep.lengths
        )
        assert estep.alpha.tobytes() == alpha.tobytes()
        assert estep.scales.tobytes() == scales.tobytes()
        assert estep.beta.tobytes() == beta.tobytes()

    @pytest.mark.parametrize(
        "lengths, blocked",
        [([12 * CHUNK + 5, 9 * CHUNK, 25, 3], 2), ([30, 8], 0), ([50], 1)],
    )
    def test_one_estep_builds_the_products_once(
        self, monkeypatch, lengths, blocked
    ):
        calls = []
        transfer = numpy_ref._forward_transfer

        def counted(work, *args):
            calls.append(work.shape[-1])
            return transfer(work, *args)

        monkeypatch.setattr(numpy_ref, "_forward_transfer", counted)
        self.estep(9, lengths)
        assert calls == ([blocked] if blocked else [])


GROUP = numpy_ref.GROUP
ONE_LEVEL_MAX = numpy_ref.ONE_LEVEL_MAX


def spanning(blocks, back=0):
    """Length of a row that spans ``blocks`` blocks, its last step
    ``back`` steps before the end of its last block."""
    return 1 + blocks * CHUNK - back


def both_passes(startprob, transmat, emissions, lengths):
    alpha, scales = kernel_forward(startprob, transmat, emissions, lengths)
    return alpha, scales, kernel_backward(transmat, emissions, scales, lengths)


def assert_rows_alone_have_their_bits(stack, rows):
    """Each of ``rows`` gets the same ``alpha`` / ``scales`` / ``beta``
    bytes in ``stack`` as alone."""
    startprob, transmat, emissions, lengths = stack
    stacked = both_passes(*stack)
    for row in rows:
        length, own = int(lengths[row]), slice(row, row + 1)
        alone = both_passes(
            startprob[own], transmat[own], emissions[own, :length],
            lengths[own],
        )  # fmt: skip
        for got, want in zip(stacked, alone):
            assert got[row, :length].tobytes() == want[0].tobytes()


class TestTwoLevelCarry:
    """Rows of more than ``ONE_LEVEL_MAX`` blocks carry their block
    boundaries in two levels, over groups of ``GROUP`` blocks anchored
    at ``t = 0``; shorter rows keep the one-level carry."""

    @pytest.mark.parametrize(
        "length",
        [
            spanning(ONE_LEVEL_MAX - 1, 3),
            spanning(ONE_LEVEL_MAX),
            spanning(ONE_LEVEL_MAX + 1, 5),
            1440,
            5000,
        ],
    )
    @pytest.mark.parametrize("riders", ["longer", "shorter"])
    def test_a_row_has_the_same_bits_alone_and_riding_along(
        self, length, riders
    ):
        others = {
            "longer": [length + 2 * GROUP * CHUNK + 3, length + 1, 9],
            "shorter": [length - CHUNK, length // 2, 20, 1],
        }[riders]
        stack = random_stack(length, sorted([length, *others], reverse=True))
        row = stack[-1].tolist().index(length)
        assert_rows_alone_have_their_bits(stack, [row])

    def test_rows_ending_at_every_offset_of_a_group(self):
        """End blocks at every offset of a group, a row ending on a group
        boundary, and a longest row ending in a last partial group: each
        row has its bits alone and the oracle's values."""
        base = (ONE_LEVEL_MAX // GROUP + 1) * GROUP  # a group boundary
        lengths = [spanning(base + GROUP + 3, 2), spanning(base)]
        lengths += [spanning(base + g, g % CHUNK) for g in range(1, GROUP)]
        lengths += [spanning(base - 1), spanning(ONE_LEVEL_MAX)]
        stack = random_stack(11, sorted(lengths, reverse=True))
        lengths = stack[-1]
        assert numpy_ref._Ends(lengths, CHUNK).two_level == len(lengths) - 1
        assert {(n - 1) // CHUNK % GROUP for n in lengths[1:-1]} == set(
            range(GROUP)
        )
        assert_matches_oracle(*stack)
        assert_rows_alone_have_their_bits(stack, range(len(lengths)))

    def test_boundaries_agree_with_the_one_level_carry(self, monkeypatch):
        lengths = [5000, 1441, 1440, spanning(ONE_LEVEL_MAX + 1), 200]
        stack = random_stack(12, lengths)
        ends = numpy_ref._Ends(stack[-1], CHUNK)
        assert (ends.two_level, ends.one_level) == (4, 25)
        two_level = both_passes(*stack)
        monkeypatch.setattr(numpy_ref, "ONE_LEVEL_MAX", 10**9)
        one_level = both_passes(*stack)
        for two, one in zip(two_level, one_level):
            np.testing.assert_allclose(
                two[:, ::CHUNK], one[:, ::CHUNK], rtol=1e-13, atol=0.0
            )
            np.testing.assert_allclose(two, one, rtol=1e-13, atol=0.0)
            assert two[-1].tobytes() == one[-1].tobytes()

    @pytest.mark.parametrize(
        "lengths, two_level",
        [
            ([1441, 1300, 150, 20], 2),
            ([spanning(ONE_LEVEL_MAX), 100], 0),
            ([spanning(ONE_LEVEL_MAX + 1)], 1),
        ],
    )
    def test_one_group_build_per_blocked_pass(
        self, monkeypatch, lengths, two_level
    ):
        """The forward builds its group products once per E-step, from
        the block products, and the backward once, from the same products
        with its factors folded in."""
        calls = []
        build = numpy_ref._group_products

        def counted(products, normalise):
            calls.append((products.shape[-1], normalise))
            return build(products, normalise)

        monkeypatch.setattr(numpy_ref, "_group_products", counted)
        TestOneSetOfProducts.estep(13, lengths)
        per_pass = [(two_level, True), (two_level, False)]
        assert calls == (per_pass if two_level else [])


def test_the_backend_switch_is_gone(monkeypatch):
    with pytest.raises(TypeError):
        SSTDConfig(kernel="numpy")
    with pytest.raises(TypeError):
        BatchGaussianHMM(1, 2, kernel="numpy")
    assert active_kernel_info() == {"backend": "numpy"}

    def fit():
        model = BatchGaussianHMM(1, 2)
        model.fit(np.array([[-1.0, -1.2, -0.9, 1.1, 0.9, 1.0]]), max_iter=5)
        return model.means.tobytes() + model.transmat.tobytes()

    before = fit()
    monkeypatch.setenv("REPRO_KERNEL", "numba")
    assert active_kernel_info() == {"backend": "numpy"}
    assert fit() == before
