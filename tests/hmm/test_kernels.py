"""The HMM kernels: masked row sums and the frozen-oracle bit parity.

``numpy_ref`` is pinned against a *frozen oracle*: the einsum /
``.sum(axis=2)`` / ``take_along_axis`` recursion bodies it had before
the time-major rewrite, kept verbatim below (``oracle_*``).  The
rewrite changed how many interpreter round-trips a timestep costs, not
one bit of any output, and these tests are what says so.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimates_io import estimates_digest
from repro.core.sstd import SSTD, SSTDConfig
from repro.hmm import BatchGaussianHMM
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


def assert_matches_oracle(startprob, transmat, emissions, lengths):
    """numpy_ref forward / backward / viterbi == the frozen oracle.

    The oracle always sees plain C-contiguous copies — the only layout
    production ever gave it (einsum picks its inner loop, hence its
    rounding, from the strides it is handed) — while the kernels under
    test get the arrays as passed, whatever their layout or flags.
    """
    plain = [np.array(a, order="C") for a in (startprob, transmat, emissions)]
    alpha_ref, scales_ref = oracle_forward(*plain, lengths)
    alpha, scales = numpy_ref.forward(startprob, transmat, emissions, lengths)
    assert same_bits(alpha, alpha_ref)
    assert same_bits(scales, scales_ref)

    beta_ref = oracle_backward(plain[1], plain[2], scales_ref, lengths)
    beta = numpy_ref.backward(transmat, emissions, scales, lengths)
    assert same_bits(beta, beta_ref)

    states_ref, joints_ref = oracle_viterbi(
        *(log_mask_zero(a) for a in plain), lengths
    )
    states, joints = numpy_ref.viterbi(
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
    """The time-major rewrite returns the parent recursions' exact bits."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        k=st.sampled_from([2, 3, 7]),
        t_max=st.integers(1, 24),
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
            alpha, scales = numpy_ref.forward(
                startprob, transmat, emissions, lengths
            )
            for row, t in cells:
                assert scales[row, t] == PROB_FLOOR
                assert (alpha[row, t] == 1.0 / k).all()
            assert np.isfinite(alpha).all()

    def test_single_state_and_single_step(self):
        rng = np.random.default_rng(0)
        for n, t_max, k in [(3, 6, 1), (4, 1, 2), (1, 1, 1)]:
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
            startprob, transmat, emissions, lengths
        )
        beta = numpy_ref.backward(transmat, emissions, scales, lengths)
        numpy_ref.viterbi(
            log_mask_zero(startprob),
            log_mask_zero(transmat),
            log_mask_zero(emissions),
            lengths,
        )
        for a, b in zip(args, before):
            assert a.tobytes() == b.tobytes()
        # ... and what comes back is the caller's to write.
        for out in (alpha, out_scales, beta):
            assert out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in args)

    def test_discover_digest_equals_oracle_path(self, monkeypatch):
        """End to end: ``SSTD.discover`` through the production kernels
        and through the frozen oracle give one estimate digest."""
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

        def digest():
            estimates = SSTD().discover(list(trace.reports))
            assert any(0.0 < e.confidence < 1.0 for e in estimates)
            return len(estimates), estimates_digest(estimates)

        production = digest()
        oracle_calls = []

        def spied_oracle_forward(*args):
            oracle_calls.append(1)
            return oracle_forward(*args)

        monkeypatch.setattr(numpy_ref, "forward", spied_oracle_forward)
        monkeypatch.setattr(numpy_ref, "backward", oracle_backward)
        monkeypatch.setattr(numpy_ref, "viterbi", oracle_viterbi)
        assert digest() == production
        assert oracle_calls  # the model really went through the swap


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
