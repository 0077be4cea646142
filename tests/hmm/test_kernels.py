"""Kernel backend layer: selection, bit-parity, masked row sums.

The backends' contract is *bit identity*: for any input stack, the
numba kernels (compiled or interpreted) return exactly the bytes the
numpy reference returns — ``==``, not ``allclose``.  These tests pin
that contract, the selection/fallback logic (``kernel=`` /
``REPRO_KERNEL`` / auto), and the vectorized masked row-sum that
replaced the per-row log-likelihood loop.

The numpy reference itself is pinned against a *frozen oracle*: the
einsum / ``.sum(axis=2)`` / ``take_along_axis`` recursion bodies it had
before the time-major rewrite, kept verbatim below (``oracle_*``).  The
rewrite changed how many interpreter round-trips a timestep costs, not
one bit of any output, and these tests are what says so.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sstd import SSTD, SSTDConfig, batch_fit_decode
from repro.hmm import BatchGaussianHMM, kernels, stack_ragged
from repro.hmm.kernels import (
    KERNEL_NAMES,
    MAX_BITWISE_STATES,
    active_kernel_info,
    available_backends,
    kernel_gauge_value,
    kernel_parity_ok,
    numba_fast,
    numpy_ref,
    resolve_kernel,
)
from repro.hmm.utils import PROB_FLOOR, log_mask_zero, masked_row_sums
from repro.obs import Observability, get_obs, set_obs
from repro.streams.events import PopulationConfig, ScenarioSpec
from repro.streams.generator import GeneratorConfig, generate_trace
from tests.conftest import requires_numba


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


def make_stack(seed=0, n=4, k=2, t_lo=1, t_hi=12, missing=0.0):
    """A ragged emission stack via the real model plumbing (NaN-aware)."""
    rng = np.random.default_rng(seed)
    sequences = []
    for _ in range(n):
        length = int(rng.integers(t_lo, t_hi + 1))
        values = rng.normal(0.0, 1.0, size=length)
        if missing > 0:
            mask = rng.random(length) < missing
            mask[int(rng.integers(0, length))] = False
            values[mask] = np.nan
        sequences.append(values)
    observations, lengths, _ = stack_ragged(sequences)
    model = BatchGaussianHMM(
        n,
        k,
        means=np.linspace(-1.0, 1.0, k),
        variances=np.linspace(0.5, 1.5, k),
        kernel="numpy",
    )
    emissions = model.emission_probabilities(observations)
    return model, emissions, lengths


def assert_ops_parity(model, emissions, lengths):
    """All four ops agree bit for bit between the two backends."""
    alpha_ref, scales_ref = numpy_ref.forward(
        model.startprob, model.transmat, emissions, lengths
    )
    alpha, scales = numba_fast.forward(
        model.startprob, model.transmat, emissions, lengths
    )
    assert (alpha == alpha_ref).all()
    assert (scales == scales_ref).all()

    beta_ref = numpy_ref.backward(
        model.transmat, emissions, scales_ref, lengths
    )
    beta = numba_fast.backward(model.transmat, emissions, scales_ref, lengths)
    assert (beta == beta_ref).all()

    log_start = log_mask_zero(model.startprob)
    log_trans = log_mask_zero(model.transmat)
    log_emissions = log_mask_zero(emissions)
    states_ref, joints_ref = numpy_ref.viterbi(
        log_start, log_trans, log_emissions, lengths
    )
    states, joints = numba_fast.viterbi(
        log_start, log_trans, log_emissions, lengths
    )
    assert (states == states_ref).all()
    assert (joints == joints_ref).all()

    xi_ref = numpy_ref.estep_xi_sum(
        model.transmat, emissions, alpha_ref, beta_ref, lengths
    )
    xi = numba_fast.estep_xi_sum(
        model.transmat, emissions, alpha_ref, beta_ref, lengths
    )
    assert (xi == xi_ref).all()


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


class TestSelection:
    def test_numpy_always_resolves(self):
        assert resolve_kernel("numpy").name == "numpy"

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel("cuda")

    def test_env_var_drives_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        assert resolve_kernel(None).name == "numpy"
        monkeypatch.setenv("REPRO_KERNEL", "cuda")
        with pytest.raises(ValueError, match="kernel must be one of"):
            resolve_kernel(None)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "cuda")  # would raise if read
        assert resolve_kernel("numpy").name == "numpy"

    def test_explicit_numba_raises_without_numba(self, monkeypatch):
        monkeypatch.setattr(numba_fast, "AVAILABLE", False)
        with pytest.raises(RuntimeError, match="not importable"):
            resolve_kernel("numba")

    def test_auto_falls_back_silently_without_numba(self, monkeypatch):
        monkeypatch.setattr(numba_fast, "AVAILABLE", False)
        assert resolve_kernel("auto", n_states=2).name == "numpy"
        assert available_backends() == ("numpy",)

    def test_auto_picks_numba_when_parity_proven(self, monkeypatch):
        # Interpreted fallback loops behave like the compiled kernels,
        # so forcing AVAILABLE exercises the real selection logic
        # (including the parity probe) without numba installed.
        monkeypatch.setattr(numba_fast, "AVAILABLE", True)
        assert resolve_kernel("auto", n_states=2).name == "numba"
        assert available_backends() == ("numpy", "numba")

    def test_auto_refuses_wide_state_counts(self, monkeypatch):
        monkeypatch.setattr(numba_fast, "AVAILABLE", True)
        picked = resolve_kernel("auto", n_states=MAX_BITWISE_STATES)
        assert picked.name == "numpy"

    def test_kernel_parity_ok_and_cached(self):
        assert kernel_parity_ok(2) is True
        assert kernel_parity_ok(3) is True
        assert kernel_parity_ok(2) is True  # cached verdict

    def test_gauge_encoding(self):
        assert kernel_gauge_value("numpy") == 0.0
        assert kernel_gauge_value("numba") == 1.0

    def test_active_kernel_info_shape(self):
        info = active_kernel_info()
        assert set(info) == {"backend", "numba_available", "numba_version"}
        assert info["backend"] in KERNEL_NAMES

    def test_model_exposes_resolved_backend(self):
        model = BatchGaussianHMM(2, 2, kernel="numpy")
        assert model.kernel_name == "numpy"

    def test_sstd_config_validates_kernel(self):
        assert SSTDConfig(kernel="numpy").kernel == "numpy"
        assert SSTDConfig().kernel is None
        with pytest.raises(ValueError, match="kernel"):
            SSTDConfig(kernel="cuda")


class TestOpParity:
    """Backends agree bit for bit — compiled when numba is installed,
    interpreted otherwise (same IEEE-754 operation order either way)."""

    @given(
        seed=st.integers(0, 500),
        n=st.integers(1, 6),
        k=st.sampled_from([2, 3]),
        missing=st.sampled_from([0.0, 0.3, 0.8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_ragged_stacks(self, seed, n, k, missing):
        model, emissions, lengths = make_stack(
            seed=seed, n=n, k=k, missing=missing
        )
        assert_ops_parity(model, emissions, lengths)

    def test_length_one_rows(self):
        model, emissions, lengths = make_stack(seed=1, n=3, t_lo=1, t_hi=1)
        assert (lengths == 1).all()
        assert_ops_parity(model, emissions, lengths)

    def test_constant_sequences(self):
        observations = np.full((3, 6), 0.25)
        lengths = np.array([6, 6, 4])
        model = BatchGaussianHMM(3, 2, kernel="numpy")
        emissions = model.emission_probabilities(observations)
        assert_ops_parity(model, emissions, lengths)

    def test_nan_heavy_rows(self):
        observations = np.full((2, 8), np.nan)
        observations[0, 3] = 1.0
        observations[1, 0] = -2.0
        lengths = np.array([8, 8])
        model = BatchGaussianHMM(2, 2, kernel="numpy")
        emissions = model.emission_probabilities(observations)
        assert_ops_parity(model, emissions, lengths)

    def test_dead_timestep_prob_floor_rescue(self):
        """An all-zero emission step takes the PROB_FLOOR path in both
        backends — the rescue must produce the same bits too."""
        model, emissions, lengths = make_stack(seed=7, n=3, t_lo=5, t_hi=8)
        emissions[0, 2, :] = 0.0  # dead mid-sequence step
        emissions[1, 0, :] = 0.0  # dead first step
        assert_ops_parity(model, emissions, lengths)

    def test_k3_probe_stack(self):
        model, emissions, lengths = make_stack(seed=11, n=5, k=3, missing=0.4)
        assert_ops_parity(model, emissions, lengths)


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
            estimates = SSTD(SSTDConfig(kernel="numpy")).discover(
                list(trace.reports)
            )
            assert any(0.0 < e.confidence < 1.0 for e in estimates)
            rows = [
                (e.claim_id, e.timestamp, int(e.value), e.confidence.hex())
                for e in estimates
            ]
            return len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()

        production = digest()
        oracle_ops = dataclasses.replace(
            resolve_kernel("numpy"),
            forward=oracle_forward,
            backward=oracle_backward,
            viterbi=oracle_viterbi,
        )
        monkeypatch.setattr(kernels, "_NUMPY_OPS", oracle_ops)
        assert resolve_kernel("numpy").forward is oracle_forward
        assert digest() == production


class TestEndToEndParity:
    """Whole-model runs through each backend produce identical bits."""

    def _sequences(self, seed=0, n=4):
        rng = np.random.default_rng(seed)
        sequences = []
        for _ in range(n):
            length = int(rng.integers(6, 14))
            flip = length // 2
            sequences.append(
                np.concatenate(
                    [
                        rng.normal(-1.0, 0.3, size=flip),
                        rng.normal(1.0, 0.3, size=length - flip),
                    ]
                )
            )
        return sequences

    def _run(self, kernel):
        observations, lengths, _ = stack_ragged(self._sequences())
        model = BatchGaussianHMM(len(lengths), 2, kernel=kernel)
        results = model.fit(observations, lengths, max_iter=10, seed=0)
        emissions = model.emission_probabilities(observations)
        states, joints = model.viterbi(emissions, lengths)
        posteriors = model.state_posteriors(
            observations, lengths, emissions=emissions
        )
        return model, results, states, joints, posteriors

    def assert_identical_runs(self):
        ref = self._run("numpy")
        other = self._run("numba")
        model_ref, results_ref, states_ref, joints_ref, post_ref = ref
        model, results, states, joints, post = other
        assert model.kernel_name == "numba"
        assert (model.startprob == model_ref.startprob).all()
        assert (model.transmat == model_ref.transmat).all()
        assert (model.means == model_ref.means).all()
        assert (model.variances == model_ref.variances).all()
        for got, want in zip(results, results_ref):
            assert got.log_likelihoods == want.log_likelihoods
            assert got.iterations == want.iterations
            assert got.converged == want.converged
        assert (states == states_ref).all()
        assert (joints == joints_ref).all()
        assert (post == post_ref).all()

    def test_fit_decode_posteriors_interpreted(self, monkeypatch):
        monkeypatch.setattr(numba_fast, "AVAILABLE", True)
        self.assert_identical_runs()

    @requires_numba
    def test_fit_decode_posteriors_compiled(self):
        self.assert_identical_runs()

    @requires_numba
    def test_auto_selects_compiled_kernels(self):
        assert resolve_kernel("auto", n_states=2).name == "numba"


class TestObservability:
    def test_gauge_and_span_record_backend(self):
        rng = np.random.default_rng(0)
        times = np.arange(10.0)
        acs = np.concatenate([rng.normal(-1, 0.2, 5), rng.normal(1, 0.2, 5)])
        previous = get_obs()
        obs = Observability()
        set_obs(obs)
        try:
            results = batch_fit_decode(
                [("c1", times, acs)], SSTDConfig(kernel="numpy")
            )
        finally:
            set_obs(previous)
        assert results[0].used_hmm
        assert obs.metrics.gauge("hmm.kernel") == kernel_gauge_value("numpy")
        (span,) = [
            e for e in obs.tracer.events() if e.name == "sstd.batch_fit"
        ]
        assert span.attr_dict()["kernel"] == "numpy"
