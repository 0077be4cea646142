"""Row-loop-free Baum-Welch against the frozen parent ``fit``.

``BatchGaussianHMM.fit`` used to re-enter O(N) Python every iteration: a
throw-away sub-model, ``_update_emissions_row`` once per active row, a
per-row loop inside ``numpy_ref.estep_xi_sum`` and a per-row history
loop.  All of that is now a handful of reductions along the time axis
of the active stack with exact-zero weights on missing and padded cells.
The rewrite changed how much interpreter an iteration costs, not one bit
of any parameter or log-likelihood: the per-row-loop bodies are kept
below (``FrozenParentHMM`` / ``frozen_estep_xi_sum`` — do not
"modernise" them) and every fit must come out byte-equal.

Re-pinned once, on purpose: the oracle now carries the ``1 / c_{t+1}``
factor of the xi statistic and the ``transmat_prior`` pseudo-counts,
because production's old statistic was wrong (it was not the EM
maximiser; ``test_em_monotone.py`` and the enumeration oracle of
``test_kernel_oracle.py`` hold the new one to the definition).  Only
those two terms were added — the oracle keeps its own per-row loops, so
it is still a second implementation of the same arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devtools import contracts
from repro.hmm import BatchGaussianHMM, stack_ragged
from repro.hmm.batch import MIN_VARIANCE, FitResult
from repro.hmm.kernels import numpy_ref
from repro.hmm.utils import PROB_FLOOR, normalize_rows
from tests.hmm.test_batch import make_sequences
from tests.hmm.test_kernels import time_major


# ---------------------------------------------------------------------------
# Frozen oracle: the per-row-loop Baum-Welch.
# ---------------------------------------------------------------------------
def frozen_estep_xi_sum(transmat, emissions, alpha, beta, scales, lengths):
    n_seqs, t_max, k = emissions.shape
    if t_max > 1:
        xi_num = (
            alpha[:, :-1, :, None]
            * transmat[:, None, :, :]
            * (
                (emissions[:, 1:, :] * beta[:, 1:, :])
                / scales[:, 1:, None]
            )[:, :, None, :]
        )
    xi_sum = np.zeros((n_seqs, k, k))
    for idx in range(n_seqs):
        steps = int(lengths[idx]) - 1
        if steps > 0:
            xi_sum[idx] = xi_num[idx, :steps].sum(axis=0)
    return xi_sum


class FrozenParentHMM(BatchGaussianHMM):
    """``BatchGaussianHMM`` with the parent commit's training loop."""

    def _update_emissions_row(self, row, values, gamma):
        present = ~np.isnan(values)
        gamma = gamma[present]
        values = values[present]
        if values.size == 0:
            return
        weights = gamma.sum(axis=0)
        safe = np.where(weights > 0, weights, 1.0)
        means = (gamma * values[:, None]).sum(axis=0) / safe
        diff = values[:, None] - means[None, :]
        variances = (gamma * diff**2).sum(axis=0) / safe
        keep = weights <= 0
        means[keep] = self.means[row][keep]
        variances[keep] = self.variances[row][keep]
        self.means[row] = means
        self.variances[row] = np.maximum(variances, MIN_VARIANCE)

    def fit(
        self, observations, lengths=None, max_iter=50, tol=1e-4, seed=None,
        init=True, transmat_prior=None,
    ):  # fmt: skip
        observations, lengths = self._validate(observations, lengths)
        if transmat_prior is None:
            transmat_prior = np.zeros((self.n_states, self.n_states))
        prior = np.broadcast_to(
            transmat_prior, (self.n_seqs, self.n_states, self.n_states)
        )
        if init:
            self._init_emissions(observations, lengths, seed)

        histories = [[] for _ in range(self.n_seqs)]
        converged = np.zeros(self.n_seqs, dtype=bool)
        active = np.arange(self.n_seqs)
        k = self.n_states
        for _ in range(max_iter):
            self._check_contracts("Baum-Welch E-step")
            obs_a = observations[active]
            len_a = lengths[active]
            t_max = int(len_a[0])
            obs_a = obs_a[:, :t_max]
            sub = BatchGaussianHMM(
                active.size,
                k,
                startprob=self.startprob[active],
                transmat=self.transmat[active],
                means=self.means[active],
                variances=self.variances[active],
            )
            emissions = sub.emission_probabilities(obs_a)
            alpha, scales, log_likelihoods = sub.forward(emissions, len_a)
            beta = sub.backward(emissions, scales, len_a)
            gamma = normalize_rows(alpha * beta)
            xi_sum = frozen_estep_xi_sum(
                sub.transmat, emissions, alpha, beta, scales, len_a
            )

            self.startprob[active] = normalize_rows(
                gamma[:, 0, :] + PROB_FLOOR
            )
            for idx, row in enumerate(active):
                self.transmat[row] = normalize_rows(
                    xi_sum[idx] + prior[row] + PROB_FLOOR
                )
            for idx, row in enumerate(active):
                stop = int(len_a[idx])
                self._update_emissions_row(
                    row, obs_a[idx, :stop], gamma[idx, :stop]
                )

            for idx, row in enumerate(active):
                history = histories[row]
                history.append(float(log_likelihoods[idx]))
                if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
                    converged[row] = True
            active = active[~converged[active]]
            if active.size == 0:
                break
        self._check_contracts("Baum-Welch M-step")
        return [
            FitResult(
                log_likelihoods=tuple(histories[row]),
                converged=bool(converged[row]),
                iterations=len(histories[row]),
            )
            for row in range(self.n_seqs)
        ]


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def assert_fit_parity(observations, lengths, k=2, **fit_args):
    """Production ``fit`` == frozen parent ``fit``, byte for byte.

    ``fit_args`` may carry initial ``startprob`` / ``transmat`` /
    ``means`` / ``variances`` besides ``fit``'s own arguments.  Returns
    the production results for case-specific assertions.
    """
    params = {
        name: fit_args.pop(name)
        for name in ("startprob", "transmat", "means", "variances")
        if name in fit_args
    }
    n = len(observations)
    model = BatchGaussianHMM(n, k, **params)
    parent = FrozenParentHMM(n, k, **params)
    results = model.fit(observations, lengths, **fit_args)
    expected = parent.fit(observations, lengths, **fit_args)
    for name in ("startprob", "transmat", "means", "variances"):
        got, want = getattr(model, name), getattr(parent, name)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert results == expected
    for result in results:
        assert type(result.converged) is bool
        assert type(result.iterations) is int
        assert all(type(ll) is float for ll in result.log_likelihoods)
    return results


def hostile_view(rng, array, how):
    """The same values (NaN included) behind a layout a worker may hand
    over; after ``tests.hmm.test_kernels.hostile_view``."""
    if how == "readonly":
        out = array.copy()
    elif how == "strided":  # every other element of a wider buffer
        wide = rng.random(array.shape[:-1] + (2 * array.shape[-1],))
        wide[..., ::2] = array
        out = wide[..., ::2]
    else:  # "fortran": column-major memory behind the same shape
        out = np.asfortranarray(array)
    out.setflags(write=False)
    assert np.array_equal(out, array, equal_nan=True)
    return out


def random_stack(seed, n, t_hi, missing=0.0):
    """Ragged rows of noise around a per-row number of levels."""
    rng = np.random.default_rng(seed)
    sequences = []
    for _ in range(n):
        length = int(rng.integers(1, t_hi + 1))
        levels = rng.normal(0.0, 1.0, size=int(rng.integers(1, 4)))
        values = rng.choice(levels, size=length) + rng.normal(
            0.0, 0.3, size=length
        )
        if missing > 0:
            mask = rng.random(length) < missing
            mask[int(rng.integers(0, length))] = False
            values[mask] = np.nan
        sequences.append(values)
    observations, lengths, _ = stack_ragged(sequences)
    return observations, lengths


class TestFitEqualsFrozenParent:
    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("missing", [0.0, 0.4])
    def test_ragged_random_stacks(self, k, missing):
        for seed in range(4):
            observations, lengths = random_stack(
                seed, n=1 + 3 * seed, t_hi=30, missing=missing
            )
            assert_fit_parity(
                observations, lengths, k=k, max_iter=12, seed=seed
            )

    def test_nan_heavy_rows(self):
        observations, lengths = random_stack(5, n=9, t_hi=40, missing=0.85)
        assert_fit_parity(observations, lengths, max_iter=10, seed=1)

    def test_nan_only_tails_and_heads(self):
        rng = np.random.default_rng(6)
        observations = rng.normal(0.0, 1.0, size=(4, 20))
        observations[0, 12:] = np.nan  # tail of a full-length row
        observations[1, :7] = np.nan  # head
        observations[2, 9:] = np.nan  # tail running into the padding
        observations[3, 1:] = np.nan  # one present cell
        lengths = np.array([20, 20, 15, 11])
        assert_fit_parity(observations, lengths, max_iter=10, seed=2)

    def test_padding_content_is_never_read(self):
        # ``fit`` documents NaN padding but only ``lengths`` delimits a
        # row: finite garbage past a row's end must change nothing.
        observations, lengths = random_stack(7, n=5, t_hi=16, missing=0.2)
        padded = np.where(
            np.arange(observations.shape[1]) >= lengths[:, None],
            123.0,
            observations,
        )
        garbage = assert_fit_parity(padded, lengths, max_iter=8, seed=3)
        clean = assert_fit_parity(observations, lengths, max_iter=8, seed=3)
        assert garbage == clean

    def test_length_one_rows(self):
        observations = np.array([[0.3], [-0.7], [1.5]])
        assert_fit_parity(observations, np.array([1, 1, 1]), seed=4)
        mixed, lengths, _ = stack_ragged(
            [np.array([0.4]), np.arange(6.0), np.array([-1.0])]
        )
        assert_fit_parity(mixed, lengths, seed=4)

    def test_constant_rows_take_the_jitter_init(self):
        observations, lengths, _ = stack_ragged(
            [np.full(8, 2.5), np.full(5, -1.0), np.full(12, 0.0)]
        )
        assert_fit_parity(observations, lengths, seed=7)

    def test_rows_freeze_at_different_iterations(self):
        sequences = make_sequences(seed=17, n=10, missing=0.3) + [
            np.full(10, 1.0),
            np.full(4, -2.0),
        ]
        observations, lengths, _ = stack_ragged(sequences)
        results = assert_fit_parity(
            observations, lengths, max_iter=10, tol=1e-4, seed=17
        )
        counts = {result.iterations for result in results}
        assert len(counts) >= 4  # the active set shrank more than once
        assert any(result.converged for result in results)
        assert not all(result.converged for result in results)

    def test_state_without_weight_keeps_its_parameters(self):
        # State 1 sits 1e6 away with a tiny variance: its density is
        # exactly 0 on every present cell, so it gets posterior mass only
        # on missing cells — which carry no weight.  ``keep`` branch.
        rng = np.random.default_rng(8)
        observations = rng.normal(0.0, 1.0, size=(3, 14))
        observations[1, [2, 3, 9]] = np.nan
        observations[2, 10:] = np.nan
        lengths = np.array([14, 14, 12])
        means = np.array([0.0, 1e6])
        variances = np.array([1.0, 2e-3])
        assert_fit_parity(
            observations, lengths,
            means=means, variances=variances, max_iter=5, init=False,
        )  # fmt: skip
        model = BatchGaussianHMM(3, 2, means=means, variances=variances)
        model.fit(observations, lengths, max_iter=5, init=False)
        assert (model.means[:, 1] == 1e6).all()
        assert (model.variances[:, 1] == 2e-3).all()

    def test_all_missing_row_without_init(self):
        rng = np.random.default_rng(9)
        observations = rng.normal(0.0, 1.0, size=(3, 9))
        observations[1] = np.nan
        lengths = np.array([9, 9, 6])
        assert_fit_parity(
            observations, lengths,
            means=np.array([-0.5, 0.5]), max_iter=6, init=False,
        )  # fmt: skip

    def test_warm_start_from_per_row_parameters(self):
        rng = np.random.default_rng(10)
        observations, lengths = random_stack(10, n=6, t_hi=25, missing=0.2)
        n, k = 6, 3
        startprob = rng.random((n, k)) + 0.05
        startprob /= startprob.sum(axis=1, keepdims=True)
        transmat = rng.random((n, k, k)) + 0.05
        transmat /= transmat.sum(axis=2, keepdims=True)
        assert_fit_parity(
            observations, lengths, k=k,
            startprob=startprob, transmat=transmat,
            means=rng.normal(0.0, 1.0, size=(n, k)),
            variances=rng.uniform(0.2, 1.5, size=(n, k)),
            max_iter=9, init=False,
        )  # fmt: skip

    def test_transition_prior_shared_and_per_row(self):
        rng = np.random.default_rng(13)
        observations, lengths = random_stack(13, n=6, t_hi=30, missing=0.3)
        sticky = 20.0 * np.array([[0.98, 0.02], [0.02, 0.98]])
        shared = assert_fit_parity(
            observations, lengths,
            transmat=sticky / 20.0, transmat_prior=sticky,
            max_iter=14, tol=1e-3, seed=8,
        )  # fmt: skip
        plain = assert_fit_parity(
            observations, lengths,
            transmat=sticky / 20.0, max_iter=14, tol=1e-3, seed=8,
        )  # fmt: skip
        assert shared != plain
        assert_fit_parity(
            observations, lengths, k=3,
            transmat_prior=rng.uniform(0.0, 5.0, size=(6, 3, 3)),
            max_iter=10, seed=8,
        )  # fmt: skip

    def test_transition_prior_is_validated(self):
        model = BatchGaussianHMM(2, 2)
        observations = np.zeros((2, 4))
        with pytest.raises(ValueError, match="transmat_prior"):
            model.fit(observations, transmat_prior=np.ones((3, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            model.fit(observations, transmat_prior=-np.ones((2, 2)))

    @pytest.mark.parametrize("how", ["readonly", "strided", "fortran"])
    def test_worker_input_layouts(self, how):
        """Worker inputs are read-only shm views: ``fit`` must accept
        them, leave them untouched and return the same bits."""
        rng = np.random.default_rng(11)
        observations, lengths = random_stack(11, n=7, t_hi=18, missing=0.3)
        view = hostile_view(rng, observations, how)
        frozen_lengths = lengths.copy()
        frozen_lengths.setflags(write=False)
        before = view.tobytes()
        hostile = assert_fit_parity(view, frozen_lengths, max_iter=8, seed=5)
        assert view.tobytes() == before
        plain = assert_fit_parity(observations, lengths, max_iter=8, seed=5)
        assert hostile == plain

    def test_max_iter_bounds_the_history(self):
        observations, lengths = random_stack(12, n=4, t_hi=15)
        # max_iter = 0 is rejected (test_batch.py, TestValidation).
        for max_iter in (1, 2):
            results = assert_fit_parity(
                observations, lengths, max_iter=max_iter, seed=6
            )
            assert all(r.iterations == max_iter for r in results)
            assert not any(r.converged for r in results)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=8),
        missing=st.sampled_from([0.0, 0.3]),
        k=st.sampled_from([2, 3, 7]),
    )
    def test_parity_property(self, seed, n, missing, k):
        # Strategy of ``TestParityVsPerClaim.test_parity_property``.
        observations, lengths, _ = stack_ragged(
            make_sequences(seed=seed, n=n, missing=missing)
        )
        assert_fit_parity(
            observations, lengths, k=k, max_iter=15, tol=1e-3, seed=seed
        )


def regime_rows(seed, lengths, missing=0.2):
    """Two-regime rows of the given lengths (sorted descending)."""
    rng = np.random.default_rng(seed)
    sequences = []
    for length in lengths:
        flip = int(rng.integers(1, length)) if length > 1 else 1
        values = np.where(np.arange(length) < flip, -0.8, 0.9)
        values = values + rng.normal(0.0, 0.3, size=length)
        mask = rng.random(length) < missing
        mask[int(rng.integers(0, length))] = False
        values[mask] = np.nan
        sequences.append(values)
    observations, lengths, _ = stack_ragged(sequences)
    return observations, lengths


class TestTimeMajorLoop:
    """``fit`` runs every iteration in the kernels' time-major layout,
    on stacks of ``work_steps`` timesteps allocated once per set of
    active rows; the frozen per-row loop must not see a bit of it."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_short_and_blocked_rows_in_one_fit(self, seed):
        # Rows up to ONE_BLOCK_MAX + 1 steps run sequentially, longer
        # ones in blocks: one fit, both passes, every iteration.
        edge = numpy_ref.ONE_BLOCK_MAX + 1
        lengths = [
            edge + 5 * numpy_ref.CHUNK + 3, edge + 7, edge + 1,
            edge, edge - 1, 12, 3, 1,
        ]  # fmt: skip
        assert numpy_ref.work_steps(lengths[0]) > lengths[0]  # padded
        observations, lengths = regime_rows(seed, lengths)
        results = assert_fit_parity(
            observations, lengths, max_iter=12, tol=1e-3, seed=seed
        )
        assert len({r.iterations for r in results}) > 1

    @pytest.mark.parametrize("length", [20, 90])
    def test_underflowing_step_is_redone_inside_fit(self, length):
        # An outlier no state can emit: its step's total underflows to
        # 0, and the forward pass redoes the row with the rescue.
        rng = np.random.default_rng(length)
        observations = np.where(
            np.arange(length) < length // 2, -1.0, 1.0
        ) + rng.normal(0.0, 0.02, size=(3, length))
        observations[1, length // 3] = 40.0
        observations[2, length - 5 :] = np.nan
        lengths = np.array([length, length, length - 2])
        params = dict(
            means=np.array([-1.0, 1.0]), variances=np.array([1e-3, 1e-3])
        )
        model = BatchGaussianHMM(3, 2, **params)
        _, scales, _ = model.forward(
            model.emission_probabilities(observations), lengths
        )
        assert (scales[1] == PROB_FLOOR).any() and (scales[0] > 0).all()
        # The rescued step's uniform posterior drags both means toward
        # the outlier, so the next iteration's objective drops: EM's
        # monotone contract does not cover a rescue, here or at the
        # parent commit.
        with contracts.contracts(False):
            assert_fit_parity(
                observations, lengths, max_iter=6, init=False, **params
            )

    def test_rows_freeze_on_different_iterations_as_the_stack_shrinks(self):
        # The longest rows freeze first: every new active set gets new
        # buffers with fewer rows and fewer timesteps.
        observations, lengths = regime_rows(
            5, [160, 150, 120, 90, 60, 40, 25, 9], missing=0.1
        )
        observations[:2] = np.where(
            np.isnan(observations[:2]), np.nan, np.sign(observations[:2])
        )
        results = assert_fit_parity(
            observations, lengths, max_iter=20, tol=1e-3, seed=3
        )
        counts = [r.iterations for r in results]
        assert len(set(counts)) >= 3
        assert counts[0] < max(counts)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_state_counts_one_to_four(self, k):
        # At K = 1 the old (N, T, 1) stack summed its innermost time
        # axis pairwise and the time-major one sums it sequentially;
        # the two agree while a row has fewer than eight present
        # values, which is what these rows hold at K = 1.
        t_hi = 7 if k == 1 else 60
        for seed in range(3):
            observations, lengths = random_stack(
                20 + seed, n=2 + 2 * seed, t_hi=t_hi, missing=0.2
            )
            assert_fit_parity(
                observations, lengths, k=k, max_iter=10, seed=seed
            )


class TestXiSumEqualsPerRowLoop:
    """``estep_xi_sum`` alone, on inputs ``fit`` never produces."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 12),
        k=st.sampled_from([2, 3, 7]),
        t_max=st.integers(1, 40),
        layout=st.sampled_from(["plain", "readonly", "strided", "fortran"]),
    )
    def test_random_stacks(self, seed, n, k, t_max, layout):
        rng = np.random.default_rng(seed)
        lengths = np.sort(rng.integers(1, t_max + 1, size=n))[::-1].copy()
        transmat = rng.random((n, k, k))
        emissions, alpha, beta = rng.random((3, n, t_max, k))
        scales = rng.uniform(0.05, 3.0, size=(n, t_max))
        want = frozen_estep_xi_sum(
            transmat, emissions, alpha, beta, scales, lengths
        )
        if layout != "plain":
            transmat, emissions, alpha, beta, scales = (
                hostile_view(rng, a, layout)
                for a in (transmat, emissions, alpha, beta, scales)
            )
            lengths.setflags(write=False)
        got = numpy_ref.estep_xi_sum(
            transmat,
            *(time_major(a) for a in (emissions, alpha, beta, scales)),
            lengths,
        )
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
