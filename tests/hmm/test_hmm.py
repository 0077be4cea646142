"""HMM correctness tests.

The scalar reference (``tests/hmm/scalar_reference.py``) against brute
force enumeration — it is the oracle ``test_batch.py`` holds the batched
model to, so it is checked against the definition itself — and the
batched model at ``N = 1`` on EM behaviour, missing data and validation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hmm import BatchGaussianHMM
from repro.hmm.batch import MIN_VARIANCE
from repro.hmm.utils import log_mask_zero, normalize_rows
from tests.hmm.scalar_reference import ScalarGaussianHMM
from tests.hmm.test_kernel_oracle import enumerate_row

TWO_STATE = dict(
    startprob=np.array([0.5, 0.5]),
    transmat=np.array([[0.95, 0.05], [0.05, 0.95]]),
    means=np.array([-1.0, 1.0]),
    variances=np.array([0.25, 0.25]),
)


def sample_chain(length, rng, startprob, transmat, means, variances):
    """``(states, observations)`` drawn from a Gaussian HMM."""
    rng = np.random.default_rng(rng)
    states = np.empty(length, dtype=int)
    states[0] = rng.choice(len(startprob), p=startprob)
    for t in range(1, length):
        states[t] = rng.choice(len(startprob), p=transmat[states[t - 1]])
    return states, rng.normal(means[states], np.sqrt(variances[states]))


def tiny_hmm():
    return ScalarGaussianHMM(
        2,
        startprob=np.array([0.6, 0.4]),
        transmat=np.array([[0.7, 0.3], [0.2, 0.8]]),
        means=np.array([-0.5, 1.5]),
        variances=np.array([0.6, 1.4]),
    )


def brute_force(hmm, obs):
    """``(likelihood, posteriors, best_path, best_joint)`` of ``obs``
    under ``hmm``, summed and maximised over every hidden path."""
    emissions = hmm.emissions(np.asarray(obs, dtype=float))
    return enumerate_row(hmm.startprob, hmm.transmat, emissions)[:4]


def n1(observations):
    """One sequence as a ``(1, T)`` stack and its lengths."""
    observations = np.asarray(observations, dtype=float)[None, :]
    return observations, np.array([observations.shape[1]])


def batched_decode(model, observations):
    stack, lengths = n1(observations)
    states, _ = model.viterbi(model.emission_probabilities(stack), lengths)
    return states[0]


def batched_log_likelihood(model, observations):
    stack, lengths = n1(observations)
    _, _, log_likelihoods = model.forward(
        model.emission_probabilities(stack), lengths
    )
    return log_likelihoods[0]


class TestUtils:
    def test_normalize_rows(self):
        out = normalize_rows(np.array([[2.0, 2.0], [0.0, 0.0]]))
        assert out[0].tolist() == [0.5, 0.5]
        assert out[1].tolist() == [0.5, 0.5]  # zero row -> uniform

    def test_normalize_vector_zero(self):
        # A 1-D vector is one row.
        assert normalize_rows(np.zeros(4)).tolist() == [0.25] * 4

    def test_validate_stochastic_rejects_bad_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            BatchGaussianHMM(1, 2, transmat=np.array([[0.5, 0.1], [0.5, 0.5]]))
        # Checked along the last axis of a per-row stack too.
        stack = np.array([[[0.9, 0.1], [0.2, 0.8]], [[0.9, 0.1], [0.2, 0.7]]])
        with pytest.raises(ValueError, match="transmat rows must sum to 1"):
            BatchGaussianHMM(2, 2, transmat=stack)

    def test_validate_stochastic_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            BatchGaussianHMM(1, 2, transmat=np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_validate_distribution(self):
        with pytest.raises(ValueError, match="startprob rows must sum to 1"):
            BatchGaussianHMM(1, 2, startprob=np.array([0.5, 0.6]))
        with pytest.raises(ValueError, match="startprob must be non-negative"):
            BatchGaussianHMM(1, 2, startprob=np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="startprob"):
            BatchGaussianHMM(1, 2, startprob=np.array([np.nan, 1.0]))

    def test_log_mask_zero(self):
        out = log_mask_zero(np.array([1.0, 0.0]))
        assert out[0] == 0.0
        assert np.isneginf(out[1])


class TestForwardExact:
    @pytest.mark.parametrize("obs", [[0], [0, 1], [2, 2, 0, 1], [1, 0, 2, 1, 0]])
    def test_matches_brute_force(self, obs):
        hmm = tiny_hmm()
        expected = brute_force(hmm, obs)[0]
        assert np.exp(hmm.log_likelihood(obs)) == pytest.approx(expected)

    def test_long_sequence_no_underflow(self):
        hmm = tiny_hmm()
        rng = np.random.default_rng(0)
        obs = rng.integers(0, 3, size=5000).astype(float)
        logp = hmm.log_likelihood(obs)
        assert np.isfinite(logp)
        assert logp < 0
        # Where enumeration cannot reach, the batched pass still agrees.
        batched = BatchGaussianHMM(
            1,
            2,
            startprob=hmm.startprob,
            transmat=hmm.transmat,
            means=hmm.means,
            variances=hmm.variances,
        )
        assert batched_log_likelihood(batched, obs) == pytest.approx(
            logp, rel=1e-12
        )


class TestViterbiExact:
    @pytest.mark.parametrize("obs", [[0], [0, 1, 2], [2, 2, 0, 1, 1]])
    def test_matches_brute_force(self, obs):
        hmm = tiny_hmm()
        states, log_joint = hmm.decode(obs)
        _, _, expected_path, expected_p = brute_force(hmm, obs)
        assert np.exp(log_joint) == pytest.approx(expected_p)
        assert tuple(states.tolist()) == expected_path

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6))
    def test_viterbi_path_is_optimal_property(self, obs):
        hmm = tiny_hmm()
        _, log_joint = hmm.decode(obs)
        expected_p = brute_force(hmm, obs)[3]
        assert np.exp(log_joint) == pytest.approx(expected_p)


class TestPosteriors:
    def test_rows_sum_to_one(self):
        gamma = tiny_hmm().posteriors([0, 1, 2, 0, 1])
        assert np.allclose(gamma.sum(axis=1), 1.0)

    def test_posterior_matches_brute_force_single_step(self):
        hmm = tiny_hmm()
        obs = [0, 2]
        gamma = hmm.posteriors(obs)
        # P(s_t = i | obs) by enumeration
        assert np.allclose(gamma, brute_force(hmm, obs)[1])


class TestBaumWelch:
    """Baum-Welch of the batched model on one sequence (``N = 1``)."""

    def sample(self, length, rng):
        return n1(sample_chain(length, rng, **TWO_STATE)[1])[0]

    def test_likelihood_is_monotone(self):
        obs = self.sample(300, 5)
        (result,) = BatchGaussianHMM(1, 2).fit(obs, max_iter=20, seed=1)
        lls = result.log_likelihoods
        assert all(b >= a - 1e-6 for a, b in zip(lls, lls[1:]))

    def test_fit_improves_over_initial(self):
        obs = self.sample(300, 5)
        (result,) = BatchGaussianHMM(1, 2).fit(
            obs, max_iter=30, tol=0.0, seed=1
        )
        assert result.final_log_likelihood > result.log_likelihoods[0]

    def test_converged_flag(self):
        obs = self.sample(100, 2)
        (result,) = BatchGaussianHMM(1, 2).fit(
            obs, max_iter=200, tol=1e-3, seed=1
        )
        assert result.converged
        assert result.convergence_reason == "tol"

    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            BatchGaussianHMM(1, 2).fit(np.empty((1, 0)))


class TestGaussianHMM:
    """Behaviour of the Gaussian emission model (batched, ``N = 1``)."""

    def test_decode_recovers_well_separated_states(self):
        states, obs = sample_chain(400, 3, **TWO_STATE)
        decoded = batched_decode(BatchGaussianHMM(1, 2, **TWO_STATE), obs)
        assert np.mean(decoded == states) > 0.95

    def test_fit_recovers_means(self):
        _, obs = sample_chain(2000, 4, **TWO_STATE)
        student = BatchGaussianHMM(
            1, 2, transmat=np.array([[0.9, 0.1], [0.1, 0.9]])
        )
        student.fit(n1(obs)[0], max_iter=50, seed=0)
        means = np.sort(student.means[0])
        assert means[0] == pytest.approx(-1.0, abs=0.15)
        assert means[1] == pytest.approx(1.0, abs=0.15)

    def test_missing_observations_bridged_by_transitions(self):
        """NaN observations are decoded from context, not from emissions."""
        hmm = BatchGaussianHMM(1, 2, **TWO_STATE)
        obs = np.array([1.0, 1.1, np.nan, np.nan, 1.05, 0.9])
        assert (batched_decode(hmm, obs) == 1).all()

    def test_all_missing_fit_rejected(self):
        hmm = BatchGaussianHMM(1, 2, **TWO_STATE)
        with pytest.raises(ValueError, match="all-missing"):
            hmm.fit(np.array([[np.nan, np.nan]]))

    def test_missing_does_not_change_loglik_scaling(self):
        hmm = BatchGaussianHMM(1, 2, **TWO_STATE)
        logp = batched_log_likelihood(hmm, [1.0, np.nan, 1.0])
        assert np.isfinite(logp)
        # A missing cell contributes a factor of 1, not a density.
        assert batched_log_likelihood(hmm, [1.0, np.nan]) == pytest.approx(
            batched_log_likelihood(hmm, [1.0]), abs=1e-12
        )
        assert batched_log_likelihood(hmm, [np.nan] * 3) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_variance_floor(self):
        student = BatchGaussianHMM(1, 2)
        student.fit(np.ones((1, 50)), max_iter=5, seed=0)  # zero variance
        assert (student.variances >= MIN_VARIANCE).all()

    def test_infinite_observations_rejected(self):
        hmm = BatchGaussianHMM(1, 2, **TWO_STATE)
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="infinite"):
                hmm.fit(np.array([[1.0, bad]]))


class TestBaseValidation:
    def test_bad_n_states(self):
        with pytest.raises(ValueError, match="n_states"):
            BatchGaussianHMM(1, 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="startprob"):
            BatchGaussianHMM(1, 2, startprob=np.array([1.0]))
        with pytest.raises(ValueError, match="transmat"):
            BatchGaussianHMM(1, 2, transmat=np.array([[1.0]]))
