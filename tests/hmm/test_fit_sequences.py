"""Tests for multi-sequence Baum-Welch training."""

import numpy as np
import pytest

from repro.devtools import contracts
from repro.hmm import DiscreteHMM, GaussianHMM


def teacher():
    return DiscreteHMM(
        n_states=2,
        n_symbols=3,
        startprob=np.array([0.7, 0.3]),
        transmat=np.array([[0.85, 0.15], [0.1, 0.9]]),
        emissionprob=np.array([[0.6, 0.3, 0.1], [0.05, 0.25, 0.7]]),
    )


class TestFitSequences:
    def test_monotone_total_likelihood(self):
        rng = np.random.default_rng(0)
        sequences = [teacher().sample(120, rng=rng)[1] for _ in range(6)]
        student = DiscreteHMM(2, 3)
        result = student.fit_sequences(sequences, max_iter=15, rng=1)
        lls = result.log_likelihoods
        assert all(b >= a - 1e-6 for a, b in zip(lls, lls[1:]))

    def test_single_sequence_matches_fit(self):
        """fit_sequences on one sequence equals fit (same updates),
        with and without transition pseudo-counts."""
        rng = np.random.default_rng(1)
        _, obs = teacher().sample(200, rng=rng)
        sticky = 50.0 * np.array([[0.98, 0.02], [0.02, 0.98]])
        plain = None
        for prior in (None, sticky):
            a = DiscreteHMM(2, 3)
            b = DiscreteHMM(2, 3)
            a.fit(obs, max_iter=8, rng=7, transmat_prior=prior)
            b.fit_sequences([obs], max_iter=8, rng=7, transmat_prior=prior)
            assert np.allclose(a.transmat, b.transmat)
            assert np.allclose(a.emissionprob, b.emissionprob)
            assert np.allclose(a.startprob, b.startprob)
            if prior is None:
                plain = b.transmat
        # The prior is not a no-op: it pulls the diagonal towards 0.98.
        assert (np.diag(b.transmat) > np.diag(plain)).all()

    def test_pooled_map_objective_never_drops(self):
        """With a prior, the pooled ``log-likelihood + sum prior * log A``
        is what EM raises; the runtime contract holds every iteration of
        ``fit_sequences`` to it."""
        rng = np.random.default_rng(4)
        sequences = [teacher().sample(40, rng=rng)[1] for _ in range(5)]
        prior = np.array([[30.0, 1.0], [0.0, 12.0]])
        student = DiscreteHMM(2, 3)
        with contracts.contracts(True):
            result = student.fit_sequences(
                sequences, max_iter=25, tol=0.0, rng=2, transmat_prior=prior
            )
        assert result.iterations == 25
        with pytest.raises(ValueError, match="transmat_prior"):
            student.fit_sequences(sequences, transmat_prior=np.ones((3, 3)))

    def test_pools_statistics_across_sequences(self):
        """Many short sequences recover parameters a single short one
        cannot pin down — the start distribution especially."""
        rng = np.random.default_rng(2)
        sequences = [teacher().sample(60, rng=rng)[1] for _ in range(40)]
        student = DiscreteHMM(2, 3)
        student.fit_sequences(sequences, max_iter=40, rng=3)
        # Identify states by emission signature (state 1 favors symbol 2).
        order = np.argsort(student.emissionprob[:, 2])
        mapped_start = student.startprob[order]
        assert mapped_start[0] == pytest.approx(0.7, abs=0.15)

    def test_gaussian_sequences(self):
        true = GaussianHMM(
            n_states=2,
            transmat=np.array([[0.9, 0.1], [0.1, 0.9]]),
            means=np.array([-1.0, 1.0]),
            variances=np.array([0.2, 0.2]),
        )
        rng = np.random.default_rng(3)
        sequences = [true.sample(150, rng=rng)[1] for _ in range(5)]
        student = GaussianHMM(2)
        student.fit_sequences(sequences, max_iter=40, rng=0)
        means = np.sort(student.means)
        assert means[0] == pytest.approx(-1.0, abs=0.2)
        assert means[1] == pytest.approx(1.0, abs=0.2)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DiscreteHMM(2, 2).fit_sequences([])

    def test_length_one_sequences(self):
        """Degenerate sequences (no transitions) still train emissions."""
        student = DiscreteHMM(2, 2)
        result = student.fit_sequences(
            [np.array([0]), np.array([1]), np.array([0])],
            max_iter=5,
            rng=0,
        )
        assert len(result.log_likelihoods) >= 1
        assert np.allclose(student.transmat.sum(axis=1), 1.0)
