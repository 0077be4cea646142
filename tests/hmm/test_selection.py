"""Tests for HMM model selection (AIC/BIC over state counts)."""

import numpy as np
import pytest

from repro.hmm.selection import (
    CANDIDATES,
    MAX_ITER,
    SEED,
    SelectionResult,
    aic,
    bic,
    n_parameters,
    select_n_states,
)
from tests.hmm.scalar_reference import ScalarGaussianHMM
from tests.hmm.test_hmm import sample_chain


class TestParameterCounts:
    def test_gaussian(self):
        # n=2: 1 start + 2 transition + 4 emission = 7
        assert n_parameters(2) == 7

    def test_single_state(self):
        assert n_parameters(1) == 2


class TestCriteria:
    def test_aic_bic_penalize_parameters(self):
        rng = np.random.default_rng(0)
        obs = rng.normal(0.0, 1.0, size=200)
        entries = select_n_states(obs).entries
        small, big = entries[0], entries[-1]
        assert (small.n_states, big.n_states) == (1, 4)
        # Same data, more parameters: the criteria must penalize.
        assert big.aic == 2 * n_parameters(4) - 2 * big.log_likelihood
        assert big.bic > small.bic - 50  # sanity, not strict

    def test_bic_harsher_than_aic_for_long_sequences(self):
        rng = np.random.default_rng(1)
        obs = rng.normal(0.0, 1.0, size=2000)
        (entry,) = [e for e in select_n_states(obs).entries if e.n_states == 3]
        # log(2000) > 2, so BIC's complexity term dominates AIC's.
        assert entry.bic > entry.aic
        assert entry.aic == aic(3, entry.log_likelihood)
        assert entry.bic == bic(3, entry.log_likelihood, obs.size)


class TestSelectNStates:
    def test_recovers_two_states_from_bimodal_chain(self):
        _, obs = sample_chain(
            600,
            5,
            startprob=np.array([0.5, 0.5]),
            transmat=np.array([[0.95, 0.05], [0.05, 0.95]]),
            means=np.array([-2.0, 2.0]),
            variances=np.array([0.3, 0.3]),
        )
        result = select_n_states(obs)
        assert result.best_by_bic == 2

    def test_single_regime_prefers_one_state(self):
        rng = np.random.default_rng(2)
        obs = rng.normal(0.0, 1.0, size=500)
        result = select_n_states(obs)
        assert result.best_by_bic == 1

    def test_entries_expose_scores(self):
        rng = np.random.default_rng(0)
        obs = rng.normal(size=100)
        result = select_n_states(obs)
        assert isinstance(result, SelectionResult)
        assert [e.n_states for e in result.entries] == list(CANDIDATES)
        for entry in result.entries:
            assert np.isfinite(entry.aic)
            assert np.isfinite(entry.bic)

    def test_scores_equal_the_scalar_reference(self):
        """The batched one-row fit scores every candidate exactly as the
        textbook per-sequence fit does."""
        rng = np.random.default_rng(3)
        obs = np.concatenate(
            [rng.normal(-1.0, 0.3, size=40), rng.normal(1.0, 0.3, size=40)]
        )
        result = select_n_states(obs)
        for entry in result.entries:
            reference = ScalarGaussianHMM(entry.n_states)
            reference.fit(obs, max_iter=MAX_ITER, seed=SEED)
            expected = reference.log_likelihood(obs)
            assert entry.log_likelihood == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )
            assert entry.bic == pytest.approx(
                bic(entry.n_states, expected, obs.size), rel=1e-12
            )

