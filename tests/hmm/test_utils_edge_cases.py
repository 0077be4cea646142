"""Log-space edge cases for the sanctioned numeric helpers.

These are the degenerate inputs Baum-Welch actually produces on sparse
social-sensing data: zero probabilities (impossible observations),
denormal scales (tens of thousands of near-zero emissions), and
all-zero rows (states with no expected visits).  The helpers must map
each to a defined value or raise cleanly — never emit NaN or warnings.
"""

import warnings

import numpy as np
import pytest

from repro.devtools import contracts as ct
from repro.hmm import BatchGaussianHMM
from repro.hmm.utils import (
    LOG_2PI,
    batch_normal_densities,
    log_mask_zero,
    normalize_rows,
)


class TestLogMaskZero:
    def test_zero_maps_to_neg_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = log_mask_zero(np.array([0.0, 1.0, np.e]))
        assert result[0] == -np.inf
        assert result[1] == 0.0
        assert result[2] == pytest.approx(1.0)

    def test_all_zero_vector(self):
        result = log_mask_zero(np.zeros(4))
        assert (result == -np.inf).all()

    def test_denormal_input_stays_finite(self):
        denormal = np.array([5e-324, 1e-310])  # below DBL_MIN
        result = log_mask_zero(denormal)
        assert np.isfinite(result).all()
        assert (result < -700).all()

    def test_negative_input_raises_instead_of_nan(self):
        with pytest.raises(ValueError, match="non-negative"):
            log_mask_zero(np.array([0.5, -0.1]))


class TestNormalizeDegenerateRows:
    def test_all_zero_observation_row_becomes_uniform(self):
        # A state with no expected visits: Baum-Welch produces an
        # all-zero row; normalization must fall back to uniform, not NaN.
        matrix = np.array([[0.0, 0.0, 0.0], [3.0, 1.0, 0.0]])
        result = normalize_rows(matrix)
        np.testing.assert_allclose(result[0], [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_allclose(result[1], [0.75, 0.25, 0.0])
        assert np.isfinite(result).all()

    def test_zero_vector_becomes_uniform(self):
        np.testing.assert_allclose(normalize_rows(np.zeros(4)), np.full(4, 0.25))

    def test_denormal_row_normalizes_to_simplex(self):
        matrix = np.array([[1e-320, 3e-320]])
        result = normalize_rows(matrix)
        assert np.isfinite(result).all()
        assert result.sum() == pytest.approx(1.0)

    def test_normalized_rows_satisfy_simplex_contract(self):
        with ct.contracts(True):
            ct.assert_probability_simplex(
                normalize_rows(np.array([[0.0, 0.0], [2.0, 6.0]])), "rows"
            )


class TestNormalDensities:
    """``batch_normal_densities``: time-major ``(T, N)`` values, ``(N, K)``
    params, ``(T, K, N)`` densities."""

    def test_matches_manual_gaussian(self):
        values = np.array([[0.0], [1.0]])
        densities = batch_normal_densities(
            values, np.zeros((1, 1)), np.ones((1, 1))
        )
        assert densities.shape == (2, 1, 1)
        assert densities[0, 0, 0] == pytest.approx(np.exp(-0.5 * LOG_2PI))
        assert densities[1, 0, 0] == pytest.approx(
            np.exp(-0.5 * (LOG_2PI + 1.0))
        )

    def test_zero_variance_raises_cleanly(self):
        with pytest.raises(ValueError, match="strictly positive"):
            batch_normal_densities(
                np.zeros((3, 1)), np.zeros((1, 2)), np.array([[1.0, 0.0]])
            )

    def test_nan_variance_raises_cleanly(self):
        with pytest.raises(ValueError, match="positive and finite"):
            batch_normal_densities(
                np.zeros((3, 1)), np.zeros((1, 1)), np.array([[np.nan]])
            )

    def test_far_tail_underflows_to_zero_not_nan(self):
        densities = batch_normal_densities(
            np.array([[1e4]]), np.zeros((1, 1)), np.full((1, 1), 1e-3)
        )
        assert densities[0, 0, 0] == 0.0


class TestEndToEndDegenerateSequences:
    """The batched model on one degenerate sequence (``N = 1``)."""

    def test_fit_on_constant_sequence_stays_finite(self):
        hmm = BatchGaussianHMM(1, 2)
        observations = np.zeros((1, 30))
        with ct.contracts(True):
            (result,) = hmm.fit(observations, max_iter=10, seed=0)
        assert np.isfinite(hmm.means).all()
        assert (hmm.variances > 0).all()
        assert np.isfinite(result.final_log_likelihood)

    def test_impossible_observations_floor_not_nan(self):
        # Observations far outside every state's support: forward pass
        # hits all-zero emission rows and must floor, not divide by zero.
        hmm = BatchGaussianHMM(
            1,
            2,
            means=np.array([-1.0, 1.0]),
            variances=np.array([1e-3, 1e-3]),
        )
        emissions = hmm.emission_probabilities(np.array([[1e5, -1e5, 1e5]]))
        _, _, (logprob,) = hmm.forward(emissions, np.array([3]))
        assert np.isfinite(logprob)
        assert logprob < -50

    def test_mostly_missing_sequence_decodes_under_contracts(self):
        values = np.full((1, 40), np.nan)
        values[0, [3, 10, 17, 24, 31, 38]] = [1.0, 1.1, 0.9, -1.0, -1.1, -0.9]
        hmm = BatchGaussianHMM(1, 2)
        with ct.contracts(True):
            hmm.fit(values, max_iter=10, seed=0)
            emissions = hmm.emission_probabilities(values)
            states, _ = hmm.viterbi(emissions, np.array([40]))
        assert states.shape == (1, 40)
