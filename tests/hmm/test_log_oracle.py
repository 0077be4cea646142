"""The kernels against the log-space reference at production lengths.

``tests/hmm/log_reference.py`` recurses one row at a time in log space,
with no scaling and no time blocks.  The stacks here are ragged and
NaN-gapped, and their longest rows reach the blocked path
(``ONE_BLOCK_MAX``) and the grid lengths production runs (1 440 steps
for a day at one minute, 5 000 beyond it).
"""

import numpy as np
import pytest

from repro.hmm import BatchGaussianHMM
from repro.hmm.kernels.numpy_ref import CHUNK, ONE_BLOCK_MAX, ONE_LEVEL_MAX
from tests.hmm.log_reference import log_posteriors, log_viterbi


def nan_gapped_stack(t_max, seed):
    """A length-descending stack of two-level signals with NaN runs, and
    a model with its own parameters per row."""
    rng = np.random.default_rng(seed)
    shorter = {t_max - 1, t_max // 2, ONE_BLOCK_MAX + 2, CHUNK + 2, CHUNK, 1}
    lengths = np.array(
        [t_max, t_max] + sorted((s for s in shorter if 1 <= s), reverse=True)
    )
    lengths = lengths[lengths <= t_max]
    n = len(lengths)
    observations = np.full((n, t_max), np.nan)
    for row, length in enumerate(lengths):
        level = np.where(rng.random() < 0.5, -0.5, 0.5)
        flips = np.cumsum(rng.random(length) < 0.01) % 2
        signal = np.where(flips == 1, -level, level)
        values = signal + rng.normal(0.0, 0.3, size=length)
        gap = rng.integers(0, length)
        values[gap : gap + int(rng.integers(0, 40))] = np.nan
        values[rng.random(length) < 0.1] = np.nan
        observations[row, :length] = values
    stay = rng.uniform(0.8, 0.99, size=(n, 2))
    transmat = np.stack(
        [
            np.column_stack([stay[:, 0], 1.0 - stay[:, 0]]),
            np.column_stack([1.0 - stay[:, 1], stay[:, 1]]),
        ],
        axis=1,
    )
    first = rng.uniform(0.2, 0.8, size=n)
    kernel = BatchGaussianHMM(
        n,
        2,
        startprob=np.column_stack([first, 1.0 - first]),
        transmat=transmat,
        means=np.column_stack(
            [rng.uniform(-0.8, -0.2, n), rng.uniform(0.2, 0.8, n)]
        ),
        variances=rng.uniform(0.1, 0.5, size=(n, 2)),
    )
    return kernel, observations, lengths


@pytest.mark.parametrize(
    "t_max", [CHUNK + 1, CHUNK + 2, ONE_BLOCK_MAX + 2, 1440, 5000]
)
def test_kernels_match_the_log_space_reference(t_max):
    kernel, observations, lengths = nan_gapped_stack(t_max, seed=t_max)
    emissions = kernel.emission_probabilities(observations)
    alpha, scales, log_likelihoods = kernel.forward(emissions, lengths)
    # The scaled passes satisfy sum_i alpha[t, i] beta[t, i] = 1 on every
    # active step: the magnitude of beta, which xi reads and the
    # per-step normalised posteriors cannot see.
    beta = kernel.backward(emissions, scales, lengths)
    totals = (alpha * beta).sum(axis=-1)
    posteriors = kernel.state_posteriors(observations, lengths, emissions)
    states, _ = kernel.viterbi(emissions, lengths)
    for row, length in enumerate(lengths.tolist()):
        np.testing.assert_allclose(totals[row, :length], 1.0, rtol=1e-10)
        params = kernel.params(row)
        gamma, log_likelihood = log_posteriors(
            params.startprob, params.transmat, emissions[row, :length]
        )
        assert log_likelihoods[row] == pytest.approx(log_likelihood, rel=1e-10)
        np.testing.assert_allclose(
            posteriors[row, :length], gamma, rtol=0.0, atol=1e-10
        )
        path = log_viterbi(
            params.startprob, params.transmat, emissions[row, :length]
        )
        assert states[row, :length].tolist() == path.tolist()


def test_two_level_products_stay_in_range():
    """Rows of 5 000 steps on a chain that stays with probability 0.9999,
    means 2 apart at variance 0.01: a step's emissions differ by a
    factor of e^200 and a switch costs 1e-4, over the 64-step group
    products of the two-level carry ("Blocked time" in ``numpy_ref``)."""
    rng = np.random.default_rng(5000)
    lengths = np.array([5000, 4999])
    assert (lengths - 1 > ONE_LEVEL_MAX * CHUNK).all()  # two levels
    n, t_max = len(lengths), int(lengths[0])
    observations = np.full((n, t_max), np.nan)
    for row, length in enumerate(lengths.tolist()):
        flips = np.cumsum(rng.random(length) < 0.02) % 2
        observations[row, :length] = np.where(flips == 1, 1.0, -1.0)
        observations[row, :length] += rng.normal(0.0, 0.1, size=length)
    off = 1e-4
    kernel = BatchGaussianHMM(
        n,
        2,
        startprob=[0.5, 0.5],
        transmat=[[1.0 - off, off], [off, 1.0 - off]],
        means=[-1.0, 1.0],
        variances=[0.01, 0.01],
    )
    emissions = kernel.emission_probabilities(observations)
    alpha, scales, _ = kernel.forward(emissions, lengths)
    beta = kernel.backward(emissions, scales, lengths)
    for stack in (alpha, scales, beta):
        assert np.isfinite(stack[:, ::CHUNK]).all()  # the boundaries
    # The scaled passes satisfy sum_i alpha[t, i] beta[t, i] = 1 at every
    # t, which posteriors (normalised per step) cannot see.
    totals = (alpha * beta).sum(axis=-1)
    for row, length in enumerate(lengths.tolist()):
        np.testing.assert_allclose(totals[row, :length], 1.0, rtol=1e-10)
    posteriors = kernel.state_posteriors(observations, lengths, emissions)
    states, _ = kernel.viterbi(emissions, lengths)
    params = kernel.params(0)
    for row, length in enumerate(lengths.tolist()):
        gamma, _ = log_posteriors(
            params.startprob, params.transmat, emissions[row, :length]
        )
        np.testing.assert_allclose(
            posteriors[row, :length], gamma, rtol=0.0, atol=1e-10
        )
        path = log_viterbi(
            params.startprob, params.transmat, emissions[row, :length]
        )
        assert states[row, :length].tolist() == path.tolist()
