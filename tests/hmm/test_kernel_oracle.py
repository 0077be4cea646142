"""Independent oracle for the batched HMM kernels: path enumeration.

The frozen-oracle parity of ``test_kernels.py`` proves the kernels
return what their previous bodies returned, not that either is right.
Here every quantity is rebuilt from the definition of an HMM — a sum (or
max) over all ``K**L`` hidden paths of the joint
``p(path, observations)`` — with no recursion, no scaling and no shared
code, and :mod:`~repro.hmm.kernels.numpy_ref` is held to it directly,
below :class:`~repro.hmm.batch.BatchGaussianHMM`.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hmm import BatchGaussianHMM, stack_ragged
from repro.hmm.kernels import numpy_ref
from repro.hmm.utils import log_mask_zero, masked_row_sums, normalize_rows
from tests.hmm.test_kernels import (
    kernel_backward,
    kernel_forward,
    kernel_viterbi,
    time_major,
)


def enumerate_row(startprob, transmat, emissions):
    """``(likelihood, posteriors, best_path, best_joint, runner_up,
    transitions)`` of one sequence from its ``K**L`` path joints;
    ``emissions`` is ``(L, K)`` and ``transitions[i, j]`` the expected
    number of ``i -> j`` steps given the observations."""
    length, k = emissions.shape
    likelihood = 0.0
    occupancy = np.zeros((length, k))
    transitions = np.zeros((k, k))
    joints = []
    for path in itertools.product(range(k), repeat=length):
        joint = startprob[path[0]] * emissions[0, path[0]]
        for t in range(1, length):
            joint *= transmat[path[t - 1], path[t]] * emissions[t, path[t]]
        likelihood += joint
        for t, state in enumerate(path):
            occupancy[t, state] += joint
        for source, destination in zip(path, path[1:]):
            transitions[source, destination] += joint
        joints.append((joint, path))
    joints.sort(key=lambda pair: -pair[0])
    runner_up = joints[1][0] if len(joints) > 1 else 0.0
    best_joint, best_path = joints[0]
    return (
        likelihood,
        occupancy / likelihood,
        best_path,
        best_joint,
        runner_up,
        transitions / likelihood,
    )


def small_stack(seed, k, missing):
    """A few ragged rows, ``T <= 5``, NaN observations, per-row chains."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    sequences = []
    for _ in range(n):
        values = rng.normal(0.0, 1.5, size=int(rng.integers(1, 6)))
        values[rng.random(values.size) < missing] = np.nan
        sequences.append(values)
    observations, lengths, _ = stack_ragged(sequences)
    startprob = rng.random((n, k)) + 0.05
    startprob /= startprob.sum(axis=1, keepdims=True)
    transmat = rng.random((n, k, k)) + 0.05
    transmat /= transmat.sum(axis=2, keepdims=True)
    model = BatchGaussianHMM(
        n,
        k,
        startprob=startprob,
        transmat=transmat,
        means=rng.normal(0.0, 1.0, size=(n, k)),
        variances=rng.uniform(0.5, 2.0, size=(n, k)),
    )
    # The emission stack is an *input* of every kernel op, so sharing it
    # with the enumeration leaves the recursions fully independent.
    emissions = model.emission_probabilities(observations)
    return startprob, transmat, emissions, lengths, np.isnan(observations)


@given(
    seed=st.integers(0, 100_000),
    k=st.sampled_from([2, 3]),
    missing=st.sampled_from([0.0, 0.4, 1.0]),
)
@settings(max_examples=25, deadline=None)
def test_kernels_match_path_enumeration(seed, k, missing):
    startprob, transmat, emissions, lengths, nan_mask = small_stack(
        seed, k, missing
    )
    alpha, scales = kernel_forward(startprob, transmat, emissions, lengths)
    beta = kernel_backward(transmat, emissions, scales, lengths)
    log_likelihoods = masked_row_sums(log_mask_zero(scales), lengths)
    posteriors = normalize_rows(alpha * beta)
    xi_sum = numpy_ref.estep_xi_sum(
        transmat,
        *(time_major(a) for a in (emissions, alpha, beta, scales)),
        lengths,
    )
    states, log_joints = kernel_viterbi(
        log_mask_zero(startprob),
        log_mask_zero(transmat),
        log_mask_zero(emissions),
        lengths,
    )
    for row, length in enumerate(lengths.tolist()):
        if missing == 1.0:
            assert nan_mask[row, :length].all()
        likelihood, occupancy, best_path, best_joint, runner_up, transitions = (
            enumerate_row(startprob[row], transmat[row], emissions[row, :length])
        )  # fmt: skip
        assert log_likelihoods[row] == pytest.approx(
            math.log(likelihood), rel=1e-10, abs=1e-10
        )
        np.testing.assert_allclose(
            posteriors[row, :length], occupancy, rtol=1e-10, atol=1e-13
        )
        # Filtering: alpha[t] is p(state_t | obs[:t+1]) — the last row
        # must equal the last smoothed posterior.
        np.testing.assert_allclose(
            alpha[row, length - 1], occupancy[-1], rtol=1e-10, atol=1e-13
        )
        assert log_joints[row] == pytest.approx(
            math.log(best_joint), rel=1e-10, abs=1e-10
        )
        if best_joint - runner_up > 1e-9 * best_joint:  # unique optimum
            assert tuple(states[row, :length]) == best_path
        assert (states[row, length:] == 0).all()
        # Baum-Welch's transition statistic is the expected number of
        # i -> j steps, nothing more.
        np.testing.assert_allclose(
            xi_sum[row], transitions, rtol=1e-10, atol=1e-13
        )


@pytest.mark.parametrize("k", [2, 3])
def test_xi_rows_sum_to_occupancy_on_a_long_gappy_stack(k):
    """``sum_j xi_sum[n, i, j] == sum_{t < len-1} gamma[n, t, i]`` at the
    production length, where enumeration cannot reach: every step leaves
    state i exactly as often as the chain is in it.  Without the
    ``1 / c_{t+1}`` factor the left side is weighted by the one-step
    predictive density and the two differ by orders of magnitude."""
    rng = np.random.default_rng(k)
    t_max = 1440
    sequences = []
    for length in (t_max, t_max, 977, 400, 2, 1):
        values = np.where(
            np.arange(length) % 311 < 150, -0.8, 0.9
        ) + rng.normal(0.0, 0.4, size=length)
        values[rng.random(length) < 0.3] = np.nan
        values[length // 3 : length // 3 + min(120, length // 4)] = np.nan
        sequences.append(values)
    observations, lengths, _ = stack_ragged(sequences)
    n = len(sequences)
    transmat = rng.random((n, k, k)) + 0.05
    transmat /= transmat.sum(axis=2, keepdims=True)
    model = BatchGaussianHMM(
        n,
        k,
        transmat=transmat,
        means=np.sort(rng.normal(0.0, 1.0, size=(n, k)), axis=1),
        variances=rng.uniform(0.1, 0.5, size=(n, k)),
    )
    emissions = model.emission_probabilities(observations)
    alpha, scales, _ = model.forward(emissions, lengths)
    beta = model.backward(emissions, scales, lengths)
    gamma = normalize_rows(alpha * beta)
    xi_sum = numpy_ref.estep_xi_sum(
        transmat,
        *(time_major(a) for a in (emissions, alpha, beta, scales)),
        lengths,
    )
    assert (scales[:, 1:] != 1.0).any()  # the factor is not a no-op here
    for row, length in enumerate(lengths.tolist()):
        np.testing.assert_allclose(
            xi_sum[row].sum(axis=1),
            gamma[row, : length - 1].sum(axis=0),
            rtol=1e-10,
            atol=1e-13,
        )
