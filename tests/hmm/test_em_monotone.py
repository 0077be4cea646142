"""(MAP-)EM never lowers its objective.

Baum-Welch with the ``1 / c_{t+1}`` factor in the xi statistic is an EM:
the log-likelihood a model enters an iteration with is at least the one
it entered the previous iteration with.  With ``transmat_prior``
pseudo-counts it is a MAP-EM and the same holds for the log-likelihood
plus ``sum prior * log A``.  The batched model and the scalar reference
(``tests/hmm/scalar_reference.py``), the two-regime sequence that
used to fall from -3.6 to -10.9 without the factor, and a property over
ragged, NaN-bearing stacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devtools import contracts
from repro.hmm import BatchGaussianHMM, stack_ragged
from repro.hmm.utils import dirichlet_log_prior
from tests.hmm.scalar_reference import ScalarGaussianHMM
from tests.hmm.test_fit_parity import random_stack


def two_regime_sequence() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.concatenate(
        [rng.normal(-1.0, 0.3, size=20), rng.normal(1.0, 0.3, size=20)]
    )


def assert_never_drops(objectives, what):
    """``objectives[i]`` (scalars or per-row arrays) must not decrease by
    more than the runtime contract's 1e-9 relative rounding slack."""
    objectives = np.asarray(objectives, dtype=float)
    with contracts.contracts(True):
        contracts.assert_non_decreasing(objectives[:-1], objectives[1:], what)


@pytest.mark.parametrize("engine", ["batched", "scalar"])
def test_log_likelihood_never_decreases(engine):
    sequence = two_regime_sequence()
    if engine == "batched":
        model = BatchGaussianHMM(1, 2)
        (result,) = model.fit(sequence[None, :], max_iter=8, tol=0.0, seed=0)
    else:
        result = ScalarGaussianHMM(2).fit(
            sequence, max_iter=8, tol=0.0, seed=0
        )
    assert result.iterations == 8
    assert_never_drops(result.log_likelihoods, "EM lowered the log-likelihood")
    assert result.log_likelihoods[-1] > -2.5  # it used to end near -11


def stepwise_objectives(model, fit_one, prior, steps):
    """Objective entering each of ``steps`` single EM iterations.

    ``fit_one(init)`` runs one iteration and returns its entering
    log-likelihood(s); the transition matrix it entered with is read
    off the model beforehand, which a ``FitResult`` does not keep.
    """
    objectives = []
    for step in range(steps):
        entered_with = model.transmat.copy()
        log_likelihood = fit_one(step == 0)
        objectives.append(
            log_likelihood + dirichlet_log_prior(entered_with, prior)
        )
    return objectives


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    k=st.sampled_from([2, 3]),
    missing=st.sampled_from([0.0, 0.3, 0.7]),
    # 6000 is about what SSTD puts on a 1440-step row (4 per grid step).
    strength=st.sampled_from([0.0, 0.5, 20.0, 6000.0]),
)
def test_objective_never_decreases_on_ragged_stacks(
    seed, n, k, missing, strength
):
    observations, lengths = random_stack(seed, n=n, t_hi=40, missing=missing)
    sticky = np.full((k, k), 0.02 / (k - 1))
    np.fill_diagonal(sticky, 0.98)
    prior = strength * sticky

    batched = BatchGaussianHMM(n, k, transmat=sticky)

    def batched_step(init):
        results = batched.fit(
            observations, lengths,
            max_iter=1, seed=seed, init=init, transmat_prior=prior,
        )  # fmt: skip
        return np.array([r.log_likelihoods[0] for r in results])

    assert_never_drops(
        stepwise_objectives(batched, batched_step, prior, steps=10),
        f"batched MAP-EM (strength {strength})",
    )

    # The same run in one call: with no prior the recorded history is
    # itself the objective.
    if strength == 0.0:
        model = BatchGaussianHMM(n, k, transmat=sticky)
        for result in model.fit(
            observations, lengths, max_iter=10, tol=0.0, seed=seed
        ):
            assert_never_drops(result.log_likelihoods, "batched EM history")

    row = int(np.random.default_rng(seed).integers(n))
    sequence = observations[row, : lengths[row]]
    scalar = ScalarGaussianHMM(k, transmat=sticky)

    def scalar_step(init):
        result = scalar.fit(
            sequence, max_iter=1, seed=seed, init=init, transmat_prior=prior
        )
        return result.log_likelihoods[0]

    assert_never_drops(
        stepwise_objectives(scalar, scalar_step, prior, steps=10),
        f"scalar MAP-EM (strength {strength})",
    )


def test_stack_ragged_rows_keep_their_own_history():
    # A frozen row's history stops; the rows still iterating keep
    # climbing — freezing must not splice histories across rows.
    sequences = [two_regime_sequence(), np.full(6, 1.0), np.arange(9.0)]
    observations, lengths, _ = stack_ragged(sequences)
    results = BatchGaussianHMM(3, 2).fit(
        observations, lengths, max_iter=20, tol=1e-3, seed=0
    )
    assert len({result.iterations for result in results}) > 1
    for result in results:
        assert_never_drops(result.log_likelihoods, "ragged EM history")
