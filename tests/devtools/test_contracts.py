"""Runtime contracts: validators, toggling, and in-EM failure points."""

import subprocess
import sys

import numpy as np
import pytest

from repro.core.scores import ScoreWeights
from repro.core.types import Attitude, Report
from repro.devtools import contracts as ct
from repro.hmm.batch import BatchGaussianHMM
from repro.hmm.kernels import numpy_ref


@pytest.fixture(autouse=True)
def contracts_on():
    previous = ct.set_contracts(True)
    yield
    ct.set_contracts(previous)


class TestSwitch:
    def test_disabled_validators_are_noops(self):
        ct.set_contracts(False)
        ct.assert_stochastic_matrix(np.array([[2.0, 3.0]]), "m")
        ct.assert_probability_simplex(np.array([0.2, 0.2]), "v")
        ct.assert_score_range(17.0, "s")
        ct.assert_finite(np.array([np.nan]), "f")
        ct.assert_non_decreasing(0.0, -5.0, "o")

    def test_context_manager_restores(self):
        ct.set_contracts(False)
        with ct.contracts(True):
            assert ct.contracts_enabled()
            with pytest.raises(ct.ContractViolation):
                ct.assert_score_range(2.0, "s")
        assert not ct.contracts_enabled()

    def test_env_var_enables_in_fresh_process(self):
        code = (
            "from repro.devtools import contracts as ct; "
            "print(ct.contracts_enabled())"
        )
        for env_value, expected in (("1", "True"), ("", "False")):
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={
                    "PYTHONPATH": "src",
                    ct.CONTRACTS_ENV_VAR: env_value,
                    "PATH": "/usr/bin:/bin",
                },
                check=True,
            )
            assert result.stdout.strip() == expected


class TestValidators:
    def test_stochastic_matrix_accepts_valid(self):
        ct.assert_stochastic_matrix(np.array([[0.3, 0.7], [0.5, 0.5]]), "m")

    def test_stochastic_matrix_rejects_bad_row_sum(self):
        with pytest.raises(ct.ContractViolation, match="sum to 1"):
            ct.assert_stochastic_matrix(np.array([[0.9, 0.6], [0.5, 0.5]]), "m")

    def test_stochastic_matrix_rejects_negative(self):
        with pytest.raises(ct.ContractViolation, match="negative"):
            ct.assert_stochastic_matrix(np.array([[-0.2, 1.2], [0.5, 0.5]]), "m")

    def test_stochastic_matrix_accepts_rectangular(self):
        ct.assert_stochastic_matrix(np.full((2, 5), 0.2), "emissionprob")

    def test_stochastic_matrix_rejects_1d(self):
        with pytest.raises(ct.ContractViolation, match="2-D"):
            ct.assert_stochastic_matrix(np.array([1.0]), "m")

    def test_simplex_accepts_posterior_matrix(self):
        ct.assert_probability_simplex(np.full((10, 4), 0.25), "gamma")

    def test_simplex_rejects_nan(self):
        with pytest.raises(ct.ContractViolation, match="non-finite"):
            ct.assert_probability_simplex(np.array([np.nan, 1.0]), "v")

    def test_score_range_bounds(self):
        ct.assert_score_range(1.0, "s")
        ct.assert_score_range(-1.0, "s")
        with pytest.raises(ct.ContractViolation, match="lie in"):
            ct.assert_score_range(1.5, "s")

    def test_finite(self):
        ct.assert_finite(np.zeros(3), "f")
        with pytest.raises(ct.ContractViolation, match="non-finite"):
            ct.assert_finite(np.array([1.0, np.inf]), "f")

    def test_non_decreasing_allows_rounding_and_a_first_step(self):
        ct.assert_non_decreasing(-np.inf, -40.0, "o")
        ct.assert_non_decreasing(-40.0, -40.0 - 1e-11, "o")
        ct.assert_non_decreasing(np.array([-3.0, 2.0]), np.array([-2.0, 2.0]))

    def test_non_decreasing_rejects_a_drop(self):
        with pytest.raises(ct.ContractViolation, match="decreased"):
            ct.assert_non_decreasing(-40.0, -40.1, "o")
        with pytest.raises(ct.ContractViolation, match="objective"):
            ct.assert_non_decreasing(
                np.array([-3.0, 2.0]), np.array([-2.0, 1.0]), "objective"
            )

    def test_violation_is_assertion_error(self):
        assert issubclass(ct.ContractViolation, AssertionError)


class TestBaumWelchBoundary:
    """Acceptance criterion: corruption fails inside the EM update."""

    def _observations(self):
        rng = np.random.default_rng(0)
        return np.concatenate([rng.normal(-1, 0.3, 40), rng.normal(1, 0.3, 40)])

    def test_corrupted_transmat_raises_inside_fit(self):
        hmm = BatchGaussianHMM(2, 2)
        observations = np.stack([self._observations()] * 2)
        hmm.fit(observations, max_iter=5, seed=1)
        hmm.transmat[1] = [[0.9, 0.6], [0.1, 0.9]]  # row sums 1.5 / 1.0
        with pytest.raises(ct.ContractViolation, match="transmat"):
            hmm.fit(observations, max_iter=5, seed=1, init=False)

    def test_corrupted_startprob_raises(self):
        hmm = BatchGaussianHMM(1, 2)
        hmm.startprob[0] = [0.9, 0.9]
        with pytest.raises(ct.ContractViolation, match="startprob"):
            hmm.fit(self._observations()[None, :6], max_iter=3, seed=0)

    def test_an_m_step_that_is_not_the_maximiser_raises(self, monkeypatch):
        # The pre-PR-23 statistic: drop the 1 / c_{t+1} factor by
        # handing the kernel unit scales.  EM then lowers the
        # log-likelihood within a few iterations, and the fit says so.
        true_xi = numpy_ref.estep_xi_sum
        monkeypatch.setattr(
            numpy_ref,
            "estep_xi_sum",
            lambda transmat, emissions, alpha, beta, scales, lengths: true_xi(
                transmat, emissions, alpha, beta, np.ones_like(scales), lengths
            ),
        )
        observations = self._observations()[None, 30:50]
        with pytest.raises(ct.ContractViolation, match="objective decreased"):
            BatchGaussianHMM(1, 2).fit(observations, max_iter=10, tol=0.0)

    def test_fit_checks_the_map_objective(self, monkeypatch):
        # As above, with transition pseudo-counts: the contract holds the
        # MAP objective (log-likelihood + sum prior * log A), not the
        # bare log-likelihood.
        true_xi = numpy_ref.estep_xi_sum
        monkeypatch.setattr(
            numpy_ref,
            "estep_xi_sum",
            lambda transmat, emissions, alpha, beta, scales, lengths: true_xi(
                transmat, emissions, alpha, beta, np.ones_like(scales), lengths
            ),
        )
        prior = 20.0 * np.array([[0.98, 0.02], [0.02, 0.98]])
        with pytest.raises(ct.ContractViolation, match="objective decreased"):
            BatchGaussianHMM(1, 2).fit(
                self._observations()[None, 30:50], max_iter=10, tol=0.0,
                seed=0, transmat_prior=prior,
            )  # fmt: skip

    def test_clean_fit_passes_with_contracts_enabled(self):
        hmm = BatchGaussianHMM(1, 2)
        (result,) = hmm.fit(self._observations()[None, :], max_iter=10, seed=1)
        assert result.iterations >= 1
        ct.assert_stochastic_matrix(hmm.transmat[0], "transmat")


class TestScoreBoundary:
    def _report(self, **overrides):
        fields = dict(
            source_id="s",
            claim_id="c",
            timestamp=0.0,
            attitude=Attitude.AGREE,
            uncertainty=0.0,
            independence=1.0,
        )
        fields.update(overrides)
        return Report(**fields)

    def test_valid_report_scores_fine(self):
        assert ScoreWeights().score_column([self._report()]).tolist() == [1.0]

    def test_out_of_range_component_raises(self):
        # Bypass Report's own validation via object.__setattr__ to model
        # an upstream component going bad after construction.
        report = self._report()
        object.__setattr__(report, "independence", 3.0)
        with pytest.raises(ct.ContractViolation, match="contribution score"):
            ScoreWeights().score_column([report])
