"""Textbook per-sequence Gaussian HMM: the independent test reference.

Production has one HMM, :class:`repro.hmm.batch.BatchGaussianHMM`: a
stack of N chains advanced in lockstep by time-major numpy kernels with
masked, ragged reductions.  This module is a second, deliberately plain
implementation of the same model for one sequence at a time — Rabiner's
scaled forward-backward, Baum-Welch and log-space Viterbi over ``(T, K)``
arrays with a Python loop over time.  It shares only the constants
``PROB_FLOOR`` and ``MIN_VARIANCE`` and the ``FitResult`` record with
production, so agreeing with it checks the batched arithmetic rather
than a copy of it, at lengths path enumeration cannot reach.

The semantics the batched model is held to:

- a NaN observation is missing: emission likelihood 1 in every state;
- quantile init: means at the observation quantiles, variances at the
  observed variance; a sequence whose variance is below
  ``MIN_VARIANCE`` gets unit variance and ``N(0, 0.1)`` jitter on the
  means from ``default_rng(seed)``;
- a forward step whose total probability is 0 restarts from the
  uniform vector with scale ``PROB_FLOOR``;
- ``xi_t(i, j) = alpha_t(i) A_ij b_j(o_{t+1}) beta_{t+1}(j) / c_{t+1}``;
- MAP M-step: ``pi = normalize(gamma_0 + PROB_FLOOR)``,
  ``A = normalize(xi + prior + PROB_FLOOR)``, posterior-weighted means
  and variances over the present cells (a state without weight keeps
  its own), variances floored at ``MIN_VARIANCE``;
- EM stops when the log-likelihood moves by less than ``tol``.
"""

import math

import numpy as np

from repro.hmm.batch import MIN_VARIANCE, FitResult
from repro.hmm.utils import PROB_FLOOR

LOG_2PI = math.log(2.0 * math.pi)


def normalize(values: np.ndarray) -> np.ndarray:
    """Rows (last axis) scaled to sum 1; a zero row becomes uniform."""
    totals = values.sum(axis=-1, keepdims=True)
    return np.where(
        totals > 0,
        values / np.where(totals > 0, totals, 1.0),
        1.0 / values.shape[-1],
    )


class ScalarGaussianHMM:
    """One K-state HMM with ``Normal(means[i], variances[i])`` emissions."""

    def __init__(
        self,
        n_states: int,
        startprob=None,
        transmat=None,
        means=None,
        variances=None,
    ) -> None:
        k = n_states
        self.n_states = k
        self.startprob = np.array(
            np.full(k, 1.0 / k) if startprob is None else startprob, float
        )
        self.transmat = np.array(
            np.full((k, k), 1.0 / k) if transmat is None else transmat, float
        )
        self.means = np.array(np.zeros(k) if means is None else means, float)
        self.variances = np.array(
            np.ones(k) if variances is None else variances, float
        )

    # -- inference -----------------------------------------------------
    def emissions(self, observations) -> np.ndarray:
        """``(T, K)`` densities ``N(o_t; mean_i, var_i)``; 1 where missing."""
        observations = np.asarray(observations, dtype=float)
        missing = np.isnan(observations)
        diff = np.where(missing, 0.0, observations)[:, None] - self.means
        densities = np.exp(
            -0.5 * (LOG_2PI + np.log(self.variances) + diff**2 / self.variances)
        )
        densities[missing] = 1.0
        return densities

    def forward(self, emissions: np.ndarray):
        """Scaled forward pass: ``(alpha, scales, log_likelihood)``."""
        length, k = emissions.shape
        alpha = np.empty((length, k))
        scales = np.empty(length)
        for t in range(length):
            previous = self.startprob if t == 0 else alpha[t - 1] @ self.transmat
            alpha[t] = previous * emissions[t]
            scales[t] = alpha[t].sum()
            if scales[t] == 0:
                alpha[t] = 1.0 / k
                scales[t] = PROB_FLOOR
            else:
                alpha[t] /= scales[t]
        return alpha, scales, float(np.log(scales).sum())

    def backward(self, emissions: np.ndarray, scales: np.ndarray):
        """Scaled backward pass matching :meth:`forward`'s scales."""
        beta = np.ones(emissions.shape)
        for t in range(emissions.shape[0] - 2, -1, -1):
            beta[t] = self.transmat @ (emissions[t + 1] * beta[t + 1])
            beta[t] /= scales[t + 1]
        return beta

    def xi_sum(self, emissions, alpha, beta, scales) -> np.ndarray:
        """Expected transition counts ``sum_t xi_t``, shape ``(K, K)``."""
        xi = np.zeros((self.n_states, self.n_states))
        for t in range(emissions.shape[0] - 1):
            xi += (
                alpha[t][:, None]
                * self.transmat
                * ((emissions[t + 1] * beta[t + 1]) / scales[t + 1])[None, :]
            )
        return xi

    def log_likelihood(self, observations) -> float:
        return self.forward(self.emissions(observations))[2]

    def posteriors(self, observations) -> np.ndarray:
        """``P(state_t = i | observations)``, shape ``(T, K)``."""
        emissions = self.emissions(observations)
        alpha, scales, _ = self.forward(emissions)
        return normalize(alpha * self.backward(emissions, scales))

    def decode(self, observations):
        """Log-space Viterbi: ``(states, log_joint)``."""
        with np.errstate(divide="ignore"):
            log_b = np.log(self.emissions(observations))
            log_a = np.log(self.transmat)
            delta = np.log(self.startprob) + log_b[0]
        length, k = log_b.shape
        backpointer = np.zeros((length, k), dtype=int)
        for t in range(1, length):
            # candidates[i, j] = delta[i] + log A[i, j]
            candidates = delta[:, None] + log_a
            backpointer[t] = np.argmax(candidates, axis=0)
            delta = candidates[backpointer[t], np.arange(k)] + log_b[t]
        states = np.empty(length, dtype=int)
        states[-1] = int(np.argmax(delta))
        for t in range(length - 1, 0, -1):
            states[t - 1] = backpointer[t, states[t]]
        return states, float(delta[states[-1]])

    # -- training --------------------------------------------------------
    def init_emissions(self, observations: np.ndarray, seed) -> None:
        present = observations[~np.isnan(observations)]
        if present.size == 0:
            raise ValueError("cannot initialize from all-missing observations")
        k = self.n_states
        self.means = np.quantile(present, np.linspace(0.0, 1.0, k + 2)[1:-1])
        spread = float(np.var(present))
        if spread < MIN_VARIANCE:
            spread = 1.0
            jitter = np.random.default_rng(seed).normal(0.0, 0.1, size=k)
            self.means = self.means + jitter
        self.variances = np.full(k, spread)

    def update_emissions(self, values: np.ndarray, gamma: np.ndarray) -> None:
        """Emission M-step over the present cells ``values``."""
        weights = gamma.sum(axis=0)
        safe = np.where(weights > 0, weights, 1.0)
        means = (gamma * values[:, None]).sum(axis=0) / safe
        variances = (gamma * (values[:, None] - means) ** 2).sum(axis=0) / safe
        keep = weights <= 0
        means[keep] = self.means[keep]
        variances[keep] = self.variances[keep]
        self.means = means
        self.variances = np.maximum(variances, MIN_VARIANCE)

    def fit(
        self,
        observations,
        max_iter: int = 50,
        tol: float = 1e-4,
        seed=None,
        init: bool = True,
        transmat_prior=None,
    ) -> FitResult:
        """Baum-Welch (MAP-EM with ``transmat_prior`` pseudo-counts)."""
        observations = np.asarray(observations, dtype=float)
        k = self.n_states
        prior = np.zeros((k, k)) if transmat_prior is None else transmat_prior
        if init:
            self.init_emissions(observations, seed)
        present = ~np.isnan(observations)
        history: list[float] = []
        converged = False
        for _ in range(max_iter):
            emissions = self.emissions(observations)
            alpha, scales, log_likelihood = self.forward(emissions)
            beta = self.backward(emissions, scales)
            gamma = normalize(alpha * beta)
            xi = self.xi_sum(emissions, alpha, beta, scales)
            self.startprob = normalize(gamma[0] + PROB_FLOOR)
            self.transmat = normalize(xi + prior + PROB_FLOOR)
            self.update_emissions(observations[present], gamma[present])
            history.append(log_likelihood)
            if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
                converged = True
                break
        return FitResult(tuple(history), converged, len(history))
