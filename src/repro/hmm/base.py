"""Hidden Markov Model core: scaled forward-backward, Viterbi, Baum-Welch.

This is the inference substrate for SSTD's dynamic truth discovery (paper
Section III).  The implementation follows Rabiner's classic tutorial:

- the *forward-backward* recursions use per-step scaling so sequences of
  tens of thousands of observations do not underflow;
- *Viterbi* runs in log space (Eq. (7)-(8) of the paper);
- *Baum-Welch* is the unsupervised EM procedure the paper cites (Baum
  1970) for Eq. (5); emission updates are delegated to subclasses so the
  same loop trains discrete and Gaussian emission models.

Subclasses implement :meth:`_emission_probabilities` (B matrix evaluated
on a concrete observation sequence) and :meth:`_update_emissions` (M-step
for the emission parameters).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.devtools import contracts
from repro.obs import get_obs
from repro.hmm.utils import (
    PROB_FLOOR,
    dirichlet_log_prior,
    log_mask_zero,
    normalize_rows,
    normalize_vector,
    validate_distribution,
    validate_stochastic_matrix,
)

__all__ = ["BaseHMM", "FitResult", "ITERATION_BUCKETS"]

#: Histogram bounds for Baum-Welch iteration counts (EM converges in a
#: handful of iterations on clean data, tens on hard sequences).
ITERATION_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


@dataclass(frozen=True, slots=True)
class FitResult:
    """Outcome of a Baum-Welch run."""

    log_likelihoods: tuple[float, ...]
    converged: bool
    iterations: int

    @property
    def final_log_likelihood(self) -> float:
        return self.log_likelihoods[-1]

    @property
    def convergence_reason(self) -> str:
        """``"tol"`` (log-likelihood plateaued) or ``"max_iter"``."""
        return "tol" if self.converged else "max_iter"


def _record_fit(result: FitResult) -> None:
    """Report one Baum-Welch run to the ambient recorder (if enabled)."""
    obs = get_obs()
    if not obs.enabled:
        return
    obs.metrics.inc("hmm.fits")
    obs.metrics.inc(
        "hmm.converged" if result.converged else "hmm.hit_max_iter"
    )
    obs.metrics.observe(
        "hmm.bw.iterations",
        float(result.iterations),
        bounds=ITERATION_BUCKETS,
    )
    obs.tracer.instant(
        "hmm.fit",
        track="hmm",
        iterations=result.iterations,
        reason=result.convergence_reason,
        log_likelihood=(
            round(result.final_log_likelihood, 6)
            if result.log_likelihoods
            else 0.0
        ),
    )


class BaseHMM(abc.ABC):
    """Abstract HMM over ``n_states`` hidden states.

    Parameters (paper Section III-C): transition matrix ``A``
    (``transmat``), initial distribution ``pi`` (``startprob``), and the
    emission model ``B`` supplied by the subclass.
    """

    def __init__(
        self,
        n_states: int,
        startprob: np.ndarray | None = None,
        transmat: np.ndarray | None = None,
    ) -> None:
        if n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {n_states}")
        self.n_states = n_states
        if startprob is None:
            startprob = np.full(n_states, 1.0 / n_states)
        if transmat is None:
            transmat = np.full((n_states, n_states), 1.0 / n_states)
        self.startprob = validate_distribution(startprob, "startprob")
        self.transmat = validate_stochastic_matrix(transmat, "transmat")
        if self.startprob.size != n_states or self.transmat.shape[0] != n_states:
            raise ValueError("parameter shapes do not match n_states")

    # ------------------------------------------------------------------
    # Emission interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _emission_probabilities(self, observations: np.ndarray) -> np.ndarray:
        """Emission likelihoods, shape ``(T, n_states)``.

        Entry ``[t, i]`` is ``P(obs[t] | state i)`` — the ``b_{u,i,t}`` of
        the paper.  May contain densities > 1 for continuous emissions.
        """

    @abc.abstractmethod
    def _update_emissions(
        self, observations: np.ndarray, gamma: np.ndarray
    ) -> None:
        """M-step for the emission parameters given state posteriors."""

    @abc.abstractmethod
    def _init_emissions(
        self, observations: np.ndarray, rng: np.random.Generator
    ) -> None:
        """Initialize emission parameters from data before EM."""

    def _validate_observations(self, observations: np.ndarray) -> np.ndarray:
        observations = np.asarray(observations)
        if observations.shape[0] == 0:
            raise ValueError("observation sequence is empty")
        return observations

    def _check_chain_contracts(self, where: str) -> None:
        """Runtime contracts on the Markov-chain parameters.

        Called at the E-step entry and after the final M-step of
        Baum-Welch so a corrupted ``startprob`` / ``transmat`` fails at
        the update that broke it (no-op unless contracts are enabled).
        """
        contracts.assert_probability_simplex(
            self.startprob, f"startprob ({where})"
        )
        contracts.assert_stochastic_matrix(self.transmat, f"transmat ({where})")

    def _transition_prior(self, prior: np.ndarray | None) -> np.ndarray:
        """Validated ``(K, K)`` transition pseudo-counts; None is no prior."""
        shape = (self.n_states, self.n_states)
        if prior is None:
            return np.zeros(shape)
        prior = np.asarray(prior, dtype=float)
        if prior.shape != shape:
            raise ValueError(
                f"transmat_prior must have shape {shape}, got {prior.shape}"
            )
        if not (prior >= 0).all():
            raise ValueError("transmat_prior must be non-negative")
        return prior

    def _ascent_contract(
        self, previous: float, logprob: float, prior: np.ndarray
    ) -> float:
        """Hold an EM iteration to its promise (contracts on only).

        Returns the MAP objective ``log P(O | model) + sum prior * log A``
        of the parameters this iteration was entered with, after checking
        it against the ``previous`` iteration's: (MAP-)EM never lowers it.
        """
        if not contracts.contracts_enabled():
            return previous
        objective = logprob + dirichlet_log_prior(self.transmat, prior)
        contracts.assert_non_decreasing(
            previous, objective, "Baum-Welch objective"
        )
        return objective

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _forward(
        self, emissions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Scaled forward pass.

        Returns ``(alpha, scales, log_likelihood)`` where ``alpha[t]`` is
        the scaled forward vector and ``scales[t]`` the per-step
        normalizer; ``sum(log(scales))`` is the sequence log-likelihood.
        """
        length = emissions.shape[0]
        alpha = np.empty((length, self.n_states))
        scales = np.empty(length)
        alpha[0] = self.startprob * emissions[0]
        scales[0] = alpha[0].sum()
        if scales[0] == 0:
            # Impossible first observation under the model; floor so the
            # recursion can continue (log-likelihood becomes very small).
            alpha[0] = np.full(self.n_states, 1.0 / self.n_states)
            scales[0] = PROB_FLOOR
        else:
            alpha[0] /= scales[0]
        for t in range(1, length):
            alpha[t] = (alpha[t - 1] @ self.transmat) * emissions[t]
            scales[t] = alpha[t].sum()
            if scales[t] == 0:
                alpha[t] = np.full(self.n_states, 1.0 / self.n_states)
                scales[t] = PROB_FLOOR
            else:
                alpha[t] /= scales[t]
        return alpha, scales, float(log_mask_zero(scales).sum())

    def _backward(self, emissions: np.ndarray, scales: np.ndarray) -> np.ndarray:
        """Scaled backward pass matching :meth:`_forward`'s scaling."""
        length = emissions.shape[0]
        beta = np.empty((length, self.n_states))
        beta[-1] = 1.0
        for t in range(length - 2, -1, -1):
            beta[t] = self.transmat @ (emissions[t + 1] * beta[t + 1])
            beta[t] /= scales[t + 1]
        return beta

    def _xi_sum(
        self,
        emissions: np.ndarray,
        alpha: np.ndarray,
        beta: np.ndarray,
        scales: np.ndarray,
    ) -> np.ndarray:
        """Expected transition counts ``sum_t xi_t(i, j)``, shape ``(K, K)``.

        ``xi_t(i, j) = alpha_t(i) A_ij b_j(o_{t+1}) beta_{t+1}(j) /
        c_{t+1}``: the scaled ``alpha_t`` is short of the joint by
        ``c_1..c_t`` and the scaled ``beta_{t+1}`` by ``c_{t+2}..c_T``, so
        the bare product is ``c_{t+1}`` times the posterior.
        """
        if emissions.shape[0] < 2:
            return np.zeros((self.n_states, self.n_states))
        xi = (
            alpha[:-1, :, None]
            * self.transmat[None, :, :]
            * ((emissions[1:] * beta[1:]) / scales[1:, None])[:, None, :]
        )
        return xi.sum(axis=0)

    def log_likelihood(
        self,
        observations: np.ndarray,
        emissions: np.ndarray | None = None,
    ) -> float:
        """Log P(observations | model).

        ``emissions`` lets a caller that already evaluated the emission
        matrix (one ``_emission_probabilities`` call feeds decode,
        posteriors, and scoring) pass it in instead of recomputing it.
        """
        observations = self._validate_observations(observations)
        if emissions is None:
            emissions = self._emission_probabilities(observations)
        _, _, logprob = self._forward(emissions)
        return logprob

    def state_posteriors(
        self,
        observations: np.ndarray,
        emissions: np.ndarray | None = None,
    ) -> np.ndarray:
        """Posterior P(state_t = i | observations), shape ``(T, n)``."""
        observations = self._validate_observations(observations)
        if emissions is None:
            emissions = self._emission_probabilities(observations)
        alpha, scales, _ = self._forward(emissions)
        beta = self._backward(emissions, scales)
        gamma = alpha * beta
        return normalize_rows(gamma)

    def decode(
        self,
        observations: np.ndarray,
        emissions: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float]:
        """Viterbi decoding (paper Eq. (6)-(8)).

        Returns ``(states, log_joint)``: the most probable hidden-state
        sequence and its joint log-probability with the observations.
        """
        observations = self._validate_observations(observations)
        if emissions is None:
            emissions = self._emission_probabilities(observations)
        log_emissions = log_mask_zero(np.maximum(emissions, 0.0))
        log_trans = log_mask_zero(self.transmat)
        log_start = log_mask_zero(self.startprob)
        length = emissions.shape[0]

        delta = np.empty((length, self.n_states))
        backpointer = np.zeros((length, self.n_states), dtype=int)
        delta[0] = log_start + log_emissions[0]
        for t in range(1, length):
            # candidates[i, j] = delta[t-1, i] + log A[i, j]
            candidates = delta[t - 1][:, None] + log_trans
            backpointer[t] = np.argmax(candidates, axis=0)
            delta[t] = candidates[backpointer[t], np.arange(self.n_states)]
            delta[t] += log_emissions[t]

        states = np.empty(length, dtype=int)
        states[-1] = int(np.argmax(delta[-1]))
        for t in range(length - 2, -1, -1):
            states[t] = backpointer[t + 1, states[t + 1]]
        return states, float(delta[-1, states[-1]])

    def filter_states(
        self,
        observations: np.ndarray,
        emissions: np.ndarray | None = None,
    ) -> np.ndarray:
        """Online (filtering) state estimates: argmax_i alpha_t(i).

        Unlike Viterbi this uses only observations up to ``t`` for the
        estimate at ``t``, which is what a streaming deployment reports
        before the sequence is complete.
        """
        observations = self._validate_observations(observations)
        if emissions is None:
            emissions = self._emission_probabilities(observations)
        alpha, _, _ = self._forward(emissions)
        return np.argmax(alpha, axis=1)

    # ------------------------------------------------------------------
    # Training (Baum-Welch)
    # ------------------------------------------------------------------
    def fit(
        self,
        observations: np.ndarray,
        max_iter: int = 50,
        tol: float = 1e-4,
        rng: np.random.Generator | int | None = None,
        init: bool = True,
        transmat_prior: np.ndarray | None = None,
    ) -> FitResult:
        """Unsupervised EM training on a single observation sequence.

        Args:
            observations: The sequence ``F(u)`` (paper Eq. (5)).
            max_iter: Maximum EM iterations.
            tol: Convergence threshold on the log-likelihood improvement.
            rng: Seed or generator for emission initialization.
            init: When False, EM starts from the current parameters
                (useful for incremental re-training on streams).
            transmat_prior: ``(K, K)`` non-negative pseudo-counts of a
                Dirichlet prior on each row of ``A``, added to the
                expected transition counts in the M-step (MAP-EM: the
                quantity that never decreases is then the log-likelihood
                plus ``sum prior * log A``).  None is plain EM.

        Returns:
            A :class:`FitResult` with the log-likelihood trajectory.
        """
        observations = self._validate_observations(observations)
        prior = self._transition_prior(transmat_prior)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if init:
            self._init_emissions(observations, rng)

        history: list[float] = []
        converged = False
        objective = -np.inf
        for _ in range(max_iter):
            self._check_chain_contracts("Baum-Welch E-step")
            emissions = self._emission_probabilities(observations)
            alpha, scales, logprob = self._forward(emissions)
            objective = self._ascent_contract(objective, logprob, prior)
            beta = self._backward(emissions, scales)
            gamma = normalize_rows(alpha * beta)
            xi_sum = self._xi_sum(emissions, alpha, beta, scales)

            # M-step
            self.startprob = normalize_vector(gamma[0] + PROB_FLOOR)
            self.transmat = normalize_rows(xi_sum + prior + PROB_FLOOR)
            self._update_emissions(observations, gamma)

            history.append(logprob)
            if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
                converged = True
                break
        self._check_chain_contracts("Baum-Welch M-step")
        result = FitResult(
            log_likelihoods=tuple(history),
            converged=converged,
            iterations=len(history),
        )
        _record_fit(result)
        return result

    def fit_sequences(
        self,
        sequences: list[np.ndarray],
        max_iter: int = 50,
        tol: float = 1e-4,
        rng: np.random.Generator | int | None = None,
        init: bool = True,
        transmat_prior: np.ndarray | None = None,
    ) -> FitResult:
        """Baum-Welch over multiple independent observation sequences.

        The E-step statistics (initial-state counts, transition counts,
        emission sufficient statistics) accumulate across sequences;
        the M-step is shared.  Used to train one truth-dynamics model
        across many claims of the same event class.  ``transmat_prior``
        as in :meth:`fit`.
        """
        if not sequences:
            raise ValueError("need at least one sequence")
        validated = [self._validate_observations(obs) for obs in sequences]
        prior = self._transition_prior(transmat_prior)
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if init:
            self._init_emissions(np.concatenate(validated), rng)

        history: list[float] = []
        converged = False
        objective = -np.inf
        for _ in range(max_iter):
            self._check_chain_contracts("Baum-Welch E-step")
            start_acc = np.zeros(self.n_states)
            xi_acc = np.zeros((self.n_states, self.n_states))
            gammas: list[np.ndarray] = []
            total_logprob = 0.0
            for observations in validated:
                emissions = self._emission_probabilities(observations)
                alpha, scales, logprob = self._forward(emissions)
                beta = self._backward(emissions, scales)
                gamma = normalize_rows(alpha * beta)
                total_logprob += logprob
                start_acc += gamma[0]
                xi_acc += self._xi_sum(emissions, alpha, beta, scales)
                gammas.append(gamma)

            objective = self._ascent_contract(objective, total_logprob, prior)
            self.startprob = normalize_vector(start_acc + PROB_FLOOR)
            self.transmat = normalize_rows(xi_acc + prior + PROB_FLOOR)
            # Emission M-step over the concatenated statistics: rows are
            # independent in both emission families, so concatenation is
            # exact.
            self._update_emissions(
                np.concatenate(validated), np.concatenate(gammas, axis=0)
            )

            history.append(total_logprob)
            if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
                converged = True
                break
        self._check_chain_contracts("Baum-Welch M-step")
        result = FitResult(
            log_likelihoods=tuple(history),
            converged=converged,
            iterations=len(history),
        )
        _record_fit(result)
        return result

    def sample(
        self, length: int, rng: np.random.Generator | int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate ``(states, observations)`` from the model."""
        if length < 1:
            raise ValueError(f"length must be >= 1, got {length}")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        states = np.empty(length, dtype=int)
        states[0] = rng.choice(self.n_states, p=self.startprob)
        for t in range(1, length):
            states[t] = rng.choice(self.n_states, p=self.transmat[states[t - 1]])
        observations = self._sample_emissions(states, rng)
        return states, observations

    @abc.abstractmethod
    def _sample_emissions(
        self, states: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one observation per hidden state in ``states``."""
