"""Batched multi-claim Gaussian-HMM kernels: SSTD's one HMM.

SSTD decomposes truth discovery per claim (paper Section III-E) and
trains one 2-state Gaussian HMM per claim (Section III-C).  A per-claim
implementation pays the Python interpreter once per *timestep per claim
per EM iteration*.  This module runs the recursions over a *stack* of N
independent claim sequences at once: the time recursion stays O(T), but
each step contracts the whole ``(N, K)`` stack against the per-claim
``(N, K, K)`` transition stack, amortizing the interpreter cost across
all claims in the batch.  A single claim is the stack with ``N = 1``.

Semantics are pinned to a textbook per-sequence Gaussian HMM, kept as an
independent reference in ``tests/hmm/scalar_reference.py``:

- **Missing observations** (``NaN``) get emission likelihood 1 for every
  state, so decoding bridges them with the transition model alone.
- **Ragged stacks**: sequences of different lengths batch together.  The
  stack is NaN-padded to the longest sequence and must be sorted by
  length descending; at timestep ``t`` only the prefix of rows still
  inside their sequence participates, so padding never enters any
  recursion, and it enters a reduction only as an exact zero.
- **Per-claim convergence freezing**: Baum-Welch drops a claim out of
  the E-step the iteration its log-likelihood plateaus; the remaining
  claims keep iterating.  Each claim gets its own :class:`FitResult`.
- **Row-wise determinism**: every per-claim quantity is computed either
  elementwise or as a reduction no other row takes part in, so a claim's
  result is bit-identical no matter which batch it rides in (a shard of
  4 and a batch of 32 agree exactly).  The order-sensitive reductions of
  an EM iteration (xi sums, emission statistics) run along the time
  axis of the stack with exact-zero weights on masked cells — missing
  or padded: a non-innermost axis accumulates sequentially in ``t`` and
  ``acc + 0.0 == acc`` (``K >= 2``; at ``K = 1`` time is innermost).
  Where numpy's pairwise tree depends on the length they reduce rows
  of one length together: :func:`~repro.hmm.utils.masked_row_sums` and
  the variances of the quantile init, which takes its quantiles from
  one sort of the stack.  Nothing inside an iteration loops over rows
  (``tests/hmm/test_fit_parity.py`` and ``test_init_emissions.py`` keep
  the row loops as oracles).

The time recursions themselves (forward, backward, Viterbi, the xi
accumulation) live in :mod:`repro.hmm.kernels.numpy_ref`: time-major
working copies, a handful of allocation-free ufunc calls per step, and
on long rows time blocks that cut a forward or backward pass to about
``2 * CHUNK + T / CHUNK`` Python steps (anchored per row, so they keep
row-wise determinism).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devtools import contracts
from repro.hmm.kernels import numpy_ref
from repro.hmm.utils import (
    PROB_FLOOR,
    batch_normal_densities,
    dirichlet_log_prior,
    log_mask_zero,
    masked_row_sums,
    normalize_rows,
)
from repro.obs import get_obs

__all__ = [
    "BatchGaussianHMM",
    "FitResult",
    "HMMParams",
    "ITERATION_BUCKETS",
    "MIN_VARIANCE",
    "stack_ragged",
]

#: Variance floor preventing EM from collapsing a state onto one point.
MIN_VARIANCE = 1e-3

#: Histogram bounds for Baum-Welch iteration counts (EM converges in a
#: handful of iterations on clean data, tens on hard sequences).
ITERATION_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)


@dataclass(frozen=True, slots=True)
class FitResult:
    """Outcome of one row's Baum-Welch run."""

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
    """Report one row's Baum-Welch run to the ambient recorder (if enabled)."""
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


@dataclass(frozen=True, slots=True)
class HMMParams:
    """The trained parameters of one chain (one row of a stack).

    ``startprob`` ``(K,)``, ``transmat`` ``(K, K)``, emission ``means``
    and ``variances`` ``(K,)`` — the paper's ``pi``, ``A`` and ``B``.
    """

    startprob: np.ndarray
    transmat: np.ndarray
    means: np.ndarray
    variances: np.ndarray


def stack_ragged(
    sequences: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack 1-D sequences into a NaN-padded, length-sorted matrix.

    Returns ``(observations, lengths, order)``: ``observations[i]`` is
    ``sequences[order[i]]`` padded with NaN to the longest length,
    ``lengths[i]`` its true length, and ``order`` the stable permutation
    sorting the input by length descending (the layout
    :class:`BatchGaussianHMM` requires).  Undo with
    ``result[order[i]] -> original position``.
    """
    if not sequences:
        raise ValueError("need at least one sequence")
    arrays = [np.asarray(seq, dtype=float) for seq in sequences]
    for arr in arrays:
        if arr.ndim != 1:
            raise ValueError(f"sequences must be 1-D, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("observation sequence is empty")
    sizes = np.array([arr.shape[0] for arr in arrays])
    order = np.argsort(-sizes, kind="stable")
    t_max = int(sizes.max())
    observations = np.full((len(arrays), t_max), np.nan)
    for row, src in enumerate(order):
        observations[row, : sizes[src]] = arrays[src]
    return observations, sizes[order], order


class BatchGaussianHMM:
    """N independent K-state Gaussian HMMs advanced in lockstep.

    Parameters are stacked per sequence: ``startprob`` is ``(N, K)``,
    ``transmat`` ``(N, K, K)``, ``means`` / ``variances`` ``(N, K)``.
    Scalars-per-model inputs (a single ``(K,)`` / ``(K, K)``) broadcast
    to every row, which is how SSTD seeds all claims with the same
    sticky prior before EM specialises them.

    Observations are ``(N, T)`` stacks; pass ``lengths`` (sorted
    descending) for ragged stacks, else every row spans the full T.
    """

    def __init__(
        self,
        n_seqs: int,
        n_states: int = 2,
        startprob: np.ndarray | None = None,
        transmat: np.ndarray | None = None,
        means: np.ndarray | None = None,
        variances: np.ndarray | None = None,
    ) -> None:
        if n_seqs < 1:
            raise ValueError(f"n_seqs must be >= 1, got {n_seqs}")
        if n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {n_states}")
        self.n_seqs = n_seqs
        self.n_states = n_states
        if startprob is None:
            startprob = np.full(n_states, 1.0 / n_states)
        if transmat is None:
            transmat = np.full((n_states, n_states), 1.0 / n_states)
        self.startprob = self._stack_param(startprob, (n_states,), "startprob")
        self.transmat = self._stack_param(
            transmat, (n_states, n_states), "transmat"
        )
        for name, value in (
            ("startprob", self.startprob),
            ("transmat", self.transmat),
        ):
            if (value < 0).any():
                raise ValueError(f"{name} must be non-negative")
            # Written so that a NaN sum fails the check too.
            if not (np.abs(value.sum(axis=-1) - 1.0) <= 1e-6).all():
                raise ValueError(f"{name} rows must sum to 1")
        if means is None:
            means = np.zeros(n_states)
        if variances is None:
            variances = np.ones(n_states)
        self.means = self._stack_param(means, (n_states,), "means")
        self.variances = self._stack_param(variances, (n_states,), "variances")
        if (self.variances <= 0).any():
            raise ValueError("variances must be strictly positive")

    def _stack_param(
        self, value: np.ndarray, row_shape: tuple[int, ...], name: str
    ) -> np.ndarray:
        """Broadcast a shared parameter to all rows, or validate a stack."""
        value = np.asarray(value, dtype=float)
        if value.shape == row_shape:
            return np.tile(value, (self.n_seqs,) + (1,) * len(row_shape))
        if value.shape == (self.n_seqs,) + row_shape:
            return value.copy()
        raise ValueError(
            f"{name} must have shape {row_shape} or "
            f"{(self.n_seqs,) + row_shape}, got {value.shape}"
        )

    # ------------------------------------------------------------------
    # Observation plumbing
    # ------------------------------------------------------------------
    def _validate(
        self, observations: np.ndarray, lengths: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        observations = np.asarray(observations, dtype=float)
        if observations.ndim != 2:
            raise ValueError(
                f"observations must be (N, T), got shape {observations.shape}"
            )
        if observations.shape[0] != self.n_seqs:
            raise ValueError(
                f"expected {self.n_seqs} rows, got {observations.shape[0]}"
            )
        if observations.shape[1] == 0:
            raise ValueError("observation sequences are empty")
        if np.isinf(observations).any():
            raise ValueError("observations must not be infinite")
        if lengths is None:
            lengths = np.full(self.n_seqs, observations.shape[1], dtype=int)
        else:
            lengths = np.asarray(lengths, dtype=int)
            if lengths.shape != (self.n_seqs,):
                raise ValueError(
                    f"lengths must have shape ({self.n_seqs},), "
                    f"got {lengths.shape}"
                )
            if (lengths < 1).any() or (lengths > observations.shape[1]).any():
                raise ValueError("lengths must be in [1, T]")
            if (np.diff(lengths) > 0).any():
                raise ValueError(
                    "rows must be sorted by length descending "
                    "(see stack_ragged)"
                )
        return observations, lengths

    def emission_probabilities(self, observations: np.ndarray) -> np.ndarray:
        """Emission stack ``(N, T, K)``; NaN rows get likelihood 1."""
        observations = np.asarray(observations, dtype=float)
        missing = np.isnan(observations)
        filled = np.where(missing, 0.0, observations)
        densities = batch_normal_densities(filled, self.means, self.variances)
        densities[missing] = 1.0
        return densities

    # ------------------------------------------------------------------
    # Inference kernels
    # ------------------------------------------------------------------
    def forward(
        self,
        emissions: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scaled forward pass over the stack.

        Returns ``(alpha, scales, log_likelihoods)``; padded cells hold
        the neutral values ``1/K`` / ``1.0`` and are never read by the
        recursions.  Log-likelihoods are summed per row over the row's
        own slice (:func:`~repro.hmm.utils.masked_row_sums` groups rows
        of equal length into one vectorized reduction), so a row's value
        does not depend on the batch it rides in.
        """
        alpha, scales = numpy_ref.forward(
            self.startprob, self.transmat, emissions, lengths
        )
        log_likelihoods = masked_row_sums(log_mask_zero(scales), lengths)
        return alpha, scales, log_likelihoods

    def filter_step(
        self, alpha: np.ndarray, observations: np.ndarray
    ) -> np.ndarray:
        """Advance N independent forward filters by one observation each.

        ``alpha`` is the ``(N, K)`` stack of current filter vectors and
        ``observations`` the ``(N,)`` newest value per row (NaN =
        missing); returns the next normalized ``(N, K)`` stack.  This is
        :meth:`forward`'s own time step — same contraction, same per-row
        normalization, a row whose total is not positive restarting from
        the uniform vector.
        """
        observations = np.asarray(observations, dtype=float)
        emissions = self.emission_probabilities(observations[:, None])[:, 0, :]
        stepped = normalize_rows(
            np.einsum("nk,nkj->nj", alpha, self.transmat) * emissions
        )
        contracts.assert_probability_simplex(
            stepped, "batch forward filter step"
        )
        return stepped

    def backward(
        self,
        emissions: np.ndarray,
        scales: np.ndarray,
        lengths: np.ndarray,
    ) -> np.ndarray:
        """Scaled backward pass matching :meth:`forward`'s scaling."""
        return numpy_ref.backward(self.transmat, emissions, scales, lengths)

    def viterbi(
        self,
        emissions: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched log-space Viterbi.

        Returns ``(states, log_joints)``: ``states[n, :lengths[n]]`` is
        row n's most probable hidden path (padding is 0) and
        ``log_joints[n]`` its joint log-probability.

        The log transforms stay here (``repro.hmm.utils`` is the
        sanctioned home for them); the kernel sees log-space inputs.
        """
        log_emissions = log_mask_zero(np.maximum(emissions, 0.0))
        log_trans = log_mask_zero(self.transmat)
        log_start = log_mask_zero(self.startprob)
        return numpy_ref.viterbi(log_start, log_trans, log_emissions, lengths)

    def state_posteriors(
        self,
        observations: np.ndarray,
        lengths: np.ndarray | None = None,
        emissions: np.ndarray | None = None,
    ) -> np.ndarray:
        """Posterior stack ``P(state_t = i | row n)``, shape ``(N, T, K)``."""
        observations, lengths = self._validate(observations, lengths)
        if emissions is None:
            emissions = self.emission_probabilities(observations)
        alpha, scales, _ = self.forward(emissions, lengths)
        beta = self.backward(emissions, scales, lengths)
        return normalize_rows(alpha * beta)

    def params(self, row: int) -> HMMParams:
        """Row ``row``'s parameters (views into the stack, not copies)."""
        return HMMParams(
            startprob=self.startprob[row],
            transmat=self.transmat[row],
            means=self.means[row],
            variances=self.variances[row],
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _init_emissions(
        self, observations: np.ndarray, lengths: np.ndarray, seed
    ) -> None:
        """Quantile initialisation of the whole stack, in one pass.

        Means spread over each row's observation quantiles (deterministic
        given the data, and ordered by mean); a row with (near-)zero
        spread gets unit variance and a small jitter from
        ``default_rng(seed)``, re-created per row so a claim's init does
        not depend on the batch it rides in.

        Bit-identical to ``np.quantile`` and ``np.var`` of each row's
        present values: the quantiles gather from one sort of the stack
        and interpolate with numpy's own formula, and the variances
        reduce rows of one present count together, so each row's
        pairwise sum runs over exactly its values in their order.
        """
        inside = np.arange(observations.shape[1]) < lengths[:, None]
        present = inside & ~np.isnan(observations)
        counts = present.sum(axis=1)
        if (counts == 0).any():
            raise ValueError("cannot initialize from all-missing observations")

        # np.quantile's "linear" method: virtual index (n - 1) * q, and
        # numpy's lerp, which interpolates from the upper neighbour when
        # the weight is at least one half.
        quantiles = np.linspace(0.0, 1.0, self.n_states + 2)[1:-1]
        ordered = np.sort(np.where(present, observations, np.nan), axis=1)
        last = (counts - 1)[:, None]
        virtual = last * quantiles
        below = np.floor(virtual)
        weight = virtual - below
        lower = np.minimum(below.astype(np.intp), last)
        upper = np.minimum(lower + 1, last)
        a = np.take_along_axis(ordered, lower, axis=1)
        b = np.take_along_axis(ordered, upper, axis=1)
        step = b - a
        means = np.where(
            weight >= 0.5, b - step * (1 - weight), a + step * weight
        )

        # Present values moved to the front of each row, order kept.
        compact = np.take_along_axis(
            observations, np.argsort(~present, axis=1, kind="stable"), axis=1
        )
        spread = np.empty(self.n_seqs)
        for count in np.unique(counts).tolist():
            group = counts == count
            spread[group] = np.var(compact[group, :count], axis=1)

        for row in np.flatnonzero(spread < MIN_VARIANCE).tolist():
            spread[row] = 1.0
            rng = np.random.default_rng(seed)
            means[row] += rng.normal(0.0, 0.1, size=self.n_states)
        self.means[:] = means
        self.variances[:] = np.maximum(spread, MIN_VARIANCE)[:, None]

    def _update_emissions(
        self,
        gamma: np.ndarray,
        values: np.ndarray,
        masked: np.ndarray,
        scratch: np.ndarray,
    ) -> None:
        """Emission M-step of every row: posterior-weighted means and
        variances over the present cells, floored at ``MIN_VARIANCE``.

        ``gamma`` is zeroed in place on the ``masked`` (missing or
        padded) cells, where ``values`` holds 0.0, so the time-axis sums
        serve every row (module docstring); ``scratch`` is a reusable
        ``(N, T, K)`` buffer.
        """
        gamma[masked] = 0.0
        weights = gamma.sum(axis=1)
        safe = np.where(weights > 0, weights, 1.0)
        cells = values[:, :, None]
        np.multiply(gamma, cells, out=scratch)
        means = scratch.sum(axis=1) / safe
        np.subtract(cells, means[:, None, :], out=scratch)
        np.square(scratch, out=scratch)
        np.multiply(gamma, scratch, out=scratch)
        variances = scratch.sum(axis=1) / safe
        # States with no posterior mass (every state of a row with no
        # present cell) keep their previous parameters.
        keep = weights <= 0
        means[keep] = self.means[keep]
        variances[keep] = self.variances[keep]
        self.means = means
        self.variances = np.maximum(variances, MIN_VARIANCE)

    def _check_contracts(self, where: str) -> None:
        contracts.assert_probability_simplex(
            self.startprob, f"batch startprob ({where})"
        )
        contracts.assert_probability_simplex(
            self.transmat, f"batch transmat ({where})"
        )
        contracts.assert_finite(self.means, f"batch means ({where})")
        contracts.assert_finite(self.variances, f"batch variances ({where})")

    def fit(
        self,
        observations: np.ndarray,
        lengths: np.ndarray | None = None,
        max_iter: int = 50,
        tol: float = 1e-4,
        seed=None,
        init: bool = True,
        transmat_prior: np.ndarray | None = None,
    ) -> list[FitResult]:
        """Baum-Welch over the stack with per-row convergence freezing.

        Each row trains its own chain; a row whose log-likelihood
        improvement drops below ``tol`` is frozen (its parameters stop
        updating, it leaves the E-step) while the rest keep iterating,
        exactly as N separate ``N = 1`` fits would.

        ``transmat_prior`` holds non-negative pseudo-counts, ``(K, K)``
        for every row or ``(N, K, K)`` per row, of a Dirichlet prior on
        the rows of each ``A``; the transition M-step adds them to the
        expected transition counts (MAP-EM, which never lowers
        ``log-likelihood + sum prior * log A``).  None is plain EM.
        """
        observations, lengths = self._validate(observations, lengths)
        k = self.n_states
        if transmat_prior is None:
            transmat_prior = np.zeros((k, k))
        prior = self._stack_param(transmat_prior, (k, k), "transmat_prior")
        if not (prior >= 0).all():
            raise ValueError("transmat_prior must be non-negative")
        if init:
            self._init_emissions(observations, lengths, seed)

        # history[i, row]: log-likelihood row entered iteration i with.
        history = np.zeros((max_iter, self.n_seqs))
        iterations = np.zeros(self.n_seqs, dtype=int)
        converged = np.zeros(self.n_seqs, dtype=bool)
        active = np.arange(self.n_seqs)
        model = None
        objective = np.full(self.n_seqs, -np.inf)
        for iteration in range(max_iter):
            self._check_contracts("Baum-Welch E-step")
            if model is None or model.n_seqs != active.size:
                # Whatever depends only on *which* rows iterate is
                # rebuilt when rows freeze, not per iteration.
                model = BatchGaussianHMM(
                    active.size,
                    self.n_states,
                    startprob=self.startprob[active],
                    transmat=self.transmat[active],
                    means=self.means[active],
                    variances=self.variances[active],
                )
                len_a = lengths[active]
                t_max = int(len_a[0])
                obs_a = observations[active][:, :t_max]
                masked = np.isnan(obs_a) | (np.arange(t_max) >= len_a[:, None])
                values = np.where(masked, 0.0, obs_a)
                scratch = np.empty((active.size, t_max, self.n_states))
                prior_a = prior[active]
            emissions = model.emission_probabilities(obs_a)
            alpha, scales, log_likelihoods = model.forward(emissions, len_a)
            if contracts.contracts_enabled():
                # (MAP-)EM never lowers the objective a row enters an
                # iteration with.
                entered = log_likelihoods + dirichlet_log_prior(
                    model.transmat, prior_a
                )
                contracts.assert_non_decreasing(
                    objective[active], entered, "batch Baum-Welch objective"
                )
                objective[active] = entered
            beta = model.backward(emissions, scales, len_a)
            gamma = normalize_rows(alpha * beta)
            xi_sum = numpy_ref.estep_xi_sum(
                model.transmat, emissions, alpha, beta, scales, len_a
            )

            # M-step, every quantity one operation over the active stack.
            model.startprob = normalize_rows(gamma[:, 0, :] + PROB_FLOOR)
            model.transmat = normalize_rows(xi_sum + prior_a + PROB_FLOOR)
            model._update_emissions(gamma, values, masked, scratch)
            self.startprob[active] = model.startprob
            self.transmat[active] = model.transmat
            self.means[active] = model.means
            self.variances[active] = model.variances

            history[iteration, active] = log_likelihoods
            iterations[active] += 1
            if iteration > 0:
                previous = history[iteration - 1, active]
                plateau = np.abs(log_likelihoods - previous) < tol
                converged[active[plateau]] = True
                active = active[~plateau]
                if active.size == 0:
                    break
        self._check_contracts("Baum-Welch M-step")
        results = [
            FitResult(
                log_likelihoods=tuple(history[:count, row].tolist()),
                converged=bool(converged[row]),
                iterations=count,
            )
            for row, count in enumerate(iterations.tolist())
        ]
        for result in results:
            _record_fit(result)
        return results
