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
  or padded: a reduced axis that is not the innermost one accumulates
  sequentially in ``t`` and ``acc + 0.0 == acc``.  Where numpy's
  pairwise tree depends on the length they reduce rows of one length
  together: :func:`~repro.hmm.utils.masked_row_sums` and the variances
  of the quantile init, which takes its quantiles from one sort of the
  stack.  Nothing inside an iteration loops over rows
  (``tests/hmm/test_fit_parity.py`` and ``test_init_emissions.py`` keep
  the row loops as oracles).

``fit`` and :meth:`BatchGaussianHMM.decode` run end to end in the
time-major layout of the recursions in :mod:`repro.hmm.kernels.numpy_ref`:
one set of ``(T, K, N)`` stacks per set of active rows, overwritten
every iteration, and reductions along axis 0 that accumulate in ``t``
as the old ``(N, T, K)`` ones did along axis 1, so every row keeps its
bits (``K <= 7``; at ``K = 1`` the old time axis was innermost and
summed pairwise).  Only the edges transpose: observations in, paths and
confidences out, and the public ``(N, T, K)`` methods around the ops.
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


def _time_major(stack: np.ndarray) -> np.ndarray:
    """``(N, T, K)`` / ``(N, T)`` stack as a time-major view."""
    return np.moveaxis(np.asarray(stack, dtype=float), 0, -1)


def _rows_first(stack: np.ndarray) -> np.ndarray:
    """Time-major stack back to a contiguous ``(N, T, K)`` / ``(N, T)``."""
    return np.ascontiguousarray(np.moveaxis(stack, -1, 0))


def _log_likelihoods(scales: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per-row log-likelihoods of time-major scales (own slices only)."""
    return masked_row_sums(log_mask_zero(_rows_first(scales)), lengths)


class _EStep:
    """The E-step of one set of rows and its time-major stacks, which
    span :func:`numpy_ref.work_steps` timesteps and are overwritten by
    every :meth:`run`; cells past a row's end are masked like missing
    ones."""

    def __init__(self, observations, lengths, n_states: int) -> None:
        n_seqs, t_max = observations.shape
        self.lengths = lengths
        self.layout = numpy_ref.Layout(lengths, t_max)
        steps = self.layout.steps
        cells = np.full((steps, n_seqs), np.nan)
        cells[:t_max] = observations.T
        self.masked = np.isnan(cells) | self.layout.padded
        self.values = np.where(self.masked, 0.0, cells)
        self.scales = np.empty((steps, n_seqs))
        self.emissions, self.alpha, self.beta, self.gamma = np.empty(
            (4, steps, n_states, n_seqs)
        )

    def run(self, startprob, transmat, means, variances) -> np.ndarray:
        """Emissions, forward, backward, posteriors; the log-likelihoods."""
        emissions = self.emissions
        batch_normal_densities(self.values, means, variances, out=emissions)
        np.copyto(emissions, 1.0, where=self.masked[:, None, :])
        out = self.alpha, self.scales, self.beta
        numpy_ref.forward_backward(
            startprob, transmat, emissions, self.layout, out
        )
        np.multiply(self.alpha, self.beta, out=self.gamma)
        normalize_rows(self.gamma, axis=1, out=self.gamma)
        return _log_likelihoods(self.scales, self.lengths)

    def update_emissions(self, means, variances):
        """Emission M-step: posterior-weighted ``(N, K)`` means and
        variances over the present cells, floored at ``MIN_VARIANCE``.
        ``gamma`` is zeroed on masked cells (``values`` is 0.0 there) for
        the axis-0 sums; ``beta``, spent after the xi sums, is scratch."""
        gamma, scratch = self.gamma, self.beta
        np.copyto(gamma, 0.0, where=self.masked[:, None, :])
        weights = gamma.sum(axis=0)
        safe = np.where(weights > 0, weights, 1.0)
        cells = self.values[:, None, :]
        np.multiply(gamma, cells, out=scratch)
        new_means = scratch.sum(axis=0) / safe
        np.subtract(cells, new_means, out=scratch)
        np.square(scratch, out=scratch)
        np.multiply(gamma, scratch, out=scratch)
        new_variances = scratch.sum(axis=0) / safe
        # States with no posterior mass (every state of a row with no
        # present cell) keep their previous parameters.
        keep = weights <= 0
        new_means[keep] = means.T[keep]
        new_variances[keep] = variances.T[keep]
        return new_means.T, np.maximum(new_variances, MIN_VARIANCE).T


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
        """Emission stack ``(N, T, K)``; NaN cells get likelihood 1."""
        values = _time_major(observations)
        missing = np.isnan(values)
        densities = batch_normal_densities(
            np.where(missing, 0.0, values), self.means, self.variances
        )
        np.copyto(densities, 1.0, where=missing[:, None, :])
        return _rows_first(densities)

    # ------------------------------------------------------------------
    # Inference kernels (``(N, T, K)`` adapters)
    # ------------------------------------------------------------------
    def forward(
        self,
        emissions: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scaled forward pass: ``(alpha, scales, log_likelihoods)``;
        padded cells hold the neutral values ``1/K`` / ``1.0``."""
        alpha, scales = numpy_ref.forward(
            self.startprob, self.transmat, _time_major(emissions), lengths
        )
        log_likelihoods = _log_likelihoods(scales, lengths)
        return _rows_first(alpha), _rows_first(scales), log_likelihoods

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
        beta = numpy_ref.backward(
            self.transmat, _time_major(emissions), _time_major(scales), lengths
        )
        return _rows_first(beta)

    def viterbi(
        self,
        emissions: np.ndarray,
        lengths: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched log-space Viterbi: ``(states, log_joints)``, row n's
        most probable path ``states[n, :lengths[n]]`` (padding is 0) and
        its joint log-probability.  The log transforms stay here; the
        kernel sees log-space inputs."""
        states, log_joints = numpy_ref.viterbi(
            log_mask_zero(self.startprob),
            log_mask_zero(self.transmat),
            log_mask_zero(np.maximum(_time_major(emissions), 0.0)),
            lengths,
        )
        return _rows_first(states), log_joints

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

    def decode(
        self, observations: np.ndarray, lengths: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Viterbi paths ``(N, T)``, the posterior of each decoded state
        ``(N, T)`` and each row's last scaled forward row ``(N, K)``
        (where a streaming filter resumes), from one time-major E-step.
        """
        observations, lengths = self._validate(observations, lengths)
        t_max = observations.shape[1]
        estep = _EStep(observations, lengths, self.n_states)
        estep.run(self.startprob, self.transmat, self.means, self.variances)
        contracts.assert_probability_simplex(
            estep.gamma.transpose(0, 2, 1), "batch state posteriors"
        )
        states, _ = numpy_ref.viterbi(
            log_mask_zero(self.startprob),
            log_mask_zero(self.transmat),
            log_mask_zero(estep.emissions),
            lengths,
        )
        posterior = np.take_along_axis(estep.gamma, states[:, None], axis=1)
        filter_states = estep.alpha[lengths - 1, :, np.arange(self.n_seqs)]
        states, posterior = states[:t_max], posterior[:t_max, 0]
        return _rows_first(states), _rows_first(posterior), filter_states

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
        present values: rows of one present count reduce together, so
        each row's pairwise sum runs over exactly its values in their
        order, and its quantiles come from the partition ``np.quantile``
        makes (which places a ``-0.0`` and a ``0.0`` as it does).
        """
        inside = np.arange(observations.shape[1]) < lengths[:, None]
        present = inside & ~np.isnan(observations)
        counts = present.sum(axis=1)
        if (counts == 0).any():
            raise ValueError("cannot initialize from all-missing observations")

        quantiles = np.linspace(0.0, 1.0, self.n_states + 2)[1:-1]
        # Present values moved to the front of each row, order kept.
        compact = np.take_along_axis(
            observations, np.argsort(~present, axis=1, kind="stable"), axis=1
        )
        means = np.empty((self.n_seqs, self.n_states))
        spread = np.empty(self.n_seqs)
        # Not np.unique: on numpy >= 2.3 it imports numpy.ma on first use.
        for count in sorted(set(counts.tolist())):
            group = counts == count
            values = compact[group, :count]
            spread[group] = np.var(values, axis=1)
            # np.quantile's "linear" method: the neighbours of virtual
            # index (n - 1) * q (the last value, weight 1, for n = 1) and
            # numpy's lerp, which interpolates from the upper neighbour
            # when the weight is at least one half.
            virtual = (count - 1) * quantiles
            lower = np.floor(virtual).astype(np.intp)
            upper = lower + 1
            if count == 1:
                lower[:] = upper[:] = -1
            weight = virtual - lower
            kth = sorted({0, -1, *lower.tolist(), *upper.tolist()})
            ordered = np.partition(values, kth, axis=1)
            a, b = ordered[:, lower], ordered[:, upper]
            step = b - a
            means[group] = np.where(
                weight >= 0.5, b - step * (1 - weight), a + step * weight
            )

        for row in np.flatnonzero(spread < MIN_VARIANCE).tolist():
            spread[row] = 1.0
            rng = np.random.default_rng(seed)
            means[row] += rng.normal(0.0, 0.1, size=self.n_states)
        self.means[:] = means
        self.variances[:] = np.maximum(spread, MIN_VARIANCE)[:, None]

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
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
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
        estep = None
        objective = np.full(self.n_seqs, -np.inf)
        for iteration in range(max_iter):
            self._check_contracts("Baum-Welch E-step")
            if estep is None or estep.lengths.size != active.size:
                # The stacks are rebuilt when rows freeze, not per iteration.
                len_a = lengths[active]
                estep = _EStep(observations[active, : len_a[0]], len_a, k)
                prior_a = prior[active]
            params = self.startprob, self.transmat, self.means, self.variances
            startprob, transmat, means, variances = (p[active] for p in params)
            log_likelihoods = estep.run(startprob, transmat, means, variances)
            if contracts.contracts_enabled():
                # (MAP-)EM never lowers the objective a row enters an
                # iteration with.
                entered = log_likelihoods + dirichlet_log_prior(
                    transmat, prior_a
                )
                contracts.assert_non_decreasing(
                    objective[active], entered, "batch Baum-Welch objective"
                )
                objective[active] = entered
            xi_sum = numpy_ref.estep_xi_sum(
                transmat, estep.emissions, estep.alpha, estep.beta,
                estep.scales, len_a,
            )  # fmt: skip

            # M-step, every quantity one operation over the active stack.
            gamma = estep.gamma
            self.startprob[active] = normalize_rows(gamma[0].T + PROB_FLOOR)
            counts = xi_sum + prior_a + PROB_FLOOR
            self.transmat[active] = normalize_rows(counts)
            self.means[active], self.variances[active] = (
                estep.update_emissions(means, variances)
            )

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
