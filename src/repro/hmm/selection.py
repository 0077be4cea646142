"""HMM model selection: information criteria over the state count.

The paper fixes two hidden states because claims are binary (§II); a
release should let users *verify* that choice on their own data.  This
module fits a sweep of state counts with the batched Gaussian HMM (one
row, ``N = 1``), scores each fit with AIC/BIC, and reports which state
count the data supports.

Parameter counts: an ``n``-state Gaussian HMM has ``n - 1`` free initial
probabilities, ``n * (n - 1)`` free transition probabilities, and ``2n``
emission parameters (a mean and a variance per state).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.hmm.batch import BatchGaussianHMM
from repro.hmm.utils import log_mask_zero

__all__ = [
    "SelectionEntry",
    "SelectionResult",
    "aic",
    "bic",
    "n_parameters",
    "select_n_states",
]

#: State counts the sweep fits.
CANDIDATES = (1, 2, 3, 4)
#: Baum-Welch iterations per candidate.
MAX_ITER = 40
#: EM initialization seed.
SEED = 0


def n_parameters(n_states: int) -> int:
    """Free parameters of an ``n_states``-state Gaussian HMM."""
    return (n_states - 1) + n_states * (n_states - 1) + 2 * n_states


def aic(n_states: int, log_likelihood: float) -> float:
    """Akaike information criterion (lower is better)."""
    return 2.0 * n_parameters(n_states) - 2.0 * log_likelihood


def bic(n_states: int, log_likelihood: float, length: int) -> float:
    """Bayesian information criterion of a ``length``-step fit (lower is
    better)."""
    penalty = n_parameters(n_states) * float(log_mask_zero(length))
    return penalty - 2.0 * log_likelihood


@dataclass(frozen=True, slots=True)
class SelectionEntry:
    """One candidate in a state-count sweep."""

    n_states: int
    log_likelihood: float
    aic: float
    bic: float


@dataclass(frozen=True, slots=True)
class SelectionResult:
    """Outcome of :func:`select_n_states`."""

    entries: tuple[SelectionEntry, ...]

    @property
    def best_by_aic(self) -> int:
        return min(self.entries, key=lambda e: e.aic).n_states

    @property
    def best_by_bic(self) -> int:
        return min(self.entries, key=lambda e: e.bic).n_states


def select_n_states(observations: np.ndarray) -> SelectionResult:
    """Fit each of the :data:`CANDIDATES` state counts and score it.

    ``observations`` is one observation sequence (NaN = missing).
    """
    stack = np.asarray(observations, dtype=float)[None, :]
    lengths = np.array([stack.shape[1]])
    entries = []
    for n_states in CANDIDATES:
        model = BatchGaussianHMM(1, n_states)
        model.fit(stack, lengths, max_iter=MAX_ITER, seed=SEED)
        # Score the trained parameters, not the ones the last EM
        # iteration entered with.
        emissions = model.emission_probabilities(stack)
        log_likelihood = float(model.forward(emissions, lengths)[2][0])
        entries.append(
            SelectionEntry(
                n_states=n_states,
                log_likelihood=log_likelihood,
                aic=aic(n_states, log_likelihood),
                bic=bic(n_states, log_likelihood, stack.shape[1]),
            )
        )
    return SelectionResult(entries=tuple(entries))
