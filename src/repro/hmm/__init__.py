"""From-scratch Hidden Markov Model library (SSTD inference substrate).

Public surface:

- :class:`~repro.hmm.base.BaseHMM` -- scaled forward-backward, Viterbi
  decoding, Baum-Welch EM training.
- :class:`~repro.hmm.discrete.DiscreteHMM` -- categorical emissions.
- :class:`~repro.hmm.gaussian.GaussianHMM` -- univariate Gaussian
  emissions (used by SSTD on ACS sequences).
- :class:`~repro.hmm.batch.BatchGaussianHMM` -- the same Gaussian model
  over a stack of N independent sequences at once (SSTD's batched
  multi-claim kernel).
- :mod:`~repro.hmm.kernels` -- the batched time recursions
  (:mod:`~repro.hmm.kernels.numpy_ref`).
"""

from repro.hmm.base import BaseHMM, FitResult
from repro.hmm.batch import BatchGaussianHMM, stack_ragged
from repro.hmm.discrete import DiscreteHMM
from repro.hmm.gaussian import GaussianHMM
from repro.hmm.selection import (
    SelectionEntry,
    SelectionResult,
    aic,
    bic,
    n_parameters,
    select_n_states,
)

__all__ = [
    "BaseHMM",
    "BatchGaussianHMM",
    "DiscreteHMM",
    "FitResult",
    "GaussianHMM",
    "SelectionEntry",
    "SelectionResult",
    "aic",
    "bic",
    "n_parameters",
    "select_n_states",
    "stack_ragged",
]
