"""From-scratch Gaussian-HMM library (SSTD inference substrate).

Public surface:

- :class:`~repro.hmm.batch.BatchGaussianHMM` -- N independent K-state
  Gaussian HMMs over a stack of sequences: scaled forward-backward,
  Viterbi decoding, Baum-Welch (MAP-)EM training.  One claim is the
  stack with ``N = 1``.
- :class:`~repro.hmm.batch.HMMParams` -- one trained chain's parameters
  (what SSTD keeps per claim after a fit).
- :class:`~repro.hmm.batch.FitResult` -- one row's EM trajectory.
- :mod:`~repro.hmm.selection` -- AIC/BIC over the state count.
- :mod:`~repro.hmm.kernels` -- the batched time recursions
  (:mod:`~repro.hmm.kernels.numpy_ref`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.hmm.batch": (
            "BatchGaussianHMM",
            "FitResult",
            "HMMParams",
            "stack_ragged",
        ),
        "repro.hmm.selection": (
            "SelectionEntry",
            "SelectionResult",
            "aic",
            "bic",
            "n_parameters",
            "select_n_states",
        ),
    },
)
