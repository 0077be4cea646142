"""repro: reproduction of "Towards Scalable and Dynamic Social Sensing
Using A Distributed Computing Framework" (SSTD, ICDCS 2017).

Layers (bottom up):

- :mod:`repro.hmm` — from-scratch batched Gaussian-HMM library
  (Baum-Welch, Viterbi, model selection).
- :mod:`repro.core` — data model, contribution scores, ACS, the SSTD
  truth-discovery engine, and evaluation metrics.
- :mod:`repro.baselines` — the six compared truth-discovery baselines.
- :mod:`repro.text` — tweet-processing pipeline (claims, attitudes,
  uncertainty, independence).
- :mod:`repro.streams` — synthetic social sensing traces and replay.
- :mod:`repro.cluster` / :mod:`repro.workqueue` — the simulated
  HTCondor + Work Queue execution substrate.
- :mod:`repro.control` / :mod:`repro.system` — PID feedback control and
  the integrated distributed deployment.
"""

from repro.core import (
    SSTD,
    Attitude,
    Claim,
    Report,
    SSTDConfig,
    Source,
    StreamingSSTD,
    TruthEstimate,
    TruthValue,
    evaluate_estimates,
)
from repro.system import DistributedSSTD, SSTDSystemConfig

__version__ = "1.0.0"

__all__ = [
    "Attitude",
    "Claim",
    "DistributedSSTD",
    "Report",
    "SSTD",
    "SSTDConfig",
    "SSTDSystemConfig",
    "Source",
    "StreamingSSTD",
    "TruthEstimate",
    "TruthValue",
    "evaluate_estimates",
    "__version__",
]
