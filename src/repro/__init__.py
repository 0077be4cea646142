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

Package namespaces are lazy (:mod:`repro._lazy`): importing a package
runs none of its submodules until one of its names is read.
"""

from repro._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.core.sstd": ("SSTD", "SSTDConfig", "StreamingSSTD"),
        "repro.core.types": (
            "Attitude",
            "Claim",
            "Report",
            "Source",
            "TruthEstimate",
            "TruthValue",
        ),
        "repro.core.metrics": ("evaluate_estimates",),
        "repro.system.sstd_system": ("DistributedSSTD", "SSTDSystemConfig"),
    },
)
__all__ += ["__version__"]
