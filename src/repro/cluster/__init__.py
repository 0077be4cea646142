"""Simulated HTCondor-like cluster substrate."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.cluster.condor": ("CondorPool", "MatchmakingError", "Placement"),
        "repro.cluster.node": (
            "ComputeNode",
            "NodeSpec",
            "heterogeneous_pool",
            "uniform_pool",
        ),
        "repro.cluster.resources": (
            "WORKER_FOOTPRINT",
            "ResourceError",
            "ResourceLedger",
            "ResourceSpec",
        ),
        "repro.cluster.simulation": ("EventHandle", "PeriodicTask", "Simulator"),
    },
)
