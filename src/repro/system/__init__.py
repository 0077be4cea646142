"""The integrated SSTD system: TD jobs, deadlines, deployment."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.system.application": (
            "ApplicationConfig",
            "FlipEvent",
            "SocialSensingApplication",
        ),
        "repro.system.deadline": (
            "DeadlineTracker",
            "IntervalRecord",
            "hit_rate_curve",
        ),
        "repro.system.sstd_system": (
            "BatchRunResult",
            "DistributedSSTD",
            "IntervalRunResult",
            "SSTDSystemConfig",
        ),
    },
)
