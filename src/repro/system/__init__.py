"""The integrated SSTD system: TD jobs, deadlines, deployment."""

from repro.system.application import (
    ApplicationConfig,
    FlipEvent,
    SocialSensingApplication,
)
from repro.system.deadline import DeadlineTracker, IntervalRecord, hit_rate_curve
from repro.system.sstd_system import (
    BatchRunResult,
    DistributedSSTD,
    IntervalRunResult,
    SSTDSystemConfig,
)

__all__ = [
    "ApplicationConfig",
    "BatchRunResult",
    "DeadlineTracker",
    "DistributedSSTD",
    "FlipEvent",
    "IntervalRecord",
    "IntervalRunResult",
    "SSTDSystemConfig",
    "SocialSensingApplication",
    "hit_rate_curve",
]
