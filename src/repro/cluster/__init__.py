"""Simulated HTCondor-like cluster substrate."""

from repro.cluster.condor import CondorPool, MatchmakingError, Placement
from repro.cluster.node import (
    ComputeNode,
    NodeSpec,
    heterogeneous_pool,
    uniform_pool,
)
from repro.cluster.resources import (
    WORKER_FOOTPRINT,
    ResourceError,
    ResourceLedger,
    ResourceSpec,
)
from repro.cluster.simulation import EventHandle, PeriodicTask, Simulator

__all__ = [
    "ComputeNode",
    "CondorPool",
    "EventHandle",
    "MatchmakingError",
    "NodeSpec",
    "PeriodicTask",
    "Placement",
    "ResourceError",
    "ResourceLedger",
    "ResourceSpec",
    "Simulator",
    "WORKER_FOOTPRINT",
    "heterogeneous_pool",
    "uniform_pool",
]
