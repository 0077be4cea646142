"""Heterogeneous compute nodes.

The paper's third critique of Hadoop-based truth discovery is its
homogeneity assumption; the Notre Dame HTCondor pool mixes desktop
workstations, classroom machines, and server clusters.  A
:class:`ComputeNode` therefore carries both a resource capacity *and* a
``speed_factor`` — the relative execution speed of the machine — plus an
optional failure model for fault-injection tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.resources import ResourceLedger, ResourceSpec

__all__ = [
    "ComputeNode",
    "NodeSpec",
    "heterogeneous_pool",
    "uniform_pool",
]

#: Core counts a heterogeneous pool draws from (desktops to servers).
CORES_CHOICES = (2, 4, 8, 16)
#: Range of a heterogeneous node's speed factor (up to 4x apart).
SPEED_RANGE = (0.5, 2.0)
#: Memory per core of every generated node.
MEMORY_PER_CORE_MB = 2048
#: Disk of every generated node.
DISK_MB = 65_536


@dataclass(frozen=True, slots=True)
class NodeSpec:
    """Static description of one machine in the pool."""

    name: str
    capacity: ResourceSpec = field(default_factory=ResourceSpec)
    speed_factor: float = 1.0
    mtbf_seconds: float = 0.0  # 0 disables failures

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be non-empty")
        if self.speed_factor <= 0:
            raise ValueError(f"speed_factor must be > 0, got {self.speed_factor}")
        if self.mtbf_seconds < 0:
            raise ValueError("mtbf_seconds must be >= 0")


class ComputeNode:
    """Runtime state of one machine: a resource ledger plus liveness."""

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self.ledger = ResourceLedger(spec.capacity)
        self.alive = True

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def speed_factor(self) -> float:
        return self.spec.speed_factor

    def can_host(self, request: ResourceSpec) -> bool:
        return self.alive and self.ledger.can_allocate(request)

    def claim(self, request: ResourceSpec) -> None:
        if not self.alive:
            raise RuntimeError(f"node {self.name} is down")
        self.ledger.allocate(request)

    def release(self, request: ResourceSpec) -> None:
        self.ledger.release(request)

    def fail(self) -> None:
        """Mark the node dead (fault injection)."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComputeNode({self.name!r}, speed={self.speed_factor}, "
            f"alive={self.alive}, free={self.ledger.available})"
        )


def heterogeneous_pool(
    n_nodes: int, rng: np.random.Generator | int | None = None
) -> list[NodeSpec]:
    """A random heterogeneous pool in the spirit of a campus HTCondor grid.

    Mixes small desktops with beefy servers; speeds vary by up to 4x,
    matching the paper's point that real clusters are not uniform.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    specs = []
    for k in range(n_nodes):
        cores = int(rng.choice(CORES_CHOICES))
        specs.append(
            NodeSpec(
                name=f"node-{k:04d}",
                capacity=ResourceSpec(
                    cores=cores,
                    memory_mb=cores * MEMORY_PER_CORE_MB,
                    disk_mb=DISK_MB,
                ),
                speed_factor=float(rng.uniform(*SPEED_RANGE)),
            )
        )
    return specs


def uniform_pool(n_nodes: int, cores: int = 4) -> list[NodeSpec]:
    """A homogeneous pool of unit-speed nodes (baseline for
    heterogeneity experiments)."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    return [
        NodeSpec(
            name=f"node-{k:04d}",
            capacity=ResourceSpec(
                cores=cores, memory_mb=cores * MEMORY_PER_CORE_MB, disk_mb=DISK_MB
            ),
        )
        for k in range(n_nodes)
    ]
