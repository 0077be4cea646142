"""HTCondor-like matchmaking pool.

A thin reproduction of the HTCondor role in the paper's architecture:
the pool owns a set of (heterogeneous) machines and *matchmakes* worker
placement requests against nodes with free resources.  Work Queue then
runs its worker processes inside these placements — exactly the layering
the paper uses (Work Queue on top of HTCondor, Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cluster.node import ComputeNode, NodeSpec
from repro.cluster.resources import WORKER_FOOTPRINT, ResourceSpec

__all__ = [
    "CondorPool",
    "MatchmakingError",
    "Placement",
]


@dataclass(frozen=True, slots=True)
class Placement:
    """A granted slot: resources claimed on a specific node."""

    node: ComputeNode
    request: ResourceSpec

    def release(self) -> None:
        self.node.release(self.request)


class MatchmakingError(RuntimeError):
    """No node in the pool can satisfy a placement request."""


class CondorPool:
    """Machines plus best-fit matchmaking.

    Placement policy: among the nodes that can host the request, pick
    the one with the most free cores (load spreading), breaking ties by
    highest speed factor then by name for determinism.
    """

    def __init__(self, specs: Iterable[NodeSpec]) -> None:
        self.nodes = [ComputeNode(spec) for spec in specs]
        if not self.nodes:
            raise ValueError("a pool needs at least one node")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node names in pool")

    def free_cores(self) -> int:
        return sum(node.ledger.available.cores for node in self.nodes)

    def place(self) -> Placement:
        """Claim one :data:`WORKER_FOOTPRINT` on the best matching node.

        Raises:
            MatchmakingError: When no node has room.
        """
        request = WORKER_FOOTPRINT
        candidates = [node for node in self.nodes if node.can_host(request)]
        if not candidates:
            raise MatchmakingError(
                f"no node can host {request}; "
                f"free cores: {self.free_cores()}"
            )
        best = max(
            candidates,
            key=lambda node: (
                node.ledger.available.cores,
                node.speed_factor,
                node.name,
            ),
        )
        best.claim(request)
        return Placement(node=best, request=request)
