"""Claim-dependency modeling (paper §VII, first future-work item).

"We assume no dependency between claims.  There may be cases, however,
where claims are not completely independent.  For example, weather
conditions at city A may be related to weather condition at city B when
A and B are close in distance.  Incorporating such dependency into our
model can be an interesting topic ... we need to explicitly model the
correlation between different claims and incorporate such correlation
into the HMM based model.  The key challenge is to maintain the
correlation between claims when the truth discovery task is implemented
on a distributed framework."

This module implements that extension with exactly the structure the
paper sketches:

- a :class:`ClaimDependencyGraph` holds pairwise claim
  correlations in ``[-1, 1]`` (+1: truths move together, -1: mutually
  exclusive);
- :class:`CorrelatedSSTD` shares *evidence* along graph edges before
  per-claim decoding: each claim's ACS sequence is blended with its
  neighbors' (signed by the correlation), which transfers support
  between related claims without coupling their HMMs;
- because the blending is a pre-processing step on observation
  sequences, the per-claim jobs stay independent afterwards — solving
  the paper's distribution challenge: the master computes the blend
  (one pass over neighbor sequences), then ships per-claim jobs exactly
  as before.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.acs import ReportTable, acs_sequence
from repro.core.columns import Estimates
from repro.core.sstd import SSTDConfig, batch_fit_decode
from repro.core.types import Report

__all__ = [
    "ClaimDependencyGraph",
    "CorrelatedSSTD",
    "CorrelationConfig",
]


class ClaimDependencyGraph:
    """Weighted undirected graph of claim correlations.

    ``_adjacency[a][b]`` is the correlation of claims ``a`` and ``b``,
    stored both ways.  Dicts keep insertion order, so claims, neighbors
    and components come out in the order they were added.
    """

    def __init__(self) -> None:
        self._adjacency: dict[str, dict[str, float]] = {}

    def add_claim(self, claim_id: str) -> None:
        self._adjacency.setdefault(claim_id, {})

    def add_dependency(
        self, claim_a: str, claim_b: str, correlation: float
    ) -> None:
        """Declare that two claims' truths are correlated.

        Args:
            correlation: in ``[-1, 1]``; positive means the claims tend
                to be true together, negative that they exclude each
                other.  Zero removes the edge.
        """
        if claim_a == claim_b:
            raise ValueError("a claim cannot depend on itself")
        if not -1.0 <= correlation <= 1.0:
            raise ValueError(
                f"correlation must be in [-1, 1], got {correlation}"
            )
        if correlation == 0.0:
            self._adjacency.get(claim_a, {}).pop(claim_b, None)
            self._adjacency.get(claim_b, {}).pop(claim_a, None)
            return
        self.add_claim(claim_a)
        self.add_claim(claim_b)
        self._adjacency[claim_a][claim_b] = correlation
        self._adjacency[claim_b][claim_a] = correlation

    def neighbors(self, claim_id: str) -> list[tuple[str, float]]:
        """(neighbor, correlation) pairs of a claim."""
        return list(self._adjacency.get(claim_id, {}).items())

    def correlation(self, claim_a: str, claim_b: str) -> float:
        return self._adjacency.get(claim_a, {}).get(claim_b, 0.0)

    def components(self) -> list[set[str]]:
        """Connected components — the units that must share a master."""
        components: list[set[str]] = []
        seen: set[str] = set()
        for start in self._adjacency:
            if start in seen:
                continue
            component = {start}
            queue = deque([start])
            while queue:
                for other in self._adjacency[queue.popleft()]:
                    if other not in component:
                        component.add(other)
                        queue.append(other)
            seen |= component
            components.append(component)
        return components

    def __contains__(self, claim_id: str) -> bool:
        return claim_id in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[str, str, float]]
    ) -> "ClaimDependencyGraph":
        graph = cls()
        for claim_a, claim_b, correlation in edges:
            graph.add_dependency(claim_a, claim_b, correlation)
        return graph


@dataclass(frozen=True, slots=True)
class CorrelationConfig:
    """How strongly neighbor evidence is shared.

    Attributes:
        blend: Weight of the neighbor-evidence term in ``[0, 1)``; the
            blended sequence is
            ``(1 - blend) * own + blend * weighted-neighbor-average``.
    """

    blend: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.blend < 1.0:
            raise ValueError(f"blend must be in [0, 1), got {self.blend}")


class CorrelatedSSTD:
    """SSTD with evidence sharing across a claim-dependency graph.

    Example:
        >>> graph = ClaimDependencyGraph.from_edges(
        ...     [("rain-city-a", "rain-city-b", 0.8)]
        ... )
        >>> engine = CorrelatedSSTD(graph)
        >>> estimates = engine.discover(reports)       # doctest: +SKIP
    """

    name = "SSTD+deps"

    def __init__(
        self,
        graph: ClaimDependencyGraph,
        config: SSTDConfig | None = None,
        correlation: CorrelationConfig | None = None,
    ) -> None:
        self.graph = graph
        self.config = config or SSTDConfig()
        self.correlation = correlation or CorrelationConfig()

    def _blend_sequences(
        self,
        sequences: Mapping[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """Mix each claim's ACS with its neighbors' (one synchronous pass).

        Missing (NaN) windows borrow fully from neighbors when any
        neighbor has evidence — correlation is most valuable exactly
        where a claim's own data is sparse.
        """
        blend = self.correlation.blend
        mixed: dict[str, np.ndarray] = {}
        for claim_id, own in sequences.items():
            neighbors = [
                (other, weight)
                for other, weight in self.graph.neighbors(claim_id)
                if other in sequences
            ]
            if not neighbors or blend == 0.0:
                mixed[claim_id] = own
                continue
            neighbor_sum = np.zeros_like(own)
            neighbor_weight = np.zeros_like(own)
            for other, weight in neighbors:
                series = sequences[other]
                present = ~np.isnan(series)
                neighbor_sum[present] += weight * series[present]
                neighbor_weight[present] += abs(weight)
            has_neighbor = neighbor_weight > 0
            neighbor_avg = np.zeros_like(own)
            neighbor_avg[has_neighbor] = (
                neighbor_sum[has_neighbor] / neighbor_weight[has_neighbor]
            )

            own_present = ~np.isnan(own)
            result = own.copy()
            both = own_present & has_neighbor
            result[both] = (1.0 - blend) * own[both] + blend * neighbor_avg[both]
            only_neighbor = ~own_present & has_neighbor
            result[only_neighbor] = neighbor_avg[only_neighbor]
            mixed[claim_id] = result
        return mixed

    def discover(self, reports: Sequence[Report]) -> Estimates:
        """Correlated truth discovery over all claims in ``reports``.

        Every claim is decoded on one grid over the span of ``reports``.
        """
        table = ReportTable.from_reports(reports, self.config.acs.weights)
        if not table.claim_ids:
            return Estimates.concat(())
        start = float(table.times.min())
        end = float(table.times.max())

        times: np.ndarray | None = None
        sequences: dict[str, np.ndarray] = {}
        for claim_id, rows in table.by_claim():
            grid, values = acs_sequence(
                rows, self.config.acs, start=start, end=end
            )
            times = grid
            sequences[claim_id] = values

        blended = self._blend_sequences(sequences)
        # One batched fit over every claim; the kernel is row-deterministic,
        # so each claim decodes exactly as it would alone.
        results = batch_fit_decode(
            [
                (claim_id, times, blended[claim_id])
                for claim_id in sorted(blended)
            ],
            self.config,
        )
        return Estimates.concat(result.estimates for result in results)
