"""Online stream clustering: tweets -> claims (paper Section V-A2).

The paper's claim generator is "a variant of K-means" run online: a new
tweet joins the nearest existing cluster by Jaccard distance, a new
cluster is opened when nothing is close enough, and a cluster whose
diameter grows beyond a threshold is split in two.  Each cluster is one
*claim*; its centroid tokens give the claim text.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.text.jaccard import jaccard_distance
from repro.text.tokenize import token_set

__all__ = [
    "Cluster",
    "OnlineClaimClusterer",
]

#: Maximum Jaccard distance at which a tweet joins an existing cluster
#: (else a new cluster opens).
JOIN_THRESHOLD = 0.7
#: Diameter above which a cluster is split in two (the paper's
#: "pre-specified threshold learned from previous case studies").
SPLIT_THRESHOLD = 0.9
#: Tokens kept in the centroid representation.
CENTROID_TOP_K = 12
#: Tokens of a cluster's display text.
CENTROID_TEXT_TOP_K = 8
#: Tweets a cluster retains for its diameter check.
MAX_SAMPLES = 32


@dataclass
class Cluster:
    """One tweet cluster (= one claim)."""

    cluster_id: str
    token_counts: Counter = field(default_factory=Counter)
    size: int = 0
    sample_sets: list[frozenset[str]] = field(default_factory=list)

    def centroid(self) -> frozenset[str]:
        """Most frequent tokens — the cluster's Jaccard representative."""
        return frozenset(
            token for token, _ in self.token_counts.most_common(CENTROID_TOP_K)
        )

    def centroid_text(self) -> str:
        return " ".join(
            token
            for token, _ in self.token_counts.most_common(CENTROID_TEXT_TOP_K)
        )

    def add(self, tokens: frozenset[str]) -> None:
        self.token_counts.update(tokens)
        self.size += 1
        if len(self.sample_sets) < MAX_SAMPLES:
            self.sample_sets.append(tokens)

    def diameter(self) -> float:
        """Max pairwise Jaccard distance over the retained samples."""
        worst = 0.0
        for a, b in itertools.combinations(self.sample_sets, 2):
            worst = max(worst, jaccard_distance(a, b))
        return worst


class OnlineClaimClusterer:
    """Incremental Jaccard clustering with diameter-triggered splits."""

    def __init__(self) -> None:
        self.clusters: dict[str, Cluster] = {}
        self._counter = itertools.count(1)

    def _new_cluster(self) -> Cluster:
        cluster = Cluster(cluster_id=f"claim-{next(self._counter):05d}")
        self.clusters[cluster.cluster_id] = cluster
        return cluster

    def _nearest(self, tokens: frozenset[str]) -> tuple[Optional[Cluster], float]:
        best: Optional[Cluster] = None
        best_distance = 2.0
        for cluster in self.clusters.values():
            distance = jaccard_distance(tokens, cluster.centroid())
            if distance < best_distance:
                best, best_distance = cluster, distance
        return best, best_distance

    def assign(self, text: str) -> str:
        """Cluster one tweet; returns the claim (cluster) id."""
        tokens = token_set(text)
        cluster, distance = self._nearest(tokens)
        if cluster is None or distance > JOIN_THRESHOLD:
            cluster = self._new_cluster()
        cluster.add(tokens)
        if (
            len(cluster.sample_sets) >= 4
            and cluster.diameter() > SPLIT_THRESHOLD
        ):
            self._split(cluster)
        return cluster.cluster_id

    def _split(self, cluster: Cluster) -> None:
        """Split a too-diverse cluster around its two farthest samples."""
        samples = cluster.sample_sets
        worst_pair = None
        worst = -1.0
        for a, b in itertools.combinations(samples, 2):
            distance = jaccard_distance(a, b)
            if distance > worst:
                worst, worst_pair = distance, (a, b)
        if worst_pair is None:
            return
        seed_a, seed_b = worst_pair
        sibling = self._new_cluster()
        keep: list[frozenset[str]] = []
        cluster.token_counts.clear()
        old_size = cluster.size
        cluster.size = 0
        for tokens in samples:
            if jaccard_distance(tokens, seed_a) <= jaccard_distance(tokens, seed_b):
                keep.append(tokens)
                cluster.token_counts.update(tokens)
                cluster.size += 1
            else:
                sibling.add(tokens)
        cluster.sample_sets = keep
        # Unsampled mass stays with the original cluster.
        cluster.size += max(0, old_size - len(samples))

    def assign_all(self, texts: Iterable[str]) -> list[str]:
        return [self.assign(text) for text in texts]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)
