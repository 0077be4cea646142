"""Tests for claim-dependency modeling (paper §VII extension)."""

import numpy as np
import pytest

from repro.core import (
    ClaimDependencyGraph,
    CorrelatedSSTD,
    CorrelationConfig,
    SSTD,
    SSTDConfig,
    TruthValue,
)
from repro.core.acs import ACSConfig, acs_sequence
from repro.core.sstd import ClaimTruthModel
from repro.core.types import Attitude, Report


class TestClaimDependencyGraph:
    def test_add_and_query(self):
        graph = ClaimDependencyGraph()
        graph.add_dependency("a", "b", 0.8)
        assert graph.correlation("a", "b") == 0.8
        assert graph.correlation("b", "a") == 0.8  # undirected
        assert graph.correlation("a", "zzz") == 0.0

    def test_neighbors(self):
        graph = ClaimDependencyGraph.from_edges(
            [("a", "b", 0.5), ("a", "c", -0.4)]
        )
        neighbors = dict(graph.neighbors("a"))
        assert neighbors == {"b": 0.5, "c": -0.4}
        assert graph.neighbors("unknown") == []

    def test_zero_correlation_removes_edge(self):
        graph = ClaimDependencyGraph()
        graph.add_dependency("a", "b", 0.5)
        graph.add_dependency("a", "b", 0.0)
        assert graph.correlation("a", "b") == 0.0

    def test_self_dependency_rejected(self):
        graph = ClaimDependencyGraph()
        with pytest.raises(ValueError, match="itself"):
            graph.add_dependency("a", "a", 0.5)

    def test_out_of_range_rejected(self):
        graph = ClaimDependencyGraph()
        with pytest.raises(ValueError, match="correlation"):
            graph.add_dependency("a", "b", 1.5)

    def test_components(self):
        graph = ClaimDependencyGraph.from_edges(
            [("a", "b", 0.5), ("c", "d", 0.5)]
        )
        components = graph.components()
        assert {frozenset(c) for c in components} == {
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
        }

    def test_contains_and_len(self):
        graph = ClaimDependencyGraph.from_edges([("a", "b", 0.5)])
        assert "a" in graph
        assert len(graph) == 2


def correlated_reports(seed=0, n=1200, duration=10_000.0, flip_at=5_000.0):
    """Two positively correlated claims; claim 'rich' has plenty of
    reports, claim 'sparse' very few — its truth follows 'rich'."""
    rng = np.random.default_rng(seed)
    reports = []
    for k in range(n):
        t = float(rng.uniform(0, duration))
        truth = t >= flip_at
        tells = rng.random() < 0.85
        says_true = truth if tells else not truth
        reports.append(
            Report(
                f"s{k % 300}", "rich", t,
                attitude=Attitude.AGREE if says_true else Attitude.DISAGREE,
            )
        )
    # The sparse claim gets a handful of reports, all early.
    for k in range(6):
        t = float(rng.uniform(0, 1500.0))
        reports.append(
            Report(
                f"q{k}", "sparse", t,
                attitude=Attitude.DISAGREE,  # consistent with truth: FALSE early
            )
        )
    return sorted(reports, key=lambda r: r.timestamp)


CONFIG = SSTDConfig(acs=ACSConfig(window=400.0, step=200.0))


class TestCorrelatedSSTD:
    def test_dependency_fills_sparse_claims(self):
        """Without dependencies the sparse claim stays FALSE after its
        last report; with a positive correlation it follows the rich
        claim's flip to TRUE."""
        reports = correlated_reports()
        span = (reports[0].timestamp, reports[-1].timestamp)

        plain = SSTD(CONFIG).discover(reports, start=span[0], end=span[1])
        plain_late = [
            e for e in plain
            if e.claim_id == "sparse" and e.timestamp > 6000.0
        ]
        assert plain_late
        assert all(e.value is TruthValue.FALSE for e in plain_late)

        graph = ClaimDependencyGraph.from_edges([("rich", "sparse", 1.0)])
        engine = CorrelatedSSTD(
            graph, CONFIG, CorrelationConfig(blend=0.5)
        )
        correlated = engine.discover(reports)
        late = [
            e for e in correlated
            if e.claim_id == "sparse" and e.timestamp > 6000.0
        ]
        assert late
        true_fraction = sum(
            1 for e in late if e.value is TruthValue.TRUE
        ) / len(late)
        assert true_fraction > 0.8

    def test_negative_correlation_inverts_evidence(self):
        reports = correlated_reports()
        graph = ClaimDependencyGraph.from_edges([("rich", "sparse", -1.0)])
        engine = CorrelatedSSTD(graph, CONFIG, CorrelationConfig(blend=0.5))
        estimates = engine.discover(reports)
        # After the rich claim flips TRUE, the anti-correlated sparse
        # claim should read FALSE.
        late = [
            e for e in estimates
            if e.claim_id == "sparse" and e.timestamp > 6000.0
        ]
        false_fraction = sum(
            1 for e in late if e.value is TruthValue.FALSE
        ) / len(late)
        assert false_fraction > 0.8

    def test_no_edges_matches_plain_sstd(self):
        reports = correlated_reports()
        graph = ClaimDependencyGraph()
        engine = CorrelatedSSTD(graph, CONFIG)
        correlated = sorted(
            engine.discover(reports), key=lambda e: (e.claim_id, e.timestamp)
        )
        span = (reports[0].timestamp, reports[-1].timestamp)
        plain = sorted(
            SSTD(CONFIG).discover(reports, start=span[0], end=span[1]),
            key=lambda e: (e.claim_id, e.timestamp),
        )
        assert [(e.claim_id, e.timestamp, e.value) for e in correlated] == [
            (e.claim_id, e.timestamp, e.value) for e in plain
        ]

    def test_zero_blend_is_identity(self):
        reports = correlated_reports()
        graph = ClaimDependencyGraph.from_edges([("rich", "sparse", 1.0)])
        engine = CorrelatedSSTD(graph, CONFIG, CorrelationConfig(blend=0.0))
        correlated = sorted(
            engine.discover(reports), key=lambda e: (e.claim_id, e.timestamp)
        )
        span = (reports[0].timestamp, reports[-1].timestamp)
        plain = sorted(
            SSTD(CONFIG).discover(reports, start=span[0], end=span[1]),
            key=lambda e: (e.claim_id, e.timestamp),
        )
        assert [(e.claim_id, e.value) for e in correlated] == [
            (e.claim_id, e.value) for e in plain
        ]

    def test_batched_decode_equals_per_claim_loop(self):
        """``discover`` decodes every blended claim in one batched fit;
        the kernel is row-deterministic, so each claim's estimates are
        bit-identical to fitting it alone."""
        rng = np.random.default_rng(5)
        # A third, anti-correlated claim: TRUE until the flip, then FALSE.
        other = [
            Report(
                f"o{k % 90}", "other", t,
                attitude=(
                    Attitude.AGREE if (t < 5_000.0) == (rng.random() < 0.8)
                    else Attitude.DISAGREE
                ),
            )
            for k, t in enumerate(np.sort(rng.uniform(0, 1e4, 500)).tolist())
        ]  # fmt: skip
        reports = sorted(
            correlated_reports() + other, key=lambda r: r.timestamp
        )
        graph = ClaimDependencyGraph.from_edges(
            [("rich", "sparse", 0.8), ("rich", "other", -0.6)]
        )
        engine = CorrelatedSSTD(graph, CONFIG, CorrelationConfig(blend=0.4))
        batched = engine.discover(reports)

        grouped = SSTD(CONFIG).group_reports(reports)
        span = (reports[0].timestamp, reports[-1].timestamp)
        sequences = {}
        for claim_id in sorted(grouped):
            times, sequences[claim_id] = acs_sequence(
                grouped[claim_id], CONFIG.acs, start=span[0], end=span[1]
            )
        blended = engine._blend_sequences(sequences)
        results = [
            ClaimTruthModel(claim_id, CONFIG).fit_decode(
                times, blended[claim_id]
            )
            for claim_id in sorted(blended)
        ]
        assert sum(result.used_hmm for result in results) >= 2
        assert batched == [e for r in results for e in r.estimates]

    def test_empty_reports(self):
        engine = CorrelatedSSTD(ClaimDependencyGraph(), CONFIG)
        assert engine.discover([]) == []

    def test_blend_validation(self):
        with pytest.raises(ValueError):
            CorrelationConfig(blend=1.0)
