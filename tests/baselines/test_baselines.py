"""Tests for the truth-discovery baselines (paper Section V-A1)."""

import numpy as np
import pytest

from repro.baselines import (
    CATD,
    RTD,
    DynaTD,
    EvaluationGrid,
    Invest,
    MajorityVote,
    MedianVote,
    PooledInvest,
    ThreeEstimates,
    TruthFinder,
    Votes,
    make_algorithm,
    paper_comparison_set,
)
from repro.baselines.dynatd import DECAY
from repro.baselines.registry import PAPER_TABLE_METHODS, SSTDAlgorithm
from repro.core.scores import ATTITUDE_ONLY
from repro.core.types import Attitude, Report, TruthValue

ALL_BATCH = [
    MajorityVote(),
    MedianVote(),
    TruthFinder(),
    RTD(),
    CATD(),
    Invest(),
    PooledInvest(),
    ThreeEstimates(),
]


def simple_scenario(seed=0, n_sources=40, n_claims=10, reliability=0.8):
    """Static truths; sources tell the truth with given reliability.

    Returns (reports, truths) where truths maps claim_id -> TruthValue.
    """
    rng = np.random.default_rng(seed)
    truths = {
        f"c{j}": TruthValue.TRUE if rng.random() < 0.5 else TruthValue.FALSE
        for j in range(n_claims)
    }
    reports = []
    t = 0.0
    for i in range(n_sources):
        for j in range(n_claims):
            t += 1.0
            truth_is_true = truths[f"c{j}"] is TruthValue.TRUE
            tells = rng.random() < reliability
            says_true = truth_is_true if tells else not truth_is_true
            reports.append(
                Report(
                    f"s{i}", f"c{j}", t,
                    attitude=Attitude.AGREE if says_true else Attitude.DISAGREE,
                )
            )
    return reports, truths


def grid_over(reports, step):
    """The evaluation grid from the first to the last report."""
    timestamps = [report.timestamp for report in reports]
    return EvaluationGrid(min(timestamps), max(timestamps), step=step)


def attitude_votes(*triples):
    """:class:`Votes` of ``(source, claim, attitude)`` reports, 1 s apart."""
    reports = [
        Report(source, claim, float(k), attitude=attitude)
        for k, (source, claim, attitude) in enumerate(triples)
    ]
    return Votes.from_reports(reports, ATTITUDE_ONLY.score_column(reports))


def vote_list(votes):
    """``(source, claim, value)`` of every vote, in vote order."""
    return [
        (votes.sources[row], votes.claims[col], value)
        for row, col, value in zip(
            votes.rows.tolist(), votes.cols.tolist(), votes.values.tolist()
        )
    ]


class TestVotes:
    def test_nets_attitudes(self):
        votes = attitude_votes(
            ("a", "c1", Attitude.AGREE),
            ("a", "c1", Attitude.AGREE),
            ("a", "c1", Attitude.DISAGREE),
        )
        assert vote_list(votes) == [("a", "c1", 1.0)]
        assert votes.signs.tolist() == [1.0]

    def test_drops_balanced_pair(self):
        votes = attitude_votes(
            ("a", "c1", Attitude.AGREE),
            ("a", "c1", Attitude.DISAGREE),
            ("b", "c1", Attitude.DISAGREE),
        )
        assert vote_list(votes) == [("b", "c1", -1.0)]
        assert votes.sources == ("b",)

    def test_neutral_only_pair_absent(self):
        votes = attitude_votes(
            ("a", "c1", Attitude.NEUTRAL),
            ("a", "c2", Attitude.AGREE),
        )
        assert vote_list(votes) == [("a", "c2", 1.0)]
        assert votes.claims == ("c2",)

    def test_pairs_in_first_report_order(self):
        """A pair takes its place at its first report, neutral or not."""
        votes = attitude_votes(
            ("b", "c2", Attitude.NEUTRAL),
            ("a", "c1", Attitude.AGREE),
            ("b", "c2", Attitude.DISAGREE),
            ("a", "c2", Attitude.AGREE),
        )
        assert vote_list(votes) == [
            ("b", "c2", -1.0), ("a", "c1", 1.0), ("a", "c2", 1.0),
        ]
        assert votes.facts.tolist() == [3, 0, 2]

    def test_sources_numbered_by_first_vote_claims_sorted(self):
        votes = attitude_votes(
            ("z", "c2", Attitude.AGREE),
            ("y", "c2", Attitude.AGREE),
            ("y", "c2", Attitude.DISAGREE),
            ("a", "c1", Attitude.DISAGREE),
            ("y", "c1", Attitude.AGREE),
        )
        assert votes.sources == ("z", "a", "y")
        assert votes.claims == ("c1", "c2")
        assert votes.rows.tolist() == [0, 1, 2]
        assert votes.cols.tolist() == [1, 0, 0]

    def test_empty(self):
        votes = attitude_votes()
        assert len(votes) == 0
        assert votes.sources == votes.claims == ()


class TestEvaluationGrid:
    def test_times(self):
        grid = EvaluationGrid(0.0, 100.0, step=25.0)
        assert grid.times().tolist() == [25.0, 50.0, 75.0, 100.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            EvaluationGrid(0.0, 10.0, step=0.0)
        with pytest.raises(ValueError):
            EvaluationGrid(10.0, 0.0)


class TestBatchAlgorithmsRecoverStaticTruth:
    @pytest.mark.parametrize("algo", ALL_BATCH, ids=lambda a: a.name)
    def test_high_reliability_recovery(self, algo):
        reports, truths = simple_scenario(reliability=0.85)
        grid = grid_over(reports, step=100.0)
        estimates = algo.discover(reports, grid)
        assert estimates, f"{algo.name} returned no estimates"
        per_claim = {}
        for e in estimates:
            per_claim[e.claim_id] = e.value
        correct = sum(
            1 for cid, v in per_claim.items() if v is truths[cid]
        )
        assert correct >= 0.9 * len(truths), algo.name

    @pytest.mark.parametrize("algo", ALL_BATCH, ids=lambda a: a.name)
    def test_static_value_replicated_over_grid(self, algo):
        reports, _ = simple_scenario(n_sources=10, n_claims=3)
        grid = grid_over(reports, step=7.0)
        estimates = algo.discover(reports, grid)
        values = {}
        for e in estimates:
            values.setdefault(e.claim_id, set()).add(e.value)
        for claim_values in values.values():
            assert len(claim_values) == 1

    @pytest.mark.parametrize("algo", ALL_BATCH, ids=lambda a: a.name)
    def test_empty_reports(self, algo):
        grid = EvaluationGrid(0.0, 10.0)
        assert algo.discover([], grid) == []

    @pytest.mark.parametrize("algo", ALL_BATCH, ids=lambda a: a.name)
    def test_confidence_in_unit_interval(self, algo):
        reports, _ = simple_scenario(n_sources=15, n_claims=4)
        grid = grid_over(reports, step=100.0)
        for estimate in algo.discover(reports, grid):
            assert 0.0 <= estimate.confidence <= 1.0


class TestSourceReliabilityModels:
    """Reliability-aware schemes must beat voting when liars are prolific."""

    def _spreader_scenario(self, seed=1):
        rng = np.random.default_rng(seed)
        reports = []
        truths = {f"c{j}": TruthValue.TRUE for j in range(8)}
        t = 0.0
        # 12 honest sources report on 3 claims each.
        for i in range(12):
            for j in rng.choice(8, size=3, replace=False):
                t += 1.0
                reports.append(
                    Report(f"honest{i}", f"c{j}", t, attitude=Attitude.AGREE)
                )
        # 4 prolific liars report (falsely) on every claim.
        for i in range(4):
            for j in range(8):
                t += 1.0
                reports.append(
                    Report(f"liar{i}", f"c{j}", t, attitude=Attitude.DISAGREE)
                )
        # One "anchor" claim where honest sources overwhelm the liars,
        # giving reliability models a foothold.
        for i in range(12):
            t += 1.0
            reports.append(
                Report(f"honest{i}", "anchor", t, attitude=Attitude.AGREE)
            )
        for i in range(4):
            t += 1.0
            reports.append(
                Report(f"liar{i}", "anchor", t, attitude=Attitude.DISAGREE)
            )
        truths["anchor"] = TruthValue.TRUE
        return reports, truths

    @pytest.mark.parametrize(
        "algo", [TruthFinder(), RTD(), Invest()], ids=lambda a: a.name
    )
    def test_downweights_prolific_liars(self, algo):
        reports, truths = self._spreader_scenario()
        grid = grid_over(reports, step=1000.0)
        estimates = algo.discover(reports, grid)
        decided = {e.claim_id: e.value for e in estimates}
        correct = sum(1 for cid, v in decided.items() if v is truths[cid])
        assert correct >= 0.75 * len(truths), algo.name


class TestDynaTD:
    def test_adapts_to_truth_flip(self):
        rng = np.random.default_rng(3)
        reports = []
        for k in range(2000):
            t = float(rng.uniform(0, 1000))
            truth = t >= 500
            tells = rng.random() < 0.8
            says_true = truth if tells else not truth
            reports.append(
                Report(
                    f"s{k % 100}", "c1", t,
                    attitude=Attitude.AGREE if says_true else Attitude.DISAGREE,
                )
            )
        algo = DynaTD()
        grid = EvaluationGrid(0.0, 1000.0, step=20.0)
        estimates = algo.discover(reports, grid)
        late = [e for e in estimates if e.timestamp > 600]
        early = [e for e in estimates if e.timestamp < 450]
        assert all(e.value is TruthValue.TRUE for e in late[-5:])
        assert sum(1 for e in early if e.value is TruthValue.FALSE) > 0.8 * len(early)

    def test_reliability_learning(self):
        algo = DynaTD()
        reports = [
            Report("good", "c1", 1.0, attitude=Attitude.AGREE),
            Report("good2", "c1", 1.0, attitude=Attitude.AGREE),
            Report("bad", "c1", 1.0, attitude=Attitude.DISAGREE),
        ]
        algo.step(reports, now=1.0)
        assert algo.source_reliability("good") > algo.source_reliability("bad")

    def test_reset_clears_state(self):
        algo = DynaTD()
        algo.step([Report("a", "c1", 1.0, attitude=Attitude.AGREE)], now=1.0)
        algo.reset()
        assert algo.step([], now=2.0) == []

    def test_evidence_decays(self):
        algo = DynaTD()
        algo.step([Report("a", "c1", 1.0, attitude=Attitude.AGREE)], now=1.0)
        first = algo._evidence["c1"]
        algo.step([], now=2.0)
        assert algo._evidence["c1"] == pytest.approx(first * DECAY)


class TestRegistry:
    def test_paper_comparison_set_order(self):
        algos = paper_comparison_set()
        assert [a.name for a in algos] == list(PAPER_TABLE_METHODS)

    def test_make_algorithm_unknown(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_algorithm("nope")

    def test_sstd_adapter_emits_grid_estimates(self):
        reports, _ = simple_scenario(n_sources=20, n_claims=2)
        grid = grid_over(reports, step=20.0)
        estimates = SSTDAlgorithm().discover(reports, grid)
        timestamps = {e.timestamp for e in estimates}
        assert timestamps <= set(grid.times().tolist())

