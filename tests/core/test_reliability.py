"""Tests for posterior source-reliability estimation."""

import dataclasses

import pytest

from repro.baselines import EvaluationGrid, SSTDAlgorithm
from repro.core.reliability import (
    N_BINS,
    ReliabilityEstimator,
    SourceReliability,
    evaluate_reliability_estimates,
    rank_spreaders,
    reliability_histogram,
)
from repro.core.types import Attitude, Report, TruthEstimate, TruthValue
from repro.streams import generate_trace, osu_attack


def estimates_for(claim_id, pairs):
    return [
        TruthEstimate(claim_id, float(t), value) for t, value in pairs
    ]


class TestSourceReliability:
    def test_raw_accuracy(self):
        record = SourceReliability("s", n_scored=10, n_correct=8)
        assert record.raw_accuracy == 0.8

    def test_unscored_is_half(self):
        record = SourceReliability("s", n_scored=0, n_correct=0)
        assert record.raw_accuracy == 0.5
        assert record.reliability == 0.5

    def test_smoothing_shrinks_small_samples(self):
        one_shot = SourceReliability("s", n_scored=1, n_correct=1)
        veteran = SourceReliability("s", n_scored=100, n_correct=100)
        assert one_shot.reliability < veteran.reliability
        assert one_shot.reliability < 0.8

    def test_spreader_flag(self):
        spreader = SourceReliability("s", n_scored=10, n_correct=1)
        assert spreader.is_likely_spreader
        newbie = SourceReliability("s", n_scored=1, n_correct=0)
        assert not newbie.is_likely_spreader  # too little evidence

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceReliability("s", n_scored=1, n_correct=2)
        with pytest.raises(ValueError):
            SourceReliability("s", n_scored=-1, n_correct=0)


class TestReliabilityEstimator:
    def test_scores_against_estimates(self):
        estimates = estimates_for(
            "c", [(10.0, TruthValue.TRUE), (20.0, TruthValue.FALSE)]
        )
        reports = [
            Report("good", "c", 12.0, attitude=Attitude.AGREE),     # correct
            Report("good", "c", 22.0, attitude=Attitude.DISAGREE),  # correct
            Report("bad", "c", 12.0, attitude=Attitude.DISAGREE),   # wrong
        ]
        result = ReliabilityEstimator().estimate(reports, estimates)
        assert result["good"].n_correct == 2
        assert result["bad"].n_correct == 0
        assert result["good"].reliability > result["bad"].reliability

    def test_neutral_reports_skipped(self):
        estimates = estimates_for("c", [(10.0, TruthValue.TRUE)])
        reports = [Report("s", "c", 12.0, attitude=Attitude.NEUTRAL)]
        assert ReliabilityEstimator().estimate(reports, estimates) == {}

    def test_unknown_claims_skipped(self):
        estimates = estimates_for("c", [(10.0, TruthValue.TRUE)])
        reports = [Report("s", "other", 12.0, attitude=Attitude.AGREE)]
        assert ReliabilityEstimator().estimate(reports, estimates) == {}

    def test_reports_before_the_first_estimate_skipped(self):
        estimates = estimates_for("c", [(100.0, TruthValue.TRUE)])
        reports = [
            Report("early", "c", 99.0, attitude=Attitude.AGREE),
            Report("on_time", "c", 100.0, attitude=Attitude.AGREE),
        ]
        result = ReliabilityEstimator().estimate(reports, estimates)
        assert set(result) == {"on_time"}

    def test_truth_tracked_over_time(self):
        """A source agreeing before the flip and disagreeing after is
        scored correct both times."""
        estimates = estimates_for(
            "c", [(10.0, TruthValue.TRUE), (100.0, TruthValue.FALSE)]
        )
        reports = [
            Report("s", "c", 50.0, attitude=Attitude.AGREE),
            Report("s", "c", 150.0, attitude=Attitude.DISAGREE),
        ]
        result = ReliabilityEstimator().estimate(reports, estimates)
        assert result["s"].n_correct == 2

    def test_end_to_end_with_sstd(self):
        """Reliable generator sources score higher than spreaders."""
        import numpy as np

        from repro.core import SSTD, SSTDConfig
        from repro.core.acs import ACSConfig

        rng = np.random.default_rng(0)
        reports = []
        for k in range(1500):
            t = float(rng.uniform(0, 10_000))
            truth = t >= 5_000
            source = f"good{k % 50}" if k % 5 else f"bad{k % 7}"
            reliability = 0.9 if source.startswith("good") else 0.15
            says_true = truth if rng.random() < reliability else not truth
            reports.append(
                Report(
                    source, "c1", t,
                    attitude=Attitude.AGREE if says_true else Attitude.DISAGREE,
                )
            )
        reports.sort(key=lambda r: r.timestamp)
        engine = SSTD(SSTDConfig(acs=ACSConfig(window=400.0, step=200.0)))
        estimates = engine.discover(reports)
        result = ReliabilityEstimator().estimate(reports, estimates)
        good = [v.reliability for s, v in result.items() if s.startswith("good")]
        bad = [v.reliability for s, v in result.items() if s.startswith("bad")]
        assert sum(good) / len(good) > 0.7
        assert sum(bad) / len(bad) < 0.45
        spreaders = rank_spreaders(result, top_k=100)
        assert spreaders
        assert all(s.source_id.startswith("bad") for s in spreaders)


@pytest.fixture(scope="module")
def sstd_run():
    """Reports and SSTD estimates on a 1 800 s grid, osu x0.05, seed 1."""
    trace = generate_trace(osu_attack().scaled(0.05), seed=1)
    grid = EvaluationGrid(trace.start, trace.end, step=1800.0)
    return trace.reports, SSTDAlgorithm().discover(trace.reports, grid)


@pytest.mark.parametrize("shift", [0.0, 1.7e9])
def test_clock_origin_does_not_matter(sstd_run, shift):
    """Only reports at or after their claim's first estimate are scored,
    wherever the clock starts."""
    reports, estimates = sstd_run
    shifted = ReliabilityEstimator().estimate(
        [dataclasses.replace(r, timestamp=r.timestamp + shift) for r in reports],
        [dataclasses.replace(e, timestamp=e.timestamp + shift) for e in estimates],
    )
    assert shifted == ReliabilityEstimator().estimate(reports, estimates)
    first = {}
    for e in estimates:
        first[e.claim_id] = min(first.get(e.claim_id, e.timestamp), e.timestamp)
    scorable = [
        r for r in reports
        if r.attitude and r.claim_id in first and r.timestamp >= first[r.claim_id]
    ]
    assert sum(record.n_scored for record in shifted.values()) == len(scorable)


class TestDiagnostics:
    def _records(self):
        return {
            "a": SourceReliability("a", 10, 9),
            "b": SourceReliability("b", 10, 1),
            "c": SourceReliability("c", 4, 0),
            "d": SourceReliability("d", 1, 1),
        }

    def test_rank_spreaders_orders_worst_first(self):
        spreaders = rank_spreaders(self._records())
        ids = [s.source_id for s in spreaders]
        assert "a" not in ids
        assert ids[0] in {"b", "c"}

    def test_histogram_covers_all_sources(self):
        histogram = reliability_histogram(self._records())
        assert len(histogram) == N_BINS
        assert sum(count for _, _, count in histogram) == 4
        assert histogram[0][0] == 0.0 and histogram[-1][1] == 1.0

    def test_evaluate_against_ground_truth(self):
        records = {
            "a": SourceReliability("a", 10, 9),   # raw 0.9
            "b": SourceReliability("b", 10, 2),   # raw 0.2
            "tiny": SourceReliability("tiny", 1, 1),  # excluded (min_scored)
        }
        truth = {"a": 0.9, "b": 0.3, "tiny": 0.0}
        mae = evaluate_reliability_estimates(records, truth)
        assert mae == pytest.approx((0.0 + 0.1) / 2)

    def test_evaluate_empty(self):
        assert evaluate_reliability_estimates({}, {}) == 0.0
