"""Tests for the sliding-window voting baseline."""

import numpy as np
import pytest

from repro.baselines import EvaluationGrid, SlidingVote
from repro.core.types import Attitude, Report, TruthValue


def flip_reports(seed=0, n=1000, duration=1000.0, flip_at=500.0):
    rng = np.random.default_rng(seed)
    reports = []
    for k in range(n):
        t = float(rng.uniform(0, duration))
        truth = t >= flip_at
        says = truth if rng.random() < 0.85 else not truth
        reports.append(
            Report(
                f"s{k}", "c", t,
                attitude=Attitude.AGREE if says else Attitude.DISAGREE,
            )
        )
    return sorted(reports, key=lambda r: r.timestamp)


class TestSlidingVote:
    def test_tracks_flip(self):
        reports = flip_reports()
        grid = EvaluationGrid(0.0, 1000.0, step=25.0)
        estimates = SlidingVote().discover(reports, grid)
        errors = sum(
            1 for e in estimates
            if (e.value is TruthValue.TRUE) != (e.timestamp >= 500.0)
        )
        assert errors / len(estimates) < 0.15

    def test_carry_forward_through_gaps(self):
        reports = [
            Report("s1", "c", 10.0, attitude=Attitude.AGREE),
            Report("s2", "c", 12.0, attitude=Attitude.AGREE),
        ]
        grid = EvaluationGrid(0.0, 100.0, step=10.0)
        estimates = SlidingVote().discover(reports, grid)
        assert all(e.value is TruthValue.TRUE for e in estimates[1:])

    def test_confidence_reflects_margin(self):
        reports = [
            Report("a", "c", 1.0, attitude=Attitude.AGREE),
            Report("b", "c", 2.0, attitude=Attitude.AGREE),
            Report("d", "c", 3.0, attitude=Attitude.DISAGREE),
        ]
        grid = EvaluationGrid(0.0, 10.0, step=10.0)
        (estimate,) = SlidingVote().discover(reports, grid)
        assert estimate.confidence == pytest.approx(1.0 / 3.0)

    def test_empty_reports(self):
        grid = EvaluationGrid(0.0, 10.0, step=5.0)
        assert SlidingVote().discover([], grid) == []

    def test_registered(self):
        from repro.baselines import make_algorithm

        assert make_algorithm("SlidingVote").name == "SlidingVote"
