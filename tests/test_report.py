"""Tests for the plain-text rendering helpers."""

import math

import pytest

from repro.core.types import TruthEstimate, TruthLabel, TruthTimeline, TruthValue
from repro.report import (
    BAR_WIDTH,
    STRIP_WIDTH,
    bar_chart,
    estimate_strip,
    hit_rate_table,
    side_by_side,
    sparkline,
    timeline_strip,
    truth_strip,
)


class TestSparkline:
    def test_monotone_series(self):
        assert sparkline([0.0, 0.5, 1.0]) == "▁▄█"

    def test_constant_series(self):
        line = sparkline([2.0, 2.0, 2.0])
        assert len(set(line)) == 1

    def test_nan_renders_as_space(self):
        assert sparkline([0.0, math.nan, 1.0])[1] == " "

    def test_all_nan(self):
        assert sparkline([math.nan, math.nan]) == "  "

    def test_empty(self):
        assert sparkline([]) == ""


class TestTruthStrips:
    def test_truth_strip(self):
        assert truth_strip([TruthValue.FALSE, TruthValue.TRUE]) == "·█"

    def test_estimate_strip_sorts_by_time(self):
        estimates = [
            TruthEstimate("c", 2.0, TruthValue.TRUE),
            TruthEstimate("c", 1.0, TruthValue.FALSE),
        ]
        assert estimate_strip(estimates) == "·█"

    def test_timeline_strip(self):
        timeline = TruthTimeline(
            "c",
            [
                TruthLabel("c", 0.0, 50.0, TruthValue.FALSE),
                TruthLabel("c", 50.0, 100.0, TruthValue.TRUE),
            ],
        )
        strip = timeline_strip(timeline, 0.0, 100.0)
        half = STRIP_WIDTH // 2
        assert strip == "·" * half + "█" * (STRIP_WIDTH - half)

    def test_timeline_strip_validation(self):
        timeline = TruthTimeline(
            "c", [TruthLabel("c", 0.0, 1.0, TruthValue.TRUE)]
        )
        with pytest.raises(ValueError):
            timeline_strip(timeline, 1.0, 0.0)

    def test_side_by_side_aligned(self):
        timeline = TruthTimeline(
            "c",
            [
                TruthLabel("c", 0.0, 50.0, TruthValue.FALSE),
                TruthLabel("c", 50.0, 100.0, TruthValue.TRUE),
            ],
        )
        estimates = [
            TruthEstimate("c", float(t), timeline.value_at(float(t)))
            for t in range(0, 100, 5)
        ]
        output = side_by_side(estimates, timeline)
        top, bottom = output.splitlines()
        assert top.startswith("estimate")
        assert bottom.startswith("truth")
        # Perfect estimates: the two strips agree except possibly at the
        # single transition cell.
        diff = sum(
            1
            for a, b in zip(top[-STRIP_WIDTH:], bottom[-STRIP_WIDTH:])
            if a != b
        )
        assert diff <= 1

    def test_side_by_side_requires_estimates(self):
        timeline = TruthTimeline(
            "c", [TruthLabel("c", 0.0, 1.0, TruthValue.TRUE)]
        )
        with pytest.raises(ValueError):
            side_by_side([], timeline)


class TestBarChart:
    def test_scales_to_max(self):
        output = bar_chart({"a": 2.0, "b": 1.0})
        lines = output.splitlines()
        assert lines[0].count("█") == BAR_WIDTH
        assert lines[1].count("█") == BAR_WIDTH // 2

    def test_empty(self):
        assert bar_chart({}) == ""

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart({"a": -1.0})


class TestHitRateTable:
    def test_layout(self):
        output = hit_rate_table(
            {"SSTD": [1.0, 1.0], "RTD": [0.2, 0.9]}, deadlines=[0.5, 2.0]
        )
        lines = output.splitlines()
        assert len(lines) == 3
        assert "SSTD" in lines[0] and "RTD" in lines[0]
        assert "100%" in lines[1]
        assert "20%" in lines[1]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            hit_rate_table({"x": [1.5]}, deadlines=[1.0])
