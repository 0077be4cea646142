"""Tests for Aggregated Contribution Score sequences (paper Eq. (4))."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acs import ACSConfig, SlidingWindowACS, acs_sequence
from repro.core.scores import ScoreWeights
from repro.core.types import Attitude, Report


def report(t, attitude=Attitude.AGREE, uncertainty=0.0, independence=1.0):
    return Report(
        "s1", "c1", t,
        attitude=attitude, uncertainty=uncertainty, independence=independence,
    )


CONFIG = ACSConfig(window=10.0, step=5.0)


def brute_force_acs(batch, t, config):
    """The ACS at grid point ``t``, report by report: the mean score of
    the reports inside ``(t - window, t]``, NaN when there are none."""
    inside = [r for r in batch if t - config.window < r.timestamp <= t]
    if not inside:
        return math.nan
    return sum(config.weights.score(r) for r in inside) / len(inside)


class TestACSConfig:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ACSConfig(window=0.0)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ACSConfig(step=-1.0)

    def test_grid_covers_span(self):
        grid = ACSConfig(window=10, step=10).grid(0.0, 35.0)
        assert list(grid) == [10.0, 20.0, 30.0, 40.0]

    def test_grid_minimum_one_point(self):
        grid = ACSConfig(window=10, step=10).grid(0.0, 0.0)
        assert len(grid) == 1

    def test_finalize_normalized(self):
        # Scores 1.0 and 0.5 in the first window, none in the second.
        batch = [report(1.0), report(2.0, independence=0.5)]
        _, values = acs_sequence(batch, CONFIG, start=0.0, end=20.0)
        assert values[0] == 0.75
        assert math.isnan(values[-1])


class TestACSSequence:
    def test_simple_sum(self):
        batch = [report(1.0), report(2.0), report(3.0, Attitude.DISAGREE)]
        times, values = acs_sequence(batch, CONFIG)
        # grid from t=1: [6.0] — window (−4, 6] contains all three
        assert values[0] == pytest.approx(brute_force_acs(batch, 6.0, CONFIG))
        assert values[0] == pytest.approx(1.0 / 3.0)

    def test_window_excludes_old_reports(self):
        batch = [report(0.0), report(100.0)]
        config = ACSConfig(window=10.0, step=50.0)
        times, values = acs_sequence(batch, config)
        # grid points at 50 and 100: the t=0 report is expired by t=50
        assert math.isnan(values[0])
        assert values[1] == 1.0

    def test_empty_reports_with_span(self):
        times, values = acs_sequence([], CONFIG, start=0.0, end=20.0)
        assert len(times) == 4
        assert all(math.isnan(v) for v in values)

    def test_empty_reports_no_span(self):
        times, values = acs_sequence([], CONFIG)
        assert times.size == 0 and values.size == 0

    def test_normalization_divides_by_count(self):
        batch = [report(1.0), report(2.0), report(3.0, Attitude.DISAGREE)]
        _, values = acs_sequence(batch, CONFIG)
        assert values[0] == pytest.approx(1.0 / 3.0)

    def test_matches_pointwise_acs_at(self):
        """Each grid value is the Eq. (4) sum over the reports inside
        ``(t - window, t]`` over their count, written out report by
        report."""
        batch = [report(float(t), Attitude.AGREE if t % 3 else Attitude.DISAGREE)
                 for t in range(20)]
        times, values = acs_sequence(batch, CONFIG, start=0.0, end=40.0)
        assert np.isnan(values).any()
        for t, v in zip(times, values):
            expected = brute_force_acs(batch, t, CONFIG)
            assert v == pytest.approx(expected, nan_ok=True)

    def test_respects_score_weights(self):
        config = ACSConfig(
            window=10.0, step=5.0,
            weights=ScoreWeights(use_uncertainty=False, use_independence=False),
        )
        batch = [report(1.0, uncertainty=0.9, independence=0.001)]
        _, values = acs_sequence(batch, config)
        assert values[0] == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        raw=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.sampled_from(list(Attitude)),
                st.floats(min_value=0.0, max_value=0.99),
            ),
            max_size=40,
        ),
    )
    def test_vectorised_finalise_equals_scalar_finalize(self, raw):
        """The whole-grid finalisation is the scalar rule — a window's
        sum over its count, NaN for an empty window — applied
        elementwise: same bits, NaN where the scalar says NaN."""
        config = ACSConfig(window=7.0, step=3.0)
        batch = sorted(
            (report(t, attitude, uncertainty) for t, attitude, uncertainty in raw),
            key=lambda r: r.timestamp,
        )
        times, values = acs_sequence(batch, config, start=0.0, end=100.0)
        # The same (sum, count) pairs acs_sequence finalises: windowed
        # differences of the score prefix sum.
        timestamps = np.array([r.timestamp for r in batch])
        scores = [config.weights.score(r) for r in batch]
        prefix = np.concatenate([[0.0], np.cumsum(scores)])
        lo = np.searchsorted(timestamps, times - config.window, side="right")
        hi = np.searchsorted(timestamps, times, side="right")
        expected = np.array(
            [
                (prefix[h] - prefix[l]) / (h - l) if h > l else math.nan
                for l, h in zip(lo, hi)
            ]
        )
        assert values.dtype == expected.dtype == np.float64
        assert values.tobytes() == expected.tobytes()
        assert np.isnan(values).any() == bool((hi == lo).any())


class TestSlidingWindowACS:
    def test_matches_batch_on_grid(self):
        rng = np.random.default_rng(3)
        batch = sorted(
            (report(float(t), Attitude.AGREE if rng.random() < 0.6 else Attitude.DISAGREE)
             for t in rng.uniform(0, 100, size=50)),
            key=lambda r: r.timestamp,
        )
        config = ACSConfig(window=15.0, step=5.0)
        times, expected = acs_sequence(batch, config, start=0.0, end=100.0)

        window = SlidingWindowACS(15.0)
        cursor = 0
        for t, exp in zip(times, expected):
            while cursor < len(batch) and batch[cursor].timestamp <= t:
                window.push(batch[cursor])
                cursor += 1
            got = window.value_at(float(t))
            if math.isnan(exp):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(exp)

    def test_out_of_order_push_rejected(self):
        window = SlidingWindowACS(10.0)
        window.push(report(5.0))
        with pytest.raises(ValueError, match="out-of-order"):
            window.push(report(1.0))

    def test_eviction(self):
        window = SlidingWindowACS(10.0)
        window.push(report(0.0))
        assert window.value_at(5.0) == 1.0
        assert math.isnan(window.value_at(11.0))
        assert len(window) == 0

    def test_future_reports_not_counted(self):
        window = SlidingWindowACS(10.0)
        window.push(report(1.0))
        window.push(report(8.0, Attitude.DISAGREE))
        assert window.value_at(5.0) == 1.0
        batch = [report(1.0), report(8.0, Attitude.DISAGREE)]
        assert window.value_at(9.0) == brute_force_acs(batch, 9.0, CONFIG)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            SlidingWindowACS(0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1, max_size=40,
        )
    )
    def test_incremental_equals_batch_property(self, raw_times):
        """Streaming accumulator always agrees with the batch formula."""
        raw_times.sort()
        batch = [report(t) for t in raw_times]
        config = ACSConfig(window=7.0, step=3.0)
        times, expected = acs_sequence(batch, config, start=0.0, end=100.0)
        window = SlidingWindowACS(7.0)
        cursor = 0
        for t, exp in zip(times, expected):
            while cursor < len(batch) and batch[cursor].timestamp <= t:
                window.push(batch[cursor])
                cursor += 1
            got = window.value_at(float(t))
            assert (math.isnan(got) and math.isnan(exp)) or got == pytest.approx(exp)
