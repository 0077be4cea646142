"""Tests for Aggregated Contribution Score sequences (paper Eq. (4))."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acs import ACSConfig, SlidingWindowACS, acs_sequence
from repro.core.scores import FULL_WEIGHTS, ScoreWeights
from repro.core.types import Attitude, Report


def report(t, attitude=Attitude.AGREE, uncertainty=0.0, independence=1.0):
    return Report(
        "s1", "c1", t,
        attitude=attitude, uncertainty=uncertainty, independence=independence,
    )


CONFIG = ACSConfig(window=10.0, step=5.0)


def eq1_score(report, weights=FULL_WEIGHTS):
    """Eq. (1) written out, ``attitude * (1 - uncertainty) *
    independence``, with a factor read as 1 when its toggle is off."""
    value = float(report.attitude)
    if weights.use_uncertainty:
        value *= 1.0 - report.uncertainty
    if weights.use_independence:
        value *= report.independence
    return value


def brute_force_acs(batch, t, config):
    """The ACS at grid point ``t``, report by report: the scores of the
    reports inside ``(t - window, t]`` summed one at a time in ``batch``
    order, over their count; NaN when there are none."""
    total, count = 0.0, 0
    for r in batch:
        if t - config.window < r.timestamp <= t:
            total += eq1_score(r, config.weights)
            count += 1
    return total / count if count else math.nan


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
        scores = [eq1_score(r, config.weights) for r in batch]
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


def push(window, batch, slot=0):
    """Push ``batch`` into ``window`` as rows of one slot, in list order."""
    window.push(
        np.full(len(batch), slot, dtype=np.intp),
        np.array([r.timestamp for r in batch], dtype=float),
        np.array([eq1_score(r) for r in batch], dtype=float),
    )


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
            arrived = [r for r in batch[cursor:] if r.timestamp <= t]
            push(window, arrived)
            cursor += len(arrived)
            (got,) = window.value_at(float(t), 1)
            if math.isnan(exp):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(exp)

    def test_late_report_counts_inside_the_window_only(self):
        window = SlidingWindowACS(10.0)
        push(window, [report(5.0)])
        assert window.value_at(6.0, 1).tolist() == [1.0]
        # Late, but inside (2, 12]: it counts.
        late = report(3.0, Attitude.DISAGREE, independence=0.5)
        push(window, [late])
        assert window.value_at(12.0, 1).tolist() == [0.25]
        # At the last cutoff (12 - 10) and before it: never counted.
        push(window, [report(2.0), report(1.0)])
        assert window.value_at(12.5, 1).tolist() == [0.25]
        assert len(window) == 2

    def test_eviction(self):
        window = SlidingWindowACS(10.0)
        push(window, [report(0.0)])
        assert window.value_at(5.0, 1).tolist() == [1.0]
        assert math.isnan(window.value_at(11.0, 1)[0])
        assert len(window) == 0

    def test_future_reports_not_counted(self):
        window = SlidingWindowACS(10.0)
        batch = [report(1.0), report(8.0, Attitude.DISAGREE)]
        push(window, batch)
        assert window.value_at(5.0, 1).tolist() == [1.0]
        assert window.value_at(9.0, 1)[0] == brute_force_acs(batch, 9.0, CONFIG)

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
            arrived = [r for r in batch[cursor:] if r.timestamp <= t]
            push(window, arrived)
            cursor += len(arrived)
            (got,) = window.value_at(float(t), 1)
            assert (math.isnan(got) and math.isnan(exp)) or got == pytest.approx(exp)

    @settings(max_examples=40, deadline=None)
    @given(
        ticks=st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=6.0),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=3),
                        st.floats(min_value=-12.0, max_value=4.0),
                        st.sampled_from(list(Attitude)),
                        st.floats(min_value=0.0, max_value=0.99),
                    ),
                    max_size=8,
                ),
            ),
            min_size=1, max_size=15,
        )
    )
    def test_stack_equals_each_claims_window(self, ticks):
        """Every slot of the stack reads its own window, bit for bit:
        reports pushed in any time order, each tick's batch stamped from
        before the last cutoff to after the tick."""
        config = ACSConfig(window=7.0, step=3.0)
        window = SlidingWindowACS(config.window)
        pushed: list[list[Report]] = [[] for _ in range(4)]
        now = 20.0
        for advance, rows in ticks:
            now += advance
            batch = [
                (slot, report(now + offset, attitude, uncertainty))
                for slot, offset, attitude, uncertainty in rows
            ]
            window.push(
                np.array([slot for slot, _ in batch], dtype=np.intp),
                np.array([r.timestamp for _, r in batch], dtype=float),
                np.array([eq1_score(r) for _, r in batch], dtype=float),
            )
            for slot, r in batch:
                pushed[slot].append(r)
            expected = [brute_force_acs(rs, now, config) for rs in pushed]
            got = window.value_at(now, 4)
            np.testing.assert_array_equal(got, expected)
