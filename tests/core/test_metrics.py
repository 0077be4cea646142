"""Tests for the evaluation metrics (paper Section V-B1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import DynaTD
from repro.baselines.base import EvaluationGrid
from repro.core.columns import Estimates
from repro.core.metrics import (
    ConfusionMatrix,
    EvaluationResult,
    evaluate_estimates,
    evaluate_per_claim,
    format_results_table,
)
from repro.core.sstd import SSTD
from repro.core.types import TruthEstimate, TruthLabel, TruthTimeline, TruthValue
from repro.streams import generate_trace, paris_shooting


class TestConfusionMatrix:
    def test_perfect(self):
        matrix = ConfusionMatrix(tp=5, tn=5)
        assert matrix.accuracy == 1.0
        assert matrix.precision == 1.0
        assert matrix.recall == 1.0
        assert matrix.f1 == 1.0

    def test_empty_is_zero(self):
        matrix = ConfusionMatrix()
        assert matrix.accuracy == 0.0
        assert matrix.precision == 0.0
        assert matrix.recall == 0.0
        assert matrix.f1 == 0.0

    def test_known_values(self):
        matrix = ConfusionMatrix(tp=6, fp=2, tn=8, fn=4)
        assert matrix.accuracy == pytest.approx(14 / 20)
        assert matrix.precision == pytest.approx(6 / 8)
        assert matrix.recall == pytest.approx(6 / 10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1)

    def test_addition(self):
        total = ConfusionMatrix(tp=1, fp=2) + ConfusionMatrix(tn=3, fn=4)
        assert (total.tp, total.fp, total.tn, total.fn) == (1, 2, 3, 4)

    def test_from_pairs(self):
        pairs = [
            (TruthValue.TRUE, TruthValue.TRUE),    # tp
            (TruthValue.TRUE, TruthValue.FALSE),   # fp
            (TruthValue.FALSE, TruthValue.FALSE),  # tn
            (TruthValue.FALSE, TruthValue.TRUE),   # fn
        ]
        matrix = ConfusionMatrix.from_pairs(pairs)
        assert (matrix.tp, matrix.fp, matrix.tn, matrix.fn) == (1, 1, 1, 1)

    @given(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    def test_f1_is_harmonic_mean(self, tp, fp, tn, fn):
        matrix = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
        p, r = matrix.precision, matrix.recall
        if p + r > 0:
            assert matrix.f1 == pytest.approx(2 * p * r / (p + r))
        else:
            assert matrix.f1 == 0.0

    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_metrics_bounded(self, tp, fp, tn, fn):
        matrix = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
        for value in (matrix.accuracy, matrix.precision, matrix.recall, matrix.f1):
            assert 0.0 <= value <= 1.0


class TestEvaluateEstimates:
    def _timeline(self):
        return {
            "c1": TruthTimeline(
                "c1",
                [
                    TruthLabel("c1", 0.0, 10.0, TruthValue.FALSE),
                    TruthLabel("c1", 10.0, 20.0, TruthValue.TRUE),
                ],
            )
        }

    def test_dynamic_alignment(self):
        """An estimate is compared with the truth *at its own timestamp*."""
        estimates = [
            TruthEstimate("c1", 5.0, TruthValue.FALSE),   # correct
            TruthEstimate("c1", 15.0, TruthValue.FALSE),  # wrong: truth flipped
        ]
        result = evaluate_estimates("m", estimates, self._timeline())
        assert result.accuracy == 0.5

    def test_unlabelled_claims_skipped(self):
        estimates = [TruthEstimate("zzz", 5.0, TruthValue.TRUE)]
        result = evaluate_estimates("m", estimates, self._timeline())
        assert result.matrix.total == 0

    def test_as_row_rounds(self):
        result = EvaluationResult(
            "m", ConfusionMatrix(tp=1, fp=2, tn=0, fn=0)
        )
        row = result.as_row()
        assert row["method"] == "m"
        assert row["precision"] == pytest.approx(0.333)


class TestFormatTable:
    def test_contains_all_methods(self):
        results = [
            EvaluationResult("SSTD", ConfusionMatrix(tp=9, tn=9, fp=1, fn=1)),
            EvaluationResult("DynaTD", ConfusionMatrix(tp=7, tn=7, fp=3, fn=3)),
        ]
        table = format_results_table(results, title="Table III")
        assert "Table III" in table
        assert "SSTD" in table and "DynaTD" in table
        assert "0.900" in table


class TestPerClaimBreakdown:
    def _setup(self):
        from repro.core.metrics import evaluate_per_claim

        timelines = {
            "easy": TruthTimeline(
                "easy", [TruthLabel("easy", 0.0, 10.0, TruthValue.TRUE)]
            ),
            "hard": TruthTimeline(
                "hard", [TruthLabel("hard", 0.0, 10.0, TruthValue.FALSE)]
            ),
        }
        estimates = [
            TruthEstimate("easy", 1.0, TruthValue.TRUE),
            TruthEstimate("easy", 2.0, TruthValue.TRUE),
            TruthEstimate("hard", 1.0, TruthValue.TRUE),   # wrong
            TruthEstimate("hard", 2.0, TruthValue.FALSE),  # right
            TruthEstimate("unknown", 1.0, TruthValue.TRUE),
        ]
        return evaluate_per_claim("m", estimates, timelines), timelines

    def test_per_claim_accuracies(self):
        per_claim, _ = self._setup()
        assert per_claim["easy"].accuracy == 1.0
        assert per_claim["hard"].accuracy == 0.5
        assert "unknown" not in per_claim

    def test_hardest_claims_ranked(self):
        from repro.core.metrics import hardest_claims

        per_claim, _ = self._setup()
        worst = hardest_claims(per_claim, worst_k=1)
        assert worst == [("hard", 0.5)]

    def test_per_claim_sums_to_overall(self):
        from repro.core.metrics import evaluate_per_claim

        per_claim, timelines = self._setup()
        total = sum(r.matrix.total for r in per_claim.values())
        assert total == 4  # unknown claim excluded


def timelines_strategy():
    """A timeline of 1-5 labels on an integer grid, some with gaps."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, 5))
        edges = sorted(
            draw(st.sets(st.integers(0, 30), min_size=2 * n, max_size=2 * n))
        )
        values = draw(
            st.lists(st.sampled_from(list(TruthValue)), min_size=n, max_size=n)
        )
        # Labels [e0, e1), [e2, e3), ...: a gap wherever e(2k+1) < e(2k+2).
        gapless = draw(st.booleans())
        labels = []
        for k in range(n):
            start, end = edges[2 * k], edges[2 * k + 1]
            if gapless and k + 1 < n:
                end = edges[2 * k + 2]
            labels.append(TruthLabel("c", float(start), float(end), values[k]))
        return TruthTimeline("c", labels)

    return build()


class TestColumnAlignment:
    @settings(max_examples=80, deadline=None)
    @given(
        timeline=timelines_strategy(),
        # Half-steps hit label edges exactly and every gap; -3 and 33 lie
        # before the first label and after the last.
        times=st.lists(st.integers(-6, 66).map(lambda k: k / 2.0), max_size=30),
    )
    def test_codes_at_matches_value_at(self, timeline, times):
        edges = [x for lab in timeline.labels for x in (lab.start, lab.end)]
        queries = np.array(times + edges + [-3.0, 33.0])
        expected = [int(timeline.value_at(t)) for t in queries.tolist()]
        assert timeline.codes_at(queries).tolist() == expected

    @staticmethod
    def object_counts(estimates, timelines):
        """The per-estimate alignment: the reference."""
        pairs = [
            (e.value, timelines[e.claim_id].value_at(e.timestamp))
            for e in estimates
            if e.claim_id in timelines
        ]
        return ConfusionMatrix.from_pairs(pairs)

    def test_counts_equal_the_object_path(self):
        trace = generate_trace(paris_shooting().scaled(0.002), seed=3)
        grid = EvaluationGrid(trace.start, trace.end, 600.0)
        for estimates in (
            SSTD().discover(trace.reports),
            DynaTD().discover(trace.reports, grid),
        ):
            objects = list(estimates)
            expected = self.object_counts(objects, trace.timelines)
            assert expected.total > 0
            for given_as in (estimates, objects, Estimates.of(objects)):
                result = evaluate_estimates("m", given_as, trace.timelines)
                assert result.matrix == expected
            per_claim = evaluate_per_claim("m", objects, trace.timelines)
            for claim_id, result in per_claim.items():
                mine = [e for e in objects if e.claim_id == claim_id]
                assert result.matrix == self.object_counts(
                    mine, trace.timelines
                )
            # Claims come in order of their first estimate.
            first_seen = list(dict.fromkeys(e.claim_id for e in objects))
            assert list(per_claim) == [
                c for c in first_seen if c in trace.timelines
            ]
