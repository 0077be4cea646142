"""The columnar report table: one read of the reports, the same bits."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.acs import ACSConfig, ClaimRows, ReportTable, acs_sequence
from repro.core.scores import ScoreWeights
from repro.core.types import Attitude, Report
from repro.devtools import contracts as ct
from tests.core.test_acs import eq1_score

TOGGLES = [
    ScoreWeights(use_uncertainty=u, use_independence=i)
    for u, i in itertools.product((True, False), repeat=2)
]
CONFIG = ACSConfig(window=100.0, step=30.0)


def report(claim, t, attitude=Attitude.AGREE, uncertainty=0.0, independence=1.0):
    return Report(
        "s", claim, t,
        attitude=attitude, uncertainty=uncertainty, independence=independence,
    )


reports_strategy = st.lists(
    st.builds(
        report,
        claim=st.sampled_from(["c-b", "c-a", "c-c"]),
        # A coarse grid of times makes equal timestamps common.
        t=st.one_of(
            st.floats(min_value=0.0, max_value=600.0),
            st.integers(min_value=0, max_value=20).map(lambda k: 30.0 * k),
        ),
        attitude=st.sampled_from(list(Attitude)),
        uncertainty=st.floats(min_value=0.0, max_value=0.999),
        independence=st.floats(min_value=0.001, max_value=1.0),
    ),
    max_size=60,
)


def expected_order(reports):
    """Row order of the table: claim, then time, ties in input order."""
    return sorted(
        range(len(reports)),
        key=lambda i: (reports[i].claim_id, reports[i].timestamp),
    )


@pytest.mark.parametrize("weights", TOGGLES, ids=str)
@given(reports=reports_strategy)
def test_score_column_has_the_bits_of_score(weights, reports):
    column = weights.score_column(reports)
    expected = np.array([eq1_score(r, weights) for r in reports], dtype=np.float64)
    assert column.dtype == np.float64
    assert column.tobytes() == expected.tobytes()


@pytest.mark.parametrize("weights", TOGGLES, ids=str)
@given(reports=reports_strategy)
def test_rows_are_claim_then_time_ordered_and_stable(weights, reports):
    table = ReportTable.from_reports(reports, weights)
    order = expected_order(reports)
    claim_ids = tuple(sorted({r.claim_id for r in reports}))
    assert table.claim_ids == claim_ids
    assert len(table) == len(reports)
    assert table.claim_index.tolist() == [
        claim_ids.index(reports[i].claim_id) for i in order
    ]
    assert table.times.tolist() == [reports[i].timestamp for i in order]
    assert table.scores.tobytes() == np.array(
        [eq1_score(reports[i], weights) for i in order], dtype=np.float64
    ).tobytes()
    counts = [sum(r.claim_id == c for r in reports) for c in claim_ids]
    assert np.diff(table.offsets).tolist() == counts


@settings(max_examples=60, deadline=None)
@given(reports=reports_strategy, explicit_span=st.booleans())
def test_acs_on_table_rows_equals_acs_on_report_list(reports, explicit_span):
    span = (0.0, 600.0) if explicit_span else (None, None)
    table = ReportTable.from_reports(reports, CONFIG.weights)
    for claim_id, rows in table.by_claim():
        claim_reports = [r for r in reports if r.claim_id == claim_id]
        grid, values = acs_sequence(rows, CONFIG, *span)
        grid_list, values_list = acs_sequence(claim_reports, CONFIG, *span)
        assert grid.tobytes() == grid_list.tobytes()
        assert values.tobytes() == values_list.tobytes()


class TestEdgeCases:
    def test_empty_input(self):
        table = ReportTable.from_reports([])
        assert table.claim_ids == ()
        assert len(table) == 0
        assert table.offsets.tolist() == [0]
        assert list(table.by_claim()) == []

    def test_generator_is_consumed_exactly_once(self):
        reports = [report("b", 2.0), report("a", 1.0), report("b", 0.5)]

        class OneShot:
            iterations = 0

            def __iter__(self):
                OneShot.iterations += 1
                return iter(reports)

        table = ReportTable.from_reports(OneShot())
        assert OneShot.iterations == 1
        generated = ReportTable.from_reports(r for r in reports)
        for built in (table, generated):
            assert built.claim_ids == ("a", "b")
            assert built.times.tolist() == [1.0, 0.5, 2.0]

    def test_one_report(self):
        table = ReportTable.from_reports(
            [report("c", 5.0, Attitude.DISAGREE, uncertainty=0.5)]
        )
        (claim_id, rows), = table.by_claim()
        assert claim_id == "c" and len(rows) == 1
        assert rows.times.tolist() == [5.0]
        assert rows.scores.tolist() == [-0.5]

    def test_input_not_sorted_by_time(self):
        times = [40.0, 10.0, 30.0, 20.0]
        table = ReportTable.from_reports([report("c", t) for t in times])
        assert table.rows("c").times.tolist() == sorted(times)

    def test_equal_timestamps_keep_input_order(self):
        reports = [
            report("c", 7.0, Attitude.AGREE),
            report("d", 7.0, Attitude.AGREE),
            report("c", 7.0, Attitude.DISAGREE),
            report("c", 3.0, Attitude.NEUTRAL, uncertainty=0.5),
            report("c", 7.0, Attitude.AGREE, uncertainty=0.75),
        ]
        for rows in (
            ReportTable.from_reports(reports).rows("c"),
            ClaimRows.from_reports(r for r in reports if r.claim_id == "c"),
        ):
            assert rows.times.tolist() == [3.0, 7.0, 7.0, 7.0]
            assert rows.scores.tolist() == [0.0, 1.0, -1.0, 0.25]

    def test_unknown_claim_raises(self):
        table = ReportTable.from_reports([report("c", 1.0)])
        with pytest.raises(KeyError):
            table.rows("missing")

    def test_rows_scored_under_other_weights_are_rejected(self):
        rows = ReportTable.from_reports([report("c", 1.0)], TOGGLES[-1]).rows("c")
        with pytest.raises(ValueError, match="scored with"):
            acs_sequence(rows, ACSConfig())


def test_out_of_range_score_raises_from_one_check_per_table(monkeypatch):
    # Bypass Report's own validation to model a component going bad
    # after construction.
    reports = [report("c", float(t)) for t in range(5)]
    object.__setattr__(reports[3], "independence", 2.0)
    checked = []
    check = ct.assert_score_range

    def counting_check(values, *args, **kwargs):
        checked.append(np.size(values))
        check(values, *args, **kwargs)

    monkeypatch.setattr(ct, "assert_score_range", counting_check)
    with ct.contracts(True):
        with pytest.raises(ct.ContractViolation, match="contribution score"):
            ReportTable.from_reports(reports)
    assert checked == [5]
