"""Reports that carry their columns: the same tables, no object walk.

A :class:`Reports` (what a trace holds) hands its columns to
``ReportTable.from_reports`` and ``ScoreWeights.score_column``; any
other iterable is read by ``ReportColumns.of`` on every call.  Both
routes must give byte-equal arrays, and a trace's columns must equal a
fresh read of its reports however the trace was built.
"""

import collections
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.acs import ReportTable
from repro.core.columns import ReportColumns, Reports
from repro.core.scores import ATTITUDE_ONLY, FULL_WEIGHTS
from repro.core.sstd import SSTD
from repro.core.types import Attitude, Report
from repro.streams import (
    Trace,
    generate_trace,
    merge_traces,
    paris_shooting,
)
from repro.system.sstd_system import DistributedSSTD, SSTDSystemConfig

WEIGHTS = [FULL_WEIGHTS, ATTITUDE_ONLY]
COLUMN_NAMES = (
    "claim_index",
    "times",
    "attitudes",
    "uncertainty",
    "independence",
)


def report(claim, t, attitude, uncertainty, independence):
    return Report(
        "s", claim, t,
        attitude=attitude, uncertainty=uncertainty, independence=independence,
    )


reports_strategy = st.lists(
    st.builds(
        report,
        claim=st.sampled_from(["c-b", "c-a", "c-c"]),
        # A coarse grid of times makes equal timestamps common; the list
        # order is the draw order, so the input is rarely time-sorted.
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


#: One claim, tied and unsorted times, every attitude.
ONE_CLAIM = [
    report("c-a", 30.0, Attitude.AGREE, 0.5, 0.25),
    report("c-a", 0.0, Attitude.NEUTRAL, 0.0, 1.0),
    report("c-a", 30.0, Attitude.DISAGREE, 0.125, 0.5),
]


def carried(reports):
    """``reports`` as :class:`Reports` with columns built without the reader."""
    claim_ids = tuple(sorted({r.claim_id for r in reports}))
    return Reports(
        reports,
        ReportColumns.from_arrays(
            claim_ids=claim_ids,
            claim_index=np.array(
                [claim_ids.index(r.claim_id) for r in reports],
                dtype=np.min_scalar_type(len(claim_ids)),
            ),
            times=np.array([r.timestamp for r in reports], dtype=np.float64),
            attitudes=np.array([int(r.attitude) for r in reports], np.int8),
            uncertainty=np.array(
                [r.uncertainty for r in reports], dtype=np.float64
            ),
            independence=np.array(
                [r.independence for r in reports], dtype=np.float64
            ),
        ),
    )


def assert_tables_equal(got, want):
    assert got.claim_ids == want.claim_ids
    assert got.weights == want.weights
    for name in ("claim_index", "times", "scores", "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def assert_columns_equal(got, want):
    assert len(got) == len(want)
    assert got.claim_ids == want.claim_ids
    for name in COLUMN_NAMES:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="module")
def trace():
    return generate_trace(paris_shooting().scaled(0.002), seed=3)


class TestSameTablesFromColumns:
    @pytest.mark.parametrize("weights", WEIGHTS, ids=str)
    @settings(deadline=None)
    @given(reports=reports_strategy)
    @example(reports=ONE_CLAIM)
    def test_table_from_carried_columns_equals_table_from_list(
        self, weights, reports
    ):
        assert_tables_equal(
            ReportTable.from_reports(carried(reports), weights),
            ReportTable.from_reports(reports, weights),
        )

    @pytest.mark.parametrize("weights", WEIGHTS, ids=str)
    @settings(deadline=None)
    @given(reports=reports_strategy)
    @example(reports=ONE_CLAIM)
    def test_score_column_from_carried_columns_equals_list(
        self, weights, reports
    ):
        got = weights.score_column(carried(reports))
        want = weights.score_column(reports)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("weights", WEIGHTS, ids=str)
    def test_generated_columns_give_the_list_table(self, weights, trace):
        assert isinstance(trace.reports, Reports)
        assert_tables_equal(
            ReportTable.from_reports(trace.reports, weights),
            ReportTable.from_reports(list(trace.reports), weights),
        )
        assert (
            weights.score_column(trace.reports).tobytes()
            == weights.score_column(list(trace.reports)).tobytes()
        )

    def test_generated_columns_equal_a_fresh_read(self, trace):
        assert_columns_equal(
            trace.reports.columns, ReportColumns.of(list(trace.reports))
        )

    def test_generated_trace_with_few_reports_lists_present_claims(self):
        # Fewer reports than claims: some claims draw none, and the
        # column's claim ids must be the ones that appear.
        spec = paris_shooting().scaled(0.0001)
        small = generate_trace(spec, seed=2)
        assert len(small.reports.columns.claim_ids) < spec.n_claims
        assert_columns_equal(
            small.reports.columns, ReportColumns.of(list(small.reports))
        )


class TestTraceColumns:
    def test_load_carries_a_fresh_read(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.reports == trace.reports
        assert_columns_equal(
            loaded.reports.columns, ReportColumns.of(list(loaded.reports))
        )

    @pytest.mark.parametrize("size", [0, 1, 37])
    def test_subset_carries_a_fresh_read(self, trace, size):
        sub = trace.subset(size)
        assert isinstance(sub.reports, Reports)
        assert_columns_equal(
            sub.reports.columns, ReportColumns.of(list(sub.reports))
        )

    def test_merge_carries_a_fresh_read(self, trace):
        other = Trace(
            name="other",
            reports=[
                Report(f"x{r.source_id}", f"x{r.claim_id}", r.timestamp + 0.5)
                for r in trace.reports[:50]
            ],
        )
        merged = merge_traces("both", [trace, other])
        assert len(merged.reports) == len(trace.reports) + 50
        assert_columns_equal(
            merged.reports.columns, ReportColumns.of(list(merged.reports))
        )

    def test_caller_list_is_not_sorted_in_place(self):
        reports = [
            Report("a", "c", 5.0, Attitude.AGREE),
            Report("b", "c", 1.0, Attitude.AGREE),
        ]
        trace = Trace(name="x", reports=reports)
        assert [r.timestamp for r in reports] == [5.0, 1.0]
        assert [r.timestamp for r in trace.reports] == [1.0, 5.0]
        assert trace.reports.columns.times.tolist() == [1.0, 5.0]

    def test_reports_between_is_the_filtered_list(self, trace):
        lo, hi = trace.reports[10].timestamp, trace.reports[40].timestamp
        assert list(trace.reports_between(lo, hi)) == [
            r for r in trace.reports if lo <= r.timestamp < hi
        ]

    def test_reports_pickle_with_their_columns(self, trace):
        again = pickle.loads(pickle.dumps(trace.reports))
        assert isinstance(again, Reports) and again == trace.reports
        assert_columns_equal(again.columns, trace.reports.columns)

    def test_mismatched_columns_are_rejected(self, trace):
        with pytest.raises(ValueError, match="column rows"):
            Reports(trace.reports[:3], trace.reports.columns)


@pytest.fixture(scope="module")
def plain_estimates(trace):
    """SSTD's estimates on the trace's reports as a plain list."""
    return SSTD().discover(list(trace.reports))


class TestNoObjectWalk:
    @pytest.fixture
    def no_reader(self, monkeypatch):
        def refuse(cls, reports):
            raise AssertionError("ReportColumns.of read report objects")

        monkeypatch.setattr(ReportColumns, "of", classmethod(refuse))

    def test_discover_on_a_trace_reads_no_object(
        self, trace, plain_estimates, no_reader
    ):
        assert SSTD().discover(trace.reports) == plain_estimates

    @pytest.mark.parametrize("backend", ["simulated", "processes"])
    def test_run_batch_on_a_trace_reads_no_object(
        self, trace, plain_estimates, backend, no_reader
    ):
        config = SSTDSystemConfig(
            backend=backend, n_workers=1, control_enabled=False
        )
        result = DistributedSSTD(config).run_batch(trace.reports)
        assert list(result.estimates) == sorted(
            plain_estimates, key=lambda e: (e.claim_id, e.timestamp)
        )

    def test_a_plain_list_is_read_on_every_call(self, trace, monkeypatch):
        calls = []
        read = ReportColumns.of.__func__

        def counting(cls, reports):
            calls.append(len(reports))
            return read(cls, reports)

        monkeypatch.setattr(ReportColumns, "of", classmethod(counting))
        reports = list(trace.reports)
        first = SSTD().discover(reports)
        assert calls == [len(reports)]
        assert SSTD().discover(reports) == first
        assert calls == [len(reports)] * 2


def test_generated_reports_share_one_id_string_per_source(trace):
    sources: dict[str, str] = {}
    claims: dict[str, str] = {}
    for r in trace.reports:
        assert r.source_id is sources.setdefault(r.source_id, r.source_id)
        assert r.claim_id is claims.setdefault(r.claim_id, r.claim_id)
    counts = collections.Counter(r.source_id for r in trace.reports)
    assert max(counts.values()) > 1, "no source reports twice: vacuous"
