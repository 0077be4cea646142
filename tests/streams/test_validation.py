"""Tests for trace validation."""

import pytest

from repro.core.types import Attitude, Report, Source, TruthLabel, TruthTimeline, TruthValue
from repro.streams import Trace, generate_trace, paris_shooting
from repro.streams.validation import assert_valid, validate_trace


def good_trace():
    reports = [
        Report(f"s{k}", "c1", float(k), attitude=Attitude.AGREE, text="hi")
        for k in range(10)
    ]
    return Trace(
        name="good",
        reports=reports,
        sources={f"s{k}": Source(f"s{k}") for k in range(10)},
        timelines={
            "c1": TruthTimeline(
                "c1", [TruthLabel("c1", 0.0, 10.0, TruthValue.TRUE)]
            )
        },
    )


class TestValidateTrace:
    def test_good_trace_passes(self):
        report = validate_trace(good_trace())
        assert report.ok
        assert report.summary() == "trace OK"

    def test_generated_trace_passes(self):
        trace = generate_trace(paris_shooting().scaled(0.002), seed=4)
        report = validate_trace(trace)
        assert report.ok, report.summary()

    def test_empty_trace_is_error(self):
        report = validate_trace(Trace(name="empty", reports=[]))
        assert not report.ok
        assert report.errors[0].code == "empty"

    def test_unlabelled_claims_warn(self):
        trace = good_trace()
        trace.timelines.clear()
        report = validate_trace(trace)
        assert report.ok  # warnings only
        assert any(i.code == "unlabelled-claims" for i in report.warnings)

    def test_missing_source_records_warn(self):
        trace = good_trace()
        trace.sources.pop("s0")
        report = validate_trace(trace)
        assert any(i.code == "missing-sources" for i in report.warnings)

    def test_timeline_span_warning(self):
        trace = good_trace()
        trace.timelines["c1"] = TruthTimeline(
            "c1", [TruthLabel("c1", 0.0, 5.0, TruthValue.TRUE)]
        )
        report = validate_trace(trace)
        assert any(i.code == "timeline-span" for i in report.warnings)

    def test_assert_valid(self):
        assert_valid(good_trace())
        with pytest.raises(ValueError, match="invalid trace"):
            assert_valid(Trace(name="empty", reports=[]))
