"""Metamorphic property: shifting every timestamp by a constant shifts the
estimates and changes nothing else.

``acs_sequence`` counts a report in the window ``(g - window, g]`` of
grid point ``g = start + k * step``.  With the default span ``start`` is
the first report, and with ``window / step = 5`` the lower edge of grid
index 4 *is* that report.  Membership is decided on offsets from
``start`` (``t - start`` against ``k * step - window``), so that report
sits exactly on the edge, and is left out, whatever ``start`` is.  When
the comparison was made on absolute times, ``start + 5 * step - window``
rounded to either side of it: on ``osu_attack().scaled(0.05)``, seed 3,
claim ``claim-0000`` read ACS .8438 unshifted and .7880 after a
+1000.37 s shift, and 1 439 of 23 040 confidences moved.

The streaming engine, which every backend's interval replay now runs,
still decides window membership on absolute time
(``SlidingWindowACS.value_at`` keeps the rows with
``now - window < t <= now``), so the same shift moves a few of its
confidences: pinned as a strict xfail on the serial replay of
``tests/streaming_replay.py`` over the ``dist_intervals`` input.  Its
grid and truth values must still shift exactly.  Offsets from a grid
origin would need ticks anchored to a grid, which ``tick(now)`` does not
ask for: it takes any increasing time.
"""

import dataclasses

import numpy as np
import pytest

from benchmarks.e2e.workloads import WORKLOADS, make_trace
from repro.core.acs import ACSConfig, acs_sequence
from repro.core.sstd import SSTD
from repro.streams import generate_trace, osu_attack
from tests.streaming_replay import serial_stream_replay

SHIFT = 1000.37


@pytest.fixture(scope="module")
def traces():
    trace = generate_trace(osu_attack().scaled(0.05), seed=3)
    shifted = [
        dataclasses.replace(r, timestamp=r.timestamp + SHIFT)
        for r in trace.reports
    ]
    spans = (
        (trace.start, trace.end),
        (trace.start + SHIFT, trace.end + SHIFT),
    )
    return (trace.reports, shifted), spans


@pytest.fixture(scope="module")
def estimates(traces):
    (reports, shifted), (span, shifted_span) = traces
    return (
        SSTD().discover(reports, *span),
        SSTD().discover(shifted, *shifted_span),
    )


def test_time_shift_keeps_grid_and_truth_values(estimates):
    before, after = estimates
    assert len(before) == len(after) == 23_040
    for old, new in zip(before, after):
        assert new.claim_id == old.claim_id
        assert new.timestamp - old.timestamp == pytest.approx(SHIFT)
        assert new.value is old.value


def test_time_shift_keeps_acs_and_confidences(traces, estimates):
    (reports, shifted), (span, shifted_span) = traces
    claim = [r for r in reports if r.claim_id == "claim-0000"]
    claim_shifted = [r for r in shifted if r.claim_id == "claim-0000"]
    _, acs = acs_sequence(claim, ACSConfig(), *span)
    _, acs_shifted = acs_sequence(claim_shifted, ACSConfig(), *shifted_span)
    np.testing.assert_allclose(acs_shifted, acs, rtol=1e-9, equal_nan=True)
    before, after = estimates
    np.testing.assert_allclose(
        [e.confidence for e in after],
        [e.confidence for e in before],
        rtol=1e-9,
    )


@pytest.fixture(scope="module")
def streaming_estimates():
    trace = make_trace(WORKLOADS["dist_intervals"].shape, 1)
    shifted = [
        dataclasses.replace(r, timestamp=r.timestamp + SHIFT)
        for r in trace.reports
    ]
    return (
        serial_stream_replay(trace.reports, trace.start, trace.end),
        serial_stream_replay(shifted, trace.start + SHIFT, trace.end + SHIFT),
    )


def test_time_shift_keeps_streaming_grid_and_truth_values(streaming_estimates):
    before, after = streaming_estimates
    assert len(before) == len(after) == 1_587
    for old, new in zip(before, after):
        assert new.claim_id == old.claim_id
        assert new.timestamp - old.timestamp == pytest.approx(SHIFT)
        assert new.value is old.value


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "SlidingWindowACS.value_at decides membership on absolute time "
        "(now - window < t <= now, rows at or before now - window dropped), "
        "the comparison acs_sequence dropped for offsets from the span "
        "start: on the full dist_intervals input, seed 1, claim-0023's ACS "
        "at its fifth tick reads -.3045 unshifted and -.3706 shifted, and "
        "its later refits move 7 of 1 587 confidences (no truth value)"
    ),
)
def test_time_shift_keeps_streaming_confidences(streaming_estimates):
    before, after = streaming_estimates
    np.testing.assert_allclose(
        [e.confidence for e in after],
        [e.confidence for e in before],
        rtol=1e-9,
    )
