"""Every registered method under a shift of the clock origin.

Moving every report and the evaluation grid by the same large offset,
about the Unix time of a real trace, must move each estimate's
timestamp and nothing else.  The comparisons a method makes between
absolute times (SlidingVote's window edge ``t - window``, SSTD's
carry-forward onto the grid) are where such a shift could tell.
"""

import dataclasses

import pytest

from repro.baselines import ALGORITHM_FACTORIES, EvaluationGrid
from repro.streams import generate_trace, osu_attack

#: About 2023-11 as a Unix time.
SHIFT = 1.7e9
STEP = 1800.0


@pytest.fixture(scope="module")
def traces():
    trace = generate_trace(osu_attack().scaled(0.05), seed=1)
    shifted = [
        dataclasses.replace(r, timestamp=r.timestamp + SHIFT)
        for r in trace.reports
    ]
    return (
        (trace.reports, EvaluationGrid(trace.start, trace.end, step=STEP)),
        (shifted, EvaluationGrid(trace.start + SHIFT, trace.end + SHIFT, step=STEP)),
    )


@pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
def test_time_shift_keeps_values_and_confidences(name, traces):
    (reports, grid), (shifted, shifted_grid) = traces
    before = ALGORITHM_FACTORIES[name]().discover(reports, grid)
    after = ALGORITHM_FACTORIES[name]().discover(shifted, shifted_grid)
    assert before
    assert [(e.claim_id, e.value, e.confidence) for e in after] == [
        (e.claim_id, e.value, e.confidence) for e in before
    ]
    assert [e.timestamp for e in after] == pytest.approx(
        [e.timestamp + SHIFT for e in before], rel=0, abs=1e-3
    )
