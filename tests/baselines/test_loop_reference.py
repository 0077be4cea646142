"""The columnar comparison methods against their per-pair loop oracle.

:mod:`tests.baselines.loop_reference` keeps TruthFinder, Invest,
PooledInvest and RTD as dict-of-lists loops with sequential float
totals.  The production methods must reach the same decisions with the
same confidence bits on small multi-source traces: repeated pairs,
pairs that agree and then disagree, claims with only neutral reports
and traces with a single source.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines import ALGORITHM_FACTORIES
from repro.core.types import Attitude, Report
from tests.baselines.loop_reference import REFERENCES


@st.composite
def multi_source_reports(draw):
    """Reports of up to eight sources on up to three claims.

    A drawn report may be echoed by the same source with the opposite
    attitude and the same scores, which cancels the pair's net value
    exactly, and a claim ``quiet`` may hear only neutral reports.
    """
    n_sources = draw(st.integers(min_value=1, max_value=8))
    n_claims = draw(st.integers(min_value=1, max_value=3))
    drawn = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_sources - 1),
                st.integers(min_value=0, max_value=n_claims - 1),
                # Neutral reports twice as often: a pair whose first
                # report is neutral still takes its place in vote order.
                st.sampled_from([Attitude.NEUTRAL, *Attitude]),
                st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.9),
                st.sampled_from([1.0, 0.5]) | st.floats(0.1, 1.0),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    quiet = draw(st.integers(min_value=0, max_value=n_sources))
    reports = []

    def add(source, claim, attitude, uncertainty, independence):
        reports.append(
            Report(
                f"s{source}", claim, 40.0 * len(reports) + 0.5,
                attitude=attitude, uncertainty=uncertainty,
                independence=independence,
            )
        )

    for source, claim, attitude, uncertainty, independence, echo in drawn:
        add(source, f"c{claim}", attitude, uncertainty, independence)
        if echo:
            add(source, f"c{claim}", Attitude(-attitude), uncertainty, independence)
    for source in range(quiet):
        add(source, "quiet", Attitude.NEUTRAL, 0.0, 1.0)
    return reports


def votes_trace(*votes):
    """Reports from ``(source, claim, attitude)`` numbers, 40 s apart."""
    return [
        Report(f"s{source}", f"c{claim}", 40.0 * k, attitude=Attitude(attitude))
        for k, (source, claim, attitude) in enumerate(votes)
    ]


#: Pairs whose first report is neutral: ``(s1, c0)`` and ``(s1, c2)``
#: take their place in the vote order at that neutral report, ahead of
#: the pairs first heard between it and their first non-neutral one.
#: Placing them at the non-neutral report instead moves one bit of a
#: TruthFinder and of an Invest confidence respectively.
NEUTRAL_FIRST = (
    votes_trace((1, 2, 1), (0, 0, -1), (1, 0, 0), (1, 3, 1), (2, 2, -1), (1, 0, -1)),
    votes_trace((3, 2, 1), (1, 2, 0), (1, 0, 1), (1, 1, 1), (1, 2, -1), (2, 1, 1)),
)


def exact(decisions):
    return {
        claim_id: (int(value), confidence.hex())
        for claim_id, (value, confidence) in decisions.items()
    }


@pytest.mark.parametrize("name", sorted(REFERENCES))
@settings(max_examples=100, deadline=None)
@given(reports=multi_source_reports())
@example(reports=NEUTRAL_FIRST[0])
@example(reports=NEUTRAL_FIRST[1])
def test_columns_match_the_loop_oracle(name, reports):
    method = ALGORITHM_FACTORIES[name]()
    assert exact(method.estimate_claims(reports)) == exact(
        REFERENCES[name](reports)
    )
