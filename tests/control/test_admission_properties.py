"""Admission-control invariants as properties.

The interval replay asks :class:`AdmissionController` to partition every
refit round's due claims.  A deferred claim is due again on the next
tick, so it returns in the next round's due set; a shed one waits for
its schedule.  For random due sets, cost samples and headroom:

- admitted, deferred and shed partition the due set;
- without ``shed_after``, no claim is deferred in more than
  ``MAX_DEFER`` consecutive rounds;
- the rounds of one interval share one budget: with ``shed_after`` (no
  forced admission) they admit no more than it in total.

The third invariant — a deferred claim still gets a filtered estimate
at that tick, from its previous parameters — is a property of the
streaming engine, in ``tests/core/test_streaming_tick.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.control import (
    AdmissionController,
    FeedbackConfig,
    IntervalFeedbackLoop,
)
from repro.control.feedback import MAX_DEFER

CLAIMS = [f"c{k}" for k in range(12)]

ROUND = st.tuples(
    st.sets(st.sampled_from(CLAIMS)),
    # p95 claim cost: 0 means "no samples yet, admit all".
    st.sampled_from([0.0, 1e-4, 0.01, 0.1, 1.0, 10.0]),
    st.floats(-20.0, 20.0),
    st.integers(1, 4),
    # Claims the interval's earlier rounds admitted.
    st.integers(0, 12),
)

SHED_AFTER = st.one_of(st.none(), st.integers(1, 4))


def replay_rounds(controller, rounds):
    """Yield ``(due, decision)`` per round; deferred claims stay due."""
    deferred: set[str] = set()
    for fresh, cost, headroom, workers, spent in rounds:
        due = sorted(set(fresh) | deferred)
        decision = controller.plan(due, workers, cost, headroom, spent)
        deferred = set(decision.deferred)
        yield due, decision


@settings(max_examples=200, deadline=None)
@given(shed_after=SHED_AFTER, rounds=st.lists(ROUND, min_size=1, max_size=12))
def test_admitted_deferred_and_shed_partition_the_due_set(shed_after, rounds):
    controller = AdmissionController(deadline=1.0, shed_after=shed_after)
    for due, decision in replay_rounds(controller, rounds):
        parts = (decision.admitted, decision.deferred, decision.shed)
        assert sorted(c for part in parts for c in part) == due
        assert all(len(set(part)) == len(part) for part in parts)
        if shed_after is None:
            assert decision.shed == ()


@settings(max_examples=200, deadline=None)
@given(rounds=st.lists(ROUND, min_size=1, max_size=20))
def test_no_claim_is_deferred_past_max_defer(rounds):
    controller = AdmissionController(deadline=1.0)
    streak: dict[str, int] = {}
    for _due, decision in replay_rounds(controller, rounds):
        for claim_id in decision.admitted:
            streak.pop(claim_id, None)
        for claim_id in decision.deferred:
            streak[claim_id] = streak.get(claim_id, 0) + 1
            assert streak[claim_id] <= MAX_DEFER


@settings(max_examples=200, deadline=None)
@given(
    shed_after=st.integers(1, 4),
    cost=st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
    intervals=st.lists(
        st.lists(st.sets(st.sampled_from(CLAIMS)), min_size=1, max_size=8),
        min_size=1,
        max_size=4,
    ),
)
def test_an_intervals_rounds_share_one_budget(shed_after, cost, intervals):
    loop = IntervalFeedbackLoop(
        deadline=1.0,
        config=FeedbackConfig(shed_after=shed_after),
    )
    loop.observe(1.0, claim_costs=[cost], busy_time=1.0)
    deferred: set[str] = set()
    for rounds in intervals:
        admitted = 0
        for fresh in rounds:
            decision = loop.plan(sorted(set(fresh) | deferred), n_workers=2)
            deferred = set(decision.deferred)
            admitted += len(decision.admitted)
            assert admitted <= decision.budget
        loop.observe(0.5, busy_time=0.5)
