"""Admission invariants as properties.

The interval replay asks the controller's :class:`Admission` to
partition every refit round's due claims.  A deferred claim is due again
on the next tick, so it returns in the next round's due set; a shed one
waits for its schedule.  For random due sets, cost samples and headroom:

- admitted, deferred and shed partition the due set;
- no claim is deferred in more than ``SHED_AFTER`` consecutive rounds;
- the rounds of one interval share one budget: they admit no more than
  it in total.

The third invariant — a deferred claim still gets a filtered estimate
at that tick, from its previous parameters — is a property of the
streaming engine, in ``tests/core/test_streaming_tick.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.control import Admission, Controller
from repro.control.controller import SHED_AFTER
from repro.obs import Observability

CLAIMS = [f"c{k}" for k in range(12)]

ROUND = st.tuples(
    st.sets(st.sampled_from(CLAIMS)),
    # A new per-claim cost sample: 0 adds none ("no samples yet, admit
    # all" until the first one arrives).
    st.sampled_from([0.0, 1e-4, 0.01, 0.1, 1.0, 10.0]),
    st.floats(-20.0, 20.0),
    st.integers(1, 4),
    # Whether the round opens a new interval's budget.
    st.booleans(),
)


def replay_rounds(admission, rounds):
    """Yield ``(due, decision)`` per round; deferred claims stay due."""
    deferred: set[str] = set()
    for fresh, cost, headroom, workers, new_interval in rounds:
        if new_interval:
            admission.observe(0.0, [cost] if cost > 0 else [], busy_time=0.0)
        due = sorted(set(fresh) | deferred)
        decision = admission.plan(due, workers, headroom)
        deferred = set(decision.deferred)
        yield due, decision


@settings(max_examples=200, deadline=None)
@given(rounds=st.lists(ROUND, min_size=1, max_size=12))
def test_admitted_deferred_and_shed_partition_the_due_set(rounds):
    admission = Admission(deadline=1.0, obs=Observability.disabled())
    for due, decision in replay_rounds(admission, rounds):
        parts = (decision.admitted, decision.deferred, decision.shed)
        assert sorted(c for part in parts for c in part) == due
        assert all(len(set(part)) == len(part) for part in parts)


@settings(max_examples=200, deadline=None)
@given(rounds=st.lists(ROUND, min_size=1, max_size=20))
def test_no_claim_is_deferred_past_max_defer(rounds):
    admission = Admission(deadline=1.0, obs=Observability.disabled())
    streak: dict[str, int] = {}
    for _due, decision in replay_rounds(admission, rounds):
        for claim_id in decision.admitted + decision.shed:
            streak.pop(claim_id, None)
        for claim_id in decision.deferred:
            streak[claim_id] = streak.get(claim_id, 0) + 1
            assert streak[claim_id] <= SHED_AFTER


@settings(max_examples=200, deadline=None)
@given(
    cost=st.sampled_from([1e-3, 0.01, 0.1, 1.0]),
    intervals=st.lists(
        st.lists(st.sets(st.sampled_from(CLAIMS)), min_size=1, max_size=8),
        min_size=1,
        max_size=4,
    ),
)
def test_an_intervals_rounds_share_one_budget(cost, intervals):
    controller = Controller(deadline=1.0)
    controller.settle(1.0, claim_costs=[cost], busy_time=1.0)
    deferred: set[str] = set()
    for rounds in intervals:
        admitted = 0
        for fresh in rounds:
            decision = controller.admit(
                sorted(set(fresh) | deferred), n_workers=2
            )
            deferred = set(decision.deferred)
            admitted += len(decision.admitted)
            assert admitted <= decision.budget
        controller.settle(0.5, busy_time=0.5)
