"""Metamorphic properties of batch SSTD: a claim's estimates depend on its
own reports only.

Claims decompose independently (paper Section III-E), so each claim's
estimates must keep every bit when the input order of reports with
distinct timestamps changes, when claims are renamed (which can reorder
them in the table and in the shard stacks), and when an unrelated claim
joins.  Both the serial engine and the sharded process backend are held
to it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sstd import SSTD
from repro.core.types import Attitude, Report
from repro.system.sstd_system import DistributedSSTD, SSTDSystemConfig

ENGINES = {
    "discover": lambda reports: SSTD().discover(reports),
    "processes": lambda reports: DistributedSSTD(
        SSTDSystemConfig(
            backend="processes", n_workers=2, control_enabled=False
        )
    ).run_batch(reports).estimates,
}


@st.composite
def claim_reports(draw, claim_ids=("c0", "c1", "c2"), offset=0.5):
    """Reports of up to three claims; every timestamp in the input differs."""
    n_claims = draw(st.integers(min_value=1, max_value=len(claim_ids)))
    scores = draw(
        st.lists(
            st.tuples(
                st.sampled_from(claim_ids[:n_claims]),
                st.sampled_from(list(Attitude)),
                st.floats(min_value=0.0, max_value=0.9),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return [
        Report(
            f"s{slot % 7}", claim_id, 40.0 * slot + offset,
            attitude=attitude, uncertainty=uncertainty,
        )
        for slot, (claim_id, attitude, uncertainty) in enumerate(scores)
    ]


def per_claim(estimates, rename=None):
    """claim -> [(time, value, confidence)] with floats as exact hex."""
    rename = rename or {}
    grouped = {}
    for e in estimates:
        grouped.setdefault(rename.get(e.claim_id, e.claim_id), []).append(
            (e.timestamp.hex(), int(e.value), e.confidence.hex())
        )
    return grouped


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_shuffling_reports_keeps_every_bit(engine, data):
    reports = data.draw(claim_reports())
    shuffled = data.draw(st.permutations(reports))
    run = ENGINES[engine]
    assert per_claim(run(shuffled)) == per_claim(run(reports))


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_renaming_claims_keeps_every_bit(engine, data):
    reports = data.draw(claim_reports())
    # New names in a drawn order, so a rename can reverse the sorted
    # claim order (and with it the table and stack row order).
    names = data.draw(st.permutations(["a", "m", "z"]))
    rename = dict(zip(("c0", "c1", "c2"), names))
    renamed = [
        Report(
            r.source_id, rename[r.claim_id], r.timestamp,
            attitude=r.attitude, uncertainty=r.uncertainty,
        )
        for r in reports
    ]
    run = ENGINES[engine]
    assert per_claim(run(renamed)) == per_claim(run(reports), rename)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_an_unrelated_claim_changes_no_other_claim(engine, data):
    reports = data.draw(claim_reports())
    # "c1-extra" sorts between existing claims.
    extra = data.draw(claim_reports(claim_ids=("c1-extra",), offset=0.25))
    run = ENGINES[engine]
    before = per_claim(run(reports))
    after = per_claim(run(reports + extra))
    assert after.pop("c1-extra")
    assert after == before
