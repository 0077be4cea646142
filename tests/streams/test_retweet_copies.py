"""The generator's vectorised retweet copying against its loop form.

``generate_trace`` decides which reports are retweets, and which earlier
report each copies, in one pass over the claim-grouped rows.  The loop
below is the per-report form it replaced: a claim's retweet copies one
of the claim's last ``RECENT_BUFFER`` original reports.
"""

import collections

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.streams.generator import RECENT_BUFFER, _retweet_sources


def loop_reference(claim_idx, retweet_draw, copy_pick):
    recent = collections.defaultdict(
        lambda: collections.deque(maxlen=RECENT_BUFFER)
    )
    copied = []
    for i, c in enumerate(claim_idx.tolist()):
        if retweet_draw[i] and recent[c]:
            buffer = recent[c]
            copied.append(buffer[int(copy_pick[i] * len(buffer))])
        else:
            copied.append(-1)
            recent[c].append(i)
    return copied


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.booleans(),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        ),
        max_size=120,
    )
)
def test_vectorised_copies_equal_the_loop(rows):
    claim_idx = np.array([c for c, _, _ in rows], dtype=np.intp)
    retweet_draw = np.array([r for _, r, _ in rows], dtype=bool)
    copy_pick = np.array([p for _, _, p in rows], dtype=np.float64)
    got = _retweet_sources(claim_idx, retweet_draw, copy_pick)
    assert got.tolist() == loop_reference(claim_idx, retweet_draw, copy_pick)


def test_long_claim_runs_use_only_the_recent_buffer():
    rng = np.random.default_rng(0)
    n = 2_000
    claim_idx = rng.integers(0, 2, size=n)
    retweet_draw = rng.random(n) < 0.7
    copy_pick = rng.random(n)
    got = _retweet_sources(claim_idx, retweet_draw, copy_pick)
    assert got.tolist() == loop_reference(claim_idx, retweet_draw, copy_pick)
    retweets = np.flatnonzero(got >= 0)
    assert retweets.size > RECENT_BUFFER * 10
