"""Independence scorer (paper Definition 3, Section V-A2).

"To compute the Independent Score, we classified the retweets or tweets
that are significantly similar to the previous tweets within a time
interval as repeated claims and assign them relatively low independent
scores."

The scorer therefore flags (a) explicit retweets (``RT @user:`` prefix)
and (b) near-duplicates of recent tweets by Jaccard similarity inside a
sliding time window, and maps both to a low eta.
"""

from __future__ import annotations

import collections
import re

from repro.text.jaccard import jaccard_similarity
from repro.text.tokenize import token_set

__all__ = [
    "IndependenceScorer",
    "is_retweet",
]

_RT_RE = re.compile(r"^\s*rt\s+@\w+", re.IGNORECASE)

#: Seconds of history a tweet is compared against.
WINDOW = 600.0
#: Jaccard similarity above which a tweet counts as a copy of a recent one.
DUPLICATE_SIMILARITY = 0.8
#: Eta assigned to retweets / near-duplicates.
COPY_SCORE = 0.2
#: Eta assigned to independent reports.
FRESH_SCORE = 1.0
#: Cap on remembered recent tweets per claim (memory bound).
MAX_HISTORY = 512


def is_retweet(text: str) -> bool:
    """Whether the text is an explicit retweet (``RT @user: ...``)."""
    return bool(_RT_RE.match(text))


class IndependenceScorer:
    """Streaming eta scorer with a per-claim recent-tweet memory."""

    def __init__(self) -> None:
        self._history: dict[str, collections.deque] = collections.defaultdict(
            lambda: collections.deque(maxlen=MAX_HISTORY)
        )

    def score(self, claim_id: str, text: str, timestamp: float) -> float:
        """Eta of one tweet; also records it for future comparisons.

        Tweets must arrive in non-decreasing timestamp order per claim.
        """
        history = self._history[claim_id]
        while history and history[0][0] < timestamp - WINDOW:
            history.popleft()

        tokens = token_set(text)
        copied = is_retweet(text)
        if not copied:
            for _, seen_tokens in history:
                if jaccard_similarity(tokens, seen_tokens) >= DUPLICATE_SIMILARITY:
                    copied = True
                    break

        history.append((timestamp, tokens))
        return COPY_SCORE if copied else FRESH_SCORE
