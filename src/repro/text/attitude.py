"""Heuristic attitude classifier (paper Definition 1, Section V-A2).

The paper computes the attitude score "using a heuristic method based
mainly on the content of the tweet ... (e.g., whether a tweet contains
certain negative words such as 'false', 'fake', 'rumor', 'debunked',
'not true')".  This module reproduces that keyword heuristic, extended
with simple bigram handling so "not true" works as a phrase.
"""

from __future__ import annotations

from repro.core.types import Attitude
from repro.text.tokenize import tokenize

__all__ = [
    "ASSERT_CUES",
    "AttitudeClassifier",
    "DENIAL_CUES",
    "DENIAL_PHRASES",
]

#: Cues that a tweet denies / debunks the claim it mentions.
DENIAL_CUES = frozenset(
    """false fake rumor rumour debunked hoax untrue deny denies denied
    misinformation lie lies lying no nope wrong incorrect""".split()
)

DENIAL_PHRASES = (
    ("not", "true"),
    ("no", "evidence"),
    ("isn't", "true"),
    ("is", "fake"),
    ("stop", "spreading"),
    ("officials", "deny"),
)

#: Cues that a tweet asserts / confirms the claim.
ASSERT_CUES = frozenset(
    """breaking confirmed confirm confirms happening witnessed saw update
    alert reports reporting yes police official officials""".split()
)


class AttitudeClassifier:
    """Keyword/phrase attitude scorer."""

    def classify(self, text: str) -> Attitude:
        """Attitude of ``text``: AGREE, DISAGREE, or NEUTRAL.

        Denial cues dominate assertion cues (a tweet shouting
        "BREAKING: that bomb story is FAKE" is a denial); tweets with no
        cue at all lean AGREE — on Twitter, repeating a claim without
        comment *is* endorsement, which is also how the paper labels the
        football trace ("the rest of the tweets are assigned -1" only
        applies to its score-change semantics).
        """
        tokens = tokenize(text)
        token_set_ = set(tokens)

        denial_hits = len(token_set_ & DENIAL_CUES)
        denial_hits += sum(
            1 for phrase in DENIAL_PHRASES if self._has_phrase(tokens, phrase)
        )
        assert_hits = len(token_set_ & ASSERT_CUES)

        if denial_hits > 0 and denial_hits >= assert_hits:
            return Attitude.DISAGREE
        if assert_hits > 0:
            return Attitude.AGREE
        if not tokens:
            return Attitude.NEUTRAL
        return Attitude.AGREE

    @staticmethod
    def _has_phrase(tokens: list[str], phrase: tuple[str, ...]) -> bool:
        n = len(phrase)
        return any(
            tuple(tokens[i : i + n]) == phrase
            for i in range(len(tokens) - n + 1)
        )

    def score(self, text: str) -> int:
        """The numeric attitude score rho in {-1, 0, +1}."""
        return int(self.classify(text))
