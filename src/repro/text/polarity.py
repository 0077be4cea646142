"""Lexicon-based polarity analysis (paper §VII, second future-work item).

"We plan to develop accurate classifiers to scale the labeling process
by leveraging more refined techniques from Natural Language Processing
(NLP) and text mining.  For example, the polarity analysis is often
used to automatically decide whether a tweet is expressing negative or
positive feelings towards a claim."

This module adds that refinement as a drop-in replacement for the
keyword :class:`~repro.text.attitude.AttitudeClassifier` ("the SSTD is
designed as a general framework where one can easily update or replace
components ... as a plugin of the system"): a valence lexicon with
negation handling and intensifiers produces a continuous polarity score
in ``[-1, 1]``, which maps onto the attitude alphabet with a neutral
dead-zone.  A cue-less tweet, or one whose cues cancel out, counts as
AGREE: on Twitter, repeating a claim without comment is endorsement
(as in the keyword classifier).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import Attitude
from repro.text.tokenize import tokenize

__all__ = [
    "INTENSIFIERS",
    "LEXICON",
    "NEGATORS",
    "PolarityAnalyzer",
    "PolarityResult",
]

#: Valence lexicon tuned for situational-awareness tweets: positive
#: values indicate endorsement/confirmation of a claim, negative values
#: denial/debunking.  This intentionally differs from generic sentiment
#: ("terrible explosion" endorses the explosion claim) — cue words are
#: about *epistemic* stance, not emotion.
LEXICON: dict[str, float] = {
    # confirmation cues
    "confirmed": 1.0, "confirm": 1.0, "confirms": 1.0, "breaking": 0.8,
    "happening": 0.7, "witnessed": 0.9, "saw": 0.6, "yes": 0.5,
    "official": 0.6, "officials": 0.4, "police": 0.3, "update": 0.4,
    "alert": 0.5, "true": 0.8, "real": 0.6, "verified": 1.0,
    # denial cues
    "false": -1.0, "fake": -1.0, "hoax": -1.0, "debunked": -1.0,
    "rumor": -0.7, "rumour": -0.7, "untrue": -1.0, "misinformation": -1.0,
    "deny": -0.8, "denies": -0.8, "denied": -0.8, "wrong": -0.6,
    "lie": -0.8, "lies": -0.8, "no": -0.3, "nope": -0.6,
}

#: Tokens that flip the valence of the next scored token.
NEGATORS = frozenset({"not", "never", "no", "isn't", "aren't", "wasn't", "don't"})

#: Tokens that scale the valence of the next scored token.
INTENSIFIERS: dict[str, float] = {
    "very": 1.5, "totally": 1.5, "completely": 1.5, "absolutely": 1.5,
    "definitely": 1.4, "really": 1.3, "so": 1.2,
    "somewhat": 0.6, "kinda": 0.6, "slightly": 0.5, "maybe": 0.5,
    "possibly": 0.5, "probably": 0.8,
}

#: A net polarity with ``|score|`` below this counts as cue-less.
NEUTRAL_BAND = 0.1


@dataclass(frozen=True, slots=True)
class PolarityResult:
    """Continuous polarity plus the derived discrete attitude."""

    score: float
    attitude: Attitude
    n_cues: int


class PolarityAnalyzer:
    """Valence-lexicon polarity scorer with negation and intensifiers."""

    def analyze(self, text: str) -> PolarityResult:
        """Score one tweet."""
        tokens = tokenize(text)
        total = 0.0
        n_cues = 0
        negate = False
        intensity = 1.0
        for token in tokens:
            if token in NEGATORS:
                negate = True
                continue
            if token in INTENSIFIERS:
                intensity *= INTENSIFIERS[token]
                continue
            valence = LEXICON.get(token)
            if valence is not None:
                value = valence * intensity
                if negate:
                    value = -value
                total += value
                n_cues += 1
            # Modifier scope ends at the next content token.
            negate = False
            intensity = 1.0

        if n_cues == 0:
            score = 0.0
            attitude = Attitude.AGREE if tokens else Attitude.NEUTRAL
        else:
            score = max(-1.0, min(1.0, total / n_cues))
            # Inside the neutral band the tweet counts as cue-less.
            attitude = (
                Attitude.AGREE if score > -NEUTRAL_BAND else Attitude.DISAGREE
            )
        return PolarityResult(score=score, attitude=attitude, n_cues=n_cues)

    def classify(self, text: str) -> Attitude:
        """Pipeline-compatible attitude interface."""
        return self.analyze(text).attitude

    def score(self, text: str) -> int:
        """Numeric attitude in {-1, 0, +1}."""
        return int(self.classify(text))
