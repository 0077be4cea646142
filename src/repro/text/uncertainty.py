"""Uncertainty (hedge) classifier (paper Definition 2, Section V-A2).

The paper trains "a simple text classifier using skit-learn [sic] ...
with the training data provided by CoNLL-2010 Shared Task" (hedge
detection).  Neither scikit-learn nor the CoNLL data are available
offline, so this module substitutes both (DESIGN.md Section 3):

- a from-scratch **multinomial Naive Bayes** classifier (the same model
  family a "simple text classifier" denotes), and
- a built-in hedge-cue training corpus in the spirit of CoNLL-2010:
  sentences labelled *hedged* (speculative language: "might", "possibly",
  "unconfirmed") vs *confident*.

The classifier's output is ``P(hedged | text)`` clamped to ``[0, 1)`` —
exactly the uncertainty score kappa that Eq. (1) consumes.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from repro.text.tokenize import tokenize

__all__ = [
    "HEDGE_CORPUS",
    "NaiveBayesHedgeClassifier",
]

#: Built-in training corpus: (text, is_hedged).  Kept deliberately
#: domain-generic; scenario benchmarks never train on their own traces.
HEDGE_CORPUS: tuple[tuple[str, bool], ...] = (
    ("unconfirmed reports of an explosion downtown", True),
    ("this might be true but i am not sure", True),
    ("possibly a shooting near the stadium, waiting for confirmation", True),
    ("hearing rumors that the bridge is closed, can anyone confirm", True),
    ("it seems like the suspect escaped, maybe towards the river", True),
    ("allegedly the school is on lockdown, not verified", True),
    ("sources suggest there could be casualties, unclear so far", True),
    ("apparently the game is tied, not certain though", True),
    ("perhaps the road is blocked, hard to tell from here", True),
    ("some say the power is out, unverified claims circulating", True),
    ("reportedly two suspects, details remain unclear", True),
    ("i think the train derailed but this is speculation", True),
    ("rumor going around that the mayor resigned, who knows", True),
    ("may have been a gas leak, awaiting official word", True),
    ("supposedly the airport reopened, anyone able to verify", True),
    ("looks like it could be a drill, uncertain at this point", True),
    ("police confirm a shooting at the campus library", False),
    ("breaking the bridge is closed both directions", False),
    ("i am standing here watching the fire spread", False),
    ("officials announce two arrests were made tonight", False),
    ("the score is now fourteen to seven", False),
    ("the governor declared a state of emergency", False),
    ("just saw the suspect taken into custody", False),
    ("the road reopened five minutes ago", False),
    ("confirmed the flight landed safely", False),
    ("we won the game in overtime", False),
    ("the power is back on in our neighborhood", False),
    ("the museum evacuation is complete everyone is out", False),
    ("firefighters contained the blaze before midnight", False),
    ("the final whistle just blew it is over", False),
    ("city hall issued an official statement this morning", False),
    ("witnesses filmed the arrest as it happened", False),
)


#: Additive (Laplace) smoothing of the token counts.
SMOOTHING = 1.0


class NaiveBayesHedgeClassifier:
    """Multinomial Naive Bayes over tweet tokens with Laplace smoothing.

    ``corpus`` is the labelled training data, :data:`HEDGE_CORPUS` by
    default.
    """

    def __init__(
        self, corpus: Sequence[tuple[str, bool]] = HEDGE_CORPUS
    ) -> None:
        self._hedged_counts: Counter = Counter()
        self._confident_counts: Counter = Counter()
        self._hedged_docs = 0
        self._confident_docs = 0
        self.train(corpus)

    def train(self, corpus: Iterable[tuple[str, bool]]) -> None:
        """Add labelled examples (incremental: counts accumulate)."""
        for text, is_hedged in corpus:
            tokens = tokenize(text)
            if is_hedged:
                self._hedged_counts.update(tokens)
                self._hedged_docs += 1
            else:
                self._confident_counts.update(tokens)
                self._confident_docs += 1
        self._vocabulary = set(self._hedged_counts) | set(self._confident_counts)

    def hedge_probability(self, text: str) -> float:
        """P(hedged | text) under the Naive Bayes model."""
        if self._hedged_docs == 0 or self._confident_docs == 0:
            raise RuntimeError("classifier needs examples of both classes")
        tokens = tokenize(text)
        total_docs = self._hedged_docs + self._confident_docs
        log_hedged = math.log(self._hedged_docs / total_docs)
        log_confident = math.log(self._confident_docs / total_docs)

        vocab_size = max(len(self._vocabulary), 1)
        hedged_total = sum(self._hedged_counts.values())
        confident_total = sum(self._confident_counts.values())
        for token in tokens:
            log_hedged += math.log(
                (self._hedged_counts[token] + SMOOTHING)
                / (hedged_total + SMOOTHING * vocab_size)
            )
            log_confident += math.log(
                (self._confident_counts[token] + SMOOTHING)
                / (confident_total + SMOOTHING * vocab_size)
            )
        # Stable softmax over the two log joints.
        peak = max(log_hedged, log_confident)
        hedged = math.exp(log_hedged - peak)
        confident = math.exp(log_confident - peak)
        return hedged / (hedged + confident)

    def uncertainty_score(self, text: str) -> float:
        """The kappa of Eq. (1): P(hedged | text), clamped into [0, 1)."""
        return min(self.hedge_probability(text), 1.0 - 1e-9)

    def classify(self, text: str) -> bool:
        """True when the text is more likely hedged than confident."""
        return self.hedge_probability(text) > 0.5
