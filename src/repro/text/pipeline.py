"""End-to-end tweet pre-processing pipeline (paper Section V-A2).

Raw tweets go in; scored :class:`~repro.core.types.Report` records come
out, ready for any truth-discovery algorithm:

1. the online clusterer assigns each tweet to a claim;
2. the attitude classifier sets rho;
3. the Naive Bayes hedge classifier sets kappa;
4. the independence scorer sets eta.

The paper's keyword filter runs before the pipeline, where the tweets
are collected (:class:`~repro.text.keywords.KeywordFilter`).  Each
stage is a public attribute, so a component can be replaced as a
plugin of the system, as the paper describes ("one can easily update or
replace components like uncertainty classifier").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.types import Report
from repro.text.attitude import AttitudeClassifier
from repro.text.clustering import OnlineClaimClusterer
from repro.text.independence import IndependenceScorer
from repro.text.uncertainty import NaiveBayesHedgeClassifier

__all__ = [
    "RawTweet",
    "TweetPipeline",
]


@dataclass(frozen=True, slots=True)
class RawTweet:
    """An unprocessed tweet as collected from the (simulated) API."""

    source_id: str
    text: str
    timestamp: float

    def __post_init__(self) -> None:
        if not self.source_id:
            raise ValueError("source_id must be non-empty")
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")


class TweetPipeline:
    """Composable tweet -> Report pipeline.

    Example:
        >>> pipeline = TweetPipeline()
        >>> report = pipeline.process(
        ...     RawTweet("alice", "BREAKING: bridge closed", 12.0)
        ... )
        >>> report.claim_id                                # doctest: +SKIP
        'claim-00001'
    """

    def __init__(self) -> None:
        self.clusterer = OnlineClaimClusterer()
        self.attitude = AttitudeClassifier()
        self.uncertainty = NaiveBayesHedgeClassifier()
        self.independence = IndependenceScorer()
        self.processed = 0

    def process(self, tweet: RawTweet) -> Report:
        """Score one tweet."""
        claim_id = self.clusterer.assign(tweet.text)
        attitude = self.attitude.classify(tweet.text)
        kappa = self.uncertainty.uncertainty_score(tweet.text)
        eta = self.independence.score(claim_id, tweet.text, tweet.timestamp)
        self.processed += 1
        return Report(
            source_id=tweet.source_id,
            claim_id=claim_id,
            timestamp=tweet.timestamp,
            attitude=attitude,
            uncertainty=kappa,
            independence=eta,
            text=tweet.text,
        )

    def process_stream(self, tweets: Iterable[RawTweet]) -> list[Report]:
        """Score a whole (time-ordered) stream."""
        return [self.process(tweet) for tweet in tweets]
