"""Tweet pre-processing: claims, attitudes, uncertainty, independence."""

from repro.text.attitude import AttitudeClassifier
from repro.text.clustering import Cluster, OnlineClaimClusterer
from repro.text.independence import IndependenceScorer, is_retweet
from repro.text.jaccard import (
    jaccard_distance,
    jaccard_similarity,
    text_distance,
)
from repro.text.keywords import (
    BOSTON_KEYWORDS,
    FOOTBALL_KEYWORDS,
    PARIS_KEYWORDS,
    KeywordFilter,
)
from repro.text.pipeline import RawTweet, TweetPipeline
from repro.text.polarity import PolarityAnalyzer, PolarityResult
from repro.text.tokenize import content_tokens, token_set, tokenize
from repro.text.uncertainty import HEDGE_CORPUS, NaiveBayesHedgeClassifier

__all__ = [
    "AttitudeClassifier",
    "BOSTON_KEYWORDS",
    "Cluster",
    "FOOTBALL_KEYWORDS",
    "HEDGE_CORPUS",
    "IndependenceScorer",
    "KeywordFilter",
    "NaiveBayesHedgeClassifier",
    "OnlineClaimClusterer",
    "PARIS_KEYWORDS",
    "PolarityAnalyzer",
    "PolarityResult",
    "RawTweet",
    "TweetPipeline",
    "content_tokens",
    "is_retweet",
    "jaccard_distance",
    "jaccard_similarity",
    "text_distance",
    "token_set",
    "tokenize",
]
