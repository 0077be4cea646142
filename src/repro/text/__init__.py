"""Tweet pre-processing: claims, attitudes, uncertainty, independence."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.text.attitude": ("AttitudeClassifier",),
        "repro.text.clustering": ("Cluster", "OnlineClaimClusterer"),
        "repro.text.independence": ("IndependenceScorer", "is_retweet"),
        "repro.text.jaccard": (
            "jaccard_distance",
            "jaccard_similarity",
            "text_distance",
        ),
        "repro.text.keywords": (
            "BOSTON_KEYWORDS",
            "FOOTBALL_KEYWORDS",
            "PARIS_KEYWORDS",
            "KeywordFilter",
        ),
        "repro.text.pipeline": ("RawTweet", "TweetPipeline"),
        "repro.text.polarity": ("PolarityAnalyzer", "PolarityResult"),
        "repro.text.tokenize": ("content_tokens", "token_set", "tokenize"),
        "repro.text.uncertainty": ("HEDGE_CORPUS", "NaiveBayesHedgeClassifier"),
    },
)
