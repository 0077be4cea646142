"""Tests for the tweet-processing pipeline."""

import pytest
from hypothesis import given, strategies as st

from repro.core.types import Attitude
from repro.text import (
    AttitudeClassifier,
    KeywordFilter,
    NaiveBayesHedgeClassifier,
    OnlineClaimClusterer,
    RawTweet,
    TweetPipeline,
    content_tokens,
    is_retweet,
    jaccard_distance,
    jaccard_similarity,
    text_distance,
    token_set,
    tokenize,
)
from repro.text.independence import (
    COPY_SCORE,
    FRESH_SCORE,
    WINDOW,
    IndependenceScorer,
)
from repro.text.jaccard import pairwise_max_distance


class TestTokenize:
    def test_basic(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_hashtags_and_mentions_kept(self):
        tokens = tokenize("#osu shooting reported by @police")
        assert "#osu" in tokens
        assert "@police" in tokens

    def test_urls_stripped(self):
        tokens = tokenize("see https://t.co/abc123 for details")
        assert not any("t.co" in t or "http" in t for t in tokens)

    def test_content_tokens_drop_stopwords(self):
        assert "the" not in content_tokens("the bridge is closed")
        assert "bridge" in content_tokens("the bridge is closed")



class TestJaccard:
    def test_identical_texts(self):
        assert text_distance("bomb at the library", "bomb at the library") == 0.0

    def test_disjoint_texts(self):
        assert text_distance("touchdown irish", "hostages supermarket") == 1.0

    def test_empty_sets_identical(self):
        assert jaccard_similarity(frozenset(), frozenset()) == 1.0

    def test_symmetry(self):
        a, b = token_set("police confirm arrest"), token_set("arrest made by police")
        assert jaccard_distance(a, b) == jaccard_distance(b, a)

    @given(st.text(max_size=60), st.text(max_size=60))
    def test_distance_bounded_property(self, a, b):
        assert 0.0 <= text_distance(a, b) <= 1.0

    @given(st.text(max_size=60))
    def test_self_distance_zero_property(self, text):
        assert text_distance(text, text) == 0.0

    def test_pairwise_max(self):
        texts = ["a b c", "a b c", "x y z"]
        assert pairwise_max_distance(texts) == 1.0


class TestClusterer:
    def test_similar_tweets_share_cluster(self):
        clusterer = OnlineClaimClusterer()
        a = clusterer.assign("explosion at the marathon finish line")
        b = clusterer.assign("huge explosion near marathon finish line!!")
        assert a == b

    def test_unrelated_tweets_split_clusters(self):
        clusterer = OnlineClaimClusterer()
        a = clusterer.assign("explosion at the marathon finish line")
        b = clusterer.assign("buckeyes touchdown in the fourth quarter")
        assert a != b

    def test_centroid_has_frequent_tokens(self):
        clusterer = OnlineClaimClusterer()
        for _ in range(3):
            clusterer.assign("bridge closed traffic terrible")
        (cluster,) = clusterer.clusters.values()
        assert "bridge" in cluster.centroid()

    def test_split_on_diameter(self):
        # Each half of the 12-token centroid is close enough to join,
        # but the two halves share no token: the diameter check splits.
        words = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu"
        first_half = " ".join(words.split()[:6])
        second_half = " ".join(words.split()[6:])
        clusterer = OnlineClaimClusterer()
        ids = clusterer.assign_all([words, first_half, second_half])
        assert len(set(ids)) == 1
        clusterer.assign(words)
        assert clusterer.n_clusters >= 2

    def test_assign_all(self):
        clusterer = OnlineClaimClusterer()
        ids = clusterer.assign_all(["a b c", "a b c d"])
        assert len(ids) == 2


class TestAttitude:
    @pytest.mark.parametrize(
        "text",
        [
            "BREAKING: shooting at the campus",
            "police confirm the arrest",
            "i just saw the fire myself",
        ],
    )
    def test_assertions(self, text):
        assert AttitudeClassifier().classify(text) is Attitude.AGREE

    @pytest.mark.parametrize(
        "text",
        [
            "that shooting story is fake news",
            "rumor debunked: no bomb at the library",
            "this is not true, officials deny it",
            "stop spreading misinformation about the attack",
        ],
    )
    def test_denials(self, text):
        assert AttitudeClassifier().classify(text) is Attitude.DISAGREE

    def test_denial_beats_assertion(self):
        text = "BREAKING: that viral bomb claim is fake"
        assert AttitudeClassifier().classify(text) is Attitude.DISAGREE

    def test_plain_mention_counts_as_endorsement(self):
        assert (
            AttitudeClassifier().classify("explosion near the stadium")
            is Attitude.AGREE
        )

    def test_empty_text_neutral(self):
        assert AttitudeClassifier().classify("") is Attitude.NEUTRAL



class TestHedgeClassifier:
    def test_hedged_examples_score_high(self):
        clf = NaiveBayesHedgeClassifier()
        assert clf.uncertainty_score(
            "unconfirmed reports, possibly a shooting, not sure"
        ) > 0.5

    def test_confident_examples_score_low(self):
        clf = NaiveBayesHedgeClassifier()
        assert clf.uncertainty_score(
            "police confirm the arrest was made tonight"
        ) < 0.5

    def test_score_in_valid_range(self):
        clf = NaiveBayesHedgeClassifier()
        for text in ("", "maybe", "confirmed", "xyzzy unknown words"):
            assert 0.0 <= clf.uncertainty_score(text) < 1.0

    def test_classify_threshold(self):
        clf = NaiveBayesHedgeClassifier()
        assert clf.classify("might be true, possibly, who knows")
        assert not clf.classify("officials announce the road reopened")

    def test_incremental_training(self):
        clf = NaiveBayesHedgeClassifier()
        before = clf.hedge_probability("floofy wug")
        clf.train([("floofy wug", True)] * 20)
        assert clf.hedge_probability("floofy wug") > before

    def test_needs_both_classes(self):
        clf = NaiveBayesHedgeClassifier(corpus=[("a", True)])
        with pytest.raises(RuntimeError):
            clf.hedge_probability("a")


class TestIndependence:
    def test_retweet_detection(self):
        assert is_retweet("RT @user: something happened")
        assert is_retweet("  rt @User: x")
        assert not is_retweet("something happened RT later")

    def test_retweet_scores_low(self):
        scorer = IndependenceScorer()
        eta = scorer.score("c1", "RT @a: bomb at the library", 1.0)
        assert eta == COPY_SCORE

    def test_near_duplicate_scores_low(self):
        scorer = IndependenceScorer()
        first = scorer.score("c1", "bomb found at the JFK library", 1.0)
        second = scorer.score("c1", "bomb found at the JFK library!!", 2.0)
        assert first == FRESH_SCORE
        assert second == COPY_SCORE

    def test_window_expiry(self):
        scorer = IndependenceScorer()
        scorer.score("c1", "bomb found at the JFK library", 1.0)
        eta = scorer.score("c1", "bomb found at the JFK library", 2.0 + WINDOW)
        assert eta == FRESH_SCORE

    def test_claims_do_not_cross_contaminate(self):
        scorer = IndependenceScorer()
        scorer.score("c1", "bomb found at the JFK library", 1.0)
        eta = scorer.score("c2", "bomb found at the JFK library", 2.0)
        assert eta == FRESH_SCORE


class TestKeywordFilter:
    def test_single_keyword(self):
        keyword_filter = KeywordFilter(("boston",))
        assert keyword_filter.matches("explosion in Boston today")
        assert not keyword_filter.matches("explosion in Paris today")

    def test_multiword_keyword(self):
        keyword_filter = KeywordFilter(("charlie hebdo",))
        assert keyword_filter.matches("attack at Charlie Hebdo offices")
        assert not keyword_filter.matches("charlie was here")

    def test_filter_list(self):
        keyword_filter = KeywordFilter(("game",))
        kept = keyword_filter.filter(["great game", "nice weather"])
        assert kept == ["great game"]

    def test_validation(self):
        with pytest.raises(ValueError):
            KeywordFilter(())


class TestTweetPipeline:
    def test_end_to_end_scoring(self):
        pipeline = TweetPipeline()
        report = pipeline.process(
            RawTweet("alice", "BREAKING: bridge into cambridge closed", 5.0)
        )
        assert report is not None
        assert report.source_id == "alice"
        assert report.attitude is Attitude.AGREE
        assert report.claim_id.startswith("claim-")
        assert 0.0 <= report.uncertainty < 1.0

    def test_same_story_same_claim(self):
        pipeline = TweetPipeline()
        a = pipeline.process(RawTweet("a", "suspect arrested near finish line", 1.0))
        b = pipeline.process(
            RawTweet("b", "the suspect was arrested near the finish line", 2.0)
        )
        assert a.claim_id == b.claim_id

    def test_retweet_low_independence(self):
        pipeline = TweetPipeline()
        pipeline.process(RawTweet("a", "fire at the stadium", 1.0))
        rt = pipeline.process(RawTweet("b", "RT @a: fire at the stadium", 2.0))
        assert rt.independence < 1.0

    def test_process_stream(self):
        pipeline = TweetPipeline()
        reports = pipeline.process_stream(
            [
                RawTweet("a", "fire downtown", 1.0),
                RawTweet("b", "lovely weather", 2.0),
                RawTweet("c", "the fire is spreading", 3.0),
            ]
        )
        assert [r.timestamp for r in reports] == [1.0, 2.0, 3.0]
        assert pipeline.processed == 3

    def test_raw_tweet_validation(self):
        with pytest.raises(ValueError):
            RawTweet("", "x", 1.0)
        with pytest.raises(ValueError):
            RawTweet("a", "x", -1.0)
