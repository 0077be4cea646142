"""Tests for the lexicon polarity analyzer (paper §VII extension)."""

import pytest

from repro.core.types import Attitude
from repro.text import PolarityAnalyzer
from repro.text.polarity import NEUTRAL_BAND


@pytest.fixture
def analyzer():
    return PolarityAnalyzer()


class TestPolarityScore:
    def test_confirmation_positive(self, analyzer):
        result = analyzer.analyze("police confirmed the arrest, verified")
        assert result.score > 0.5
        assert result.attitude is Attitude.AGREE

    def test_denial_negative(self, analyzer):
        result = analyzer.analyze("that story is fake, a total hoax, debunked")
        assert result.score < -0.5
        assert result.attitude is Attitude.DISAGREE

    def test_negation_flips(self, analyzer):
        plain = analyzer.analyze("the report is true").score
        negated = analyzer.analyze("the report is not true").score
        assert plain > 0
        assert negated < 0

    def test_intensifier_amplifies(self, analyzer):
        base = abs(analyzer.analyze("this is fake").score)
        strong = abs(analyzer.analyze("this is totally fake").score)
        assert strong >= base

    def test_downtoner_weakens(self, analyzer):
        base = abs(analyzer.analyze("this is fake").score)
        weak = abs(analyzer.analyze("this is possibly fake").score)
        assert weak < base

    def test_score_bounded(self, analyzer):
        result = analyzer.analyze(
            "totally absolutely completely fake hoax false debunked"
        )
        assert -1.0 <= result.score <= 1.0

    def test_cueless_text_defaults_to_agree(self, analyzer):
        result = analyzer.analyze("the bridge on fifth street")
        assert result.n_cues == 0
        assert result.attitude is Attitude.AGREE

    def test_empty_text_neutral(self, analyzer):
        assert analyzer.analyze("").attitude is Attitude.NEUTRAL

    def test_mixed_cues_net_out(self, analyzer):
        result = analyzer.analyze(
            "breaking: the explosion story is fake, a hoax"
        )
        # two denial cues (-1.0 each) outweigh the breaking cue (+0.8)
        assert result.attitude is Attitude.DISAGREE

    def test_balanced_cues_fall_back_to_default(self, analyzer):
        result = analyzer.analyze("breaking: the explosion story is fake")
        # +0.8 and -1.0 average to -0.1, inside the neutral dead-zone.
        assert abs(result.score) <= NEUTRAL_BAND + 1e-9
        assert result.attitude is Attitude.AGREE


class TestPipelineCompatibility:
    def test_classify_interface(self, analyzer):
        assert analyzer.classify("confirmed by officials") is Attitude.AGREE
        assert analyzer.score("this is false") == -1

    def test_usable_in_tweet_pipeline(self):
        from repro.text import RawTweet, TweetPipeline

        pipeline = TweetPipeline()
        pipeline.attitude = PolarityAnalyzer()
        report = pipeline.process(
            RawTweet("a", "officials confirmed the evacuation", 1.0)
        )
        assert report.attitude is Attitude.AGREE
