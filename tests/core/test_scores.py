"""Unit and property tests for contribution scores (paper Eq. (1))."""

import pytest
from hypothesis import given, strategies as st

from repro.core.scores import ATTITUDE_ONLY, FULL_WEIGHTS, ScoreWeights
from repro.core.types import Attitude, Report


def make_report(attitude=Attitude.AGREE, uncertainty=0.0, independence=1.0):
    return Report(
        "s1", "c1", 0.0,
        attitude=attitude, uncertainty=uncertainty, independence=independence,
    )


reports = st.builds(
    make_report,
    attitude=st.sampled_from(list(Attitude)),
    uncertainty=st.floats(min_value=0.0, max_value=0.999),
    independence=st.floats(min_value=0.001, max_value=1.0),
)


class TestContributionScore:
    def test_equation_one(self):
        report = make_report(Attitude.DISAGREE, 0.4, 0.5)
        assert report.contribution_score == pytest.approx(-1 * 0.6 * 0.5)

    @given(reports)
    def test_bounded_by_one(self, report):
        assert -1.0 <= report.contribution_score <= 1.0

    @given(reports)
    def test_sign_matches_attitude(self, report):
        score = report.contribution_score
        if report.attitude is Attitude.NEUTRAL:
            assert score == 0.0
        elif report.attitude is Attitude.AGREE:
            assert score >= 0.0
        else:
            assert score <= 0.0

    @given(reports)
    def test_uncertainty_discounts_magnitude(self, report):
        certain = report.with_scores(uncertainty=0.0)
        assert abs(report.contribution_score) <= abs(
            certain.contribution_score
        ) + 1e-12


class TestScoreWeights:
    def test_full_matches_report_property(self):
        report = make_report(Attitude.AGREE, 0.3, 0.7)
        (score,) = FULL_WEIGHTS.score_column([report])
        assert score == report.contribution_score

    def test_attitude_only_ignores_other_components(self):
        report = make_report(Attitude.AGREE, 0.9, 0.001)
        assert ATTITUDE_ONLY.score_column([report]).tolist() == [1.0]

    def test_uncertainty_toggle(self):
        weights = ScoreWeights(use_uncertainty=False)
        report = make_report(Attitude.AGREE, 0.5, 0.5)
        assert weights.score_column([report]).tolist() == [0.5]

    def test_independence_toggle(self):
        weights = ScoreWeights(use_independence=False)
        report = make_report(Attitude.AGREE, 0.5, 0.5)
        assert weights.score_column([report]).tolist() == [0.5]
