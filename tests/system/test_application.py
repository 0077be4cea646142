"""Tests for the end-to-end social sensing application."""

import numpy as np
import pytest

from repro.core.acs import ACSConfig
from repro.core.sstd import SSTDConfig
from repro.core.types import Attitude, Report, TruthValue
from repro.system.application import (
    ApplicationConfig,
    SocialSensingApplication,
)
from repro.text import RawTweet, TweetPipeline

FAST = ApplicationConfig(
    sstd=SSTDConfig(acs=ACSConfig(window=40.0, step=20.0), min_observations=4),
    retrain_every=5,
)


def feed_reports(app, reports, batch_seconds=20.0, duration=1000.0):
    cursor = 0
    for now in np.arange(batch_seconds, duration + batch_seconds, batch_seconds):
        batch = []
        while cursor < len(reports) and reports[cursor].timestamp <= now:
            batch.append(reports[cursor])
            cursor += 1
        app.ingest_reports(batch, float(now))


class TestIngestReports:
    def _flip_reports(self, seed=0, n=800, duration=1000.0, flip_at=500.0):
        rng = np.random.default_rng(seed)
        reports = []
        for k in range(n):
            t = float(rng.uniform(0, duration))
            truth = t >= flip_at
            says = truth if rng.random() < 0.85 else not truth
            reports.append(
                Report(
                    f"s{k % 150}", "fire-downtown", t,
                    attitude=Attitude.AGREE if says else Attitude.DISAGREE,
                )
            )
        return sorted(reports, key=lambda r: r.timestamp)

    def test_tracks_flip_and_records_history(self):
        app = SocialSensingApplication(FAST)
        feed_reports(app, self._flip_reports())
        assert app.verdicts()["fire-downtown"] is TruthValue.TRUE
        assert any(
            flip.claim_id == "fire-downtown"
            and flip.new_value is TruthValue.TRUE
            for flip in app.flips
        )

    def test_counts(self):
        app = SocialSensingApplication(FAST)
        reports = self._flip_reports(n=200)
        feed_reports(app, reports)
        assert app.n_reports == 200
        assert app.n_claims == 1
        assert "claims=1" in app.status_line()

    def test_qos_tracked_per_batch(self):
        app = SocialSensingApplication(FAST)
        feed_reports(app, self._flip_reports(n=100))
        assert len(app.tracker.records) == 50  # one per 20s batch
        assert 0.0 <= app.qos_hit_rate <= 1.0

    def test_source_diagnostics(self):
        rng = np.random.default_rng(1)
        reports = []
        for k in range(600):
            t = float(rng.uniform(0, 1000))
            source = f"liar{k % 3}" if k % 10 == 0 else f"ok{k % 80}"
            truth = True  # claim always true
            reliability = 0.1 if source.startswith("liar") else 0.9
            says = truth if rng.random() < reliability else not truth
            reports.append(
                Report(
                    source, "c", t,
                    attitude=Attitude.AGREE if says else Attitude.DISAGREE,
                )
            )
        reports.sort(key=lambda r: r.timestamp)
        app = SocialSensingApplication(FAST)
        feed_reports(app, reports)
        spreaders = app.suspected_spreaders(top_k=5)
        assert spreaders
        assert all(s.source_id.startswith("liar") for s in spreaders)

    def test_true_claims_listing(self):
        app = SocialSensingApplication(FAST)
        reports = [
            Report(f"s{k}", "yes-claim", float(k), attitude=Attitude.AGREE)
            for k in range(1, 40)
        ] + [
            Report(f"t{k}", "no-claim", float(k), attitude=Attitude.DISAGREE)
            for k in range(1, 40)
        ]
        reports.sort(key=lambda r: r.timestamp)
        feed_reports(app, reports, batch_seconds=10.0, duration=100.0)
        assert app.true_claims() == ["yes-claim"]


class TestTweetPipelineFeed:
    def test_pipeline_integration(self):
        app = SocialSensingApplication(FAST)
        tweets = [
            RawTweet(f"u{k}", "police confirm the road is closed", float(k))
            for k in range(1, 30)
        ]
        kept = app.ingest_reports(TweetPipeline().process_stream(tweets), now=30.0)
        assert kept == 29
        assert app.n_claims == 1
        (claim_id,) = app.verdicts()
        assert app.verdicts()[claim_id] is TruthValue.TRUE


class TestConfig:
    def test_deadline_validation(self):
        with pytest.raises(ValueError):
            ApplicationConfig(deadline=0.0)
