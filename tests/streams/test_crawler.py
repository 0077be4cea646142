"""Tests for the simulated crawler and estimate serialization."""

import pytest

from repro.core import load_estimates, save_estimates, iter_estimates
from repro.core.types import TruthEstimate, TruthValue
from repro.streams import SimulatedCrawler, Trace, generate_trace, paris_shooting
from repro.streams.generator import GeneratorConfig
from repro.system import ApplicationConfig, SocialSensingApplication
from repro.text import TweetPipeline
from repro.core.acs import ACSConfig
from repro.core.sstd import SSTDConfig


@pytest.fixture(scope="module")
def texty_trace():
    return generate_trace(paris_shooting().scaled(0.004), seed=9)


class TestSimulatedCrawler:
    def test_polls_cover_all_tweets(self, texty_trace):
        crawler = SimulatedCrawler(texty_trace)
        batches = list(crawler.polls())
        assert sum(len(b) for b in batches) == crawler.total_tweets()
        assert all(b.poll_time > 0 for b in batches)

    def test_tweets_are_raw(self, texty_trace):
        crawler = SimulatedCrawler(texty_trace)
        for batch in crawler.polls():
            for tweet in batch.tweets:
                assert tweet.text
                assert tweet.source_id
            break

    def test_rejects_textless_trace(self):
        trace = generate_trace(
            paris_shooting().scaled(0.002),
            seed=1,
            config=GeneratorConfig(with_text=False),
        )
        with pytest.raises(ValueError, match="text"):
            SimulatedCrawler(trace)

    def test_full_figure2_loop(self, texty_trace):
        """Crawler -> text pipeline -> application, no ground truth leaks."""
        crawler = SimulatedCrawler(texty_trace)
        app = SocialSensingApplication(
            ApplicationConfig(
                sstd=SSTDConfig(
                    acs=ACSConfig(window=10.0, step=5.0), min_observations=4
                ),
                retrain_every=4,
            )
        )
        pipeline = TweetPipeline()
        for batch in crawler.polls():
            reports = pipeline.process_stream(batch.tweets)
            app.ingest_reports(reports, now=batch.poll_time)
        assert app.n_claims > 0
        assert app.n_reports > 0
        assert app.verdicts()


class TestEstimatesIO:
    def _estimates(self):
        return [
            TruthEstimate("c1", 10.0, TruthValue.TRUE, confidence=0.9),
            TruthEstimate("c1", 20.0, TruthValue.FALSE, confidence=0.7),
            TruthEstimate("c2", 10.0, TruthValue.TRUE),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "estimates.jsonl"
        count = save_estimates(self._estimates(), path)
        assert count == 3
        loaded = load_estimates(path)
        assert loaded == self._estimates()

    def test_iter_streams_lazily(self, tmp_path):
        path = tmp_path / "estimates.jsonl"
        save_estimates(self._estimates(), path)
        iterator = iter_estimates(path)
        first = next(iterator)
        assert first.claim_id == "c1"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "estimates.jsonl"
        save_estimates(self._estimates()[:1], path)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_estimates(path)) == 1

    def test_malformed_record_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"claim_id": "c"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_estimates(path)

    def test_cli_output_flag(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        generate_trace(paris_shooting().scaled(0.002), seed=2).save(trace_path)
        out_path = tmp_path / "estimates.jsonl"
        code = main(
            [
                "discover", str(trace_path),
                "--method", "MajorityVote",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        assert load_estimates(out_path)
