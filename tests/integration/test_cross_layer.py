"""Cross-layer integration tests: pieces built separately must agree."""

import numpy as np
import pytest

from repro.core.acs import ACSConfig, acs_sequence
from repro.core.reliability import ReliabilityEstimator
from repro.core.sstd import SSTD, SSTDConfig
from repro.hmm import select_n_states
from repro.streams import (
    StreamReplayer,
    generate_trace,
    osu_attack,
    validate_trace,
)
from repro.system import ApplicationConfig, SocialSensingApplication


@pytest.fixture(scope="module")
def osu_trace():
    return generate_trace(osu_attack().scaled(0.15), seed=6)


class TestScenarioTraceHealth:
    def test_osu_trace_validates(self, osu_trace):
        report = validate_trace(osu_trace)
        assert report.ok, report.summary()
        # The paper's sparsity regime: most sources report about once.
        stats = osu_trace.stats()
        assert stats.n_sources / stats.n_reports >= 0.4
        assert all(report.text for report in osu_trace.reports)


class TestModelSelectionOnRealACS:
    def test_flipping_claim_supports_two_states(self, osu_trace):
        """An ACS sequence of a claim whose truth actually flips should
        be better explained by 2 states than 1 (BIC)."""
        flipping = [
            cid
            for cid, tl in osu_trace.timelines.items()
            if tl.transition_times()
        ]
        assert flipping, "expected at least one flipping claim"
        # Pick the flipping claim with the most reports.
        by_count = {
            cid: sum(1 for r in osu_trace.reports if r.claim_id == cid)
            for cid in flipping
        }
        claim_id = max(by_count, key=by_count.get)
        reports = [r for r in osu_trace.reports if r.claim_id == claim_id]
        config = ACSConfig(window=3600.0, step=1200.0)
        _, values = acs_sequence(
            reports, config, start=osu_trace.start, end=osu_trace.end
        )
        observed = values[~np.isnan(values)]
        result = select_n_states(observed)
        assert result.best_by_bic == 2


class TestReliabilityAgainstGenerator:
    def test_posterior_tracks_ground_truth_reliability(self):
        """Posterior source reliability correlates with the generator's
        hidden reliability for well-observed sources.  Uses a
        concentrated population (prolific accounts) — the paper-regime
        long tail leaves too few multi-report sources to score."""
        from repro.streams import PopulationConfig, ScenarioSpec
        from repro.streams.generator import generate_trace as gen

        spec = ScenarioSpec(
            name="concentrated",
            duration=86_400.0,
            n_reports=6_000,
            n_claims=12,
            claim_texts=("something happened",),
            topic="t",
            mean_truth_flips=1.0,
            population=PopulationConfig(
                n_sources=300, zipf_exponent=0.8, retweet_propensity_range=(0.0, 0.1)
            ),
        )
        trace = gen(spec, seed=6)
        engine = SSTD(
            SSTDConfig(acs=ACSConfig(window=3600.0, step=1200.0))
        )
        estimates = engine.discover(
            trace.reports, start=trace.start, end=trace.end
        )
        posterior = ReliabilityEstimator().estimate(trace.reports, estimates)
        pairs = []
        for source_id, record in posterior.items():
            if record.n_scored < 8:
                continue
            source = trace.sources.get(source_id)
            if source is None or source.reliability is None:
                continue
            pairs.append((record.raw_accuracy, source.reliability))
        assert len(pairs) >= 20
        estimated, actual = zip(*pairs)
        correlation = np.corrcoef(estimated, actual)[0, 1]
        assert correlation > 0.5


class TestApplicationOverScenario:
    def test_application_replay_detects_flips(self, osu_trace):
        app = SocialSensingApplication(
            ApplicationConfig(
                sstd=SSTDConfig(
                    acs=ACSConfig(window=6.0, step=2.0), min_observations=4
                ),
                retrain_every=5,
            )
        )
        replayer = StreamReplayer(osu_trace, speed=100.0, duration=40.0)
        for batch in replayer.batches():
            app.ingest_reports(list(batch.reports), now=batch.arrival_time)
        assert app.n_claims > 0
        # Ground truth flips exist in this scenario, and the application
        # should have observed at least one verdict change live.
        assert app.flips
