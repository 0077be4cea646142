"""Tests for the SSTD truth discovery engine."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.sstd as sstd_module
from repro.core.acs import ACSConfig
from repro.core.sstd import (
    SSTD,
    ClaimTruthModel,
    SSTDConfig,
    StreamingSSTD,
)
from repro.core.types import Attitude, Report, TruthValue
from repro.devtools import contracts


def flip_scenario(
    n_reports=1500,
    flip_at=5000.0,
    duration=10000.0,
    reliability=0.8,
    seed=0,
    claim_id="c1",
):
    """Reports about one claim whose truth flips FALSE -> TRUE at flip_at."""
    rng = np.random.default_rng(seed)
    reports = []
    for k in range(n_reports):
        t = float(rng.uniform(0, duration))
        truth = t >= flip_at
        tells_truth = rng.random() < reliability
        says_true = truth if tells_truth else not truth
        reports.append(
            Report(
                f"s{k % 200}",
                claim_id,
                t,
                attitude=Attitude.AGREE if says_true else Attitude.DISAGREE,
            )
        )
    return sorted(reports, key=lambda r: r.timestamp)


FAST_CONFIG = SSTDConfig(acs=ACSConfig(window=400.0, step=200.0))


class TestSSTDConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SSTDConfig(em_max_iter=0)
        with pytest.raises(ValueError):
            SSTDConfig(min_observations=1)
        with pytest.raises(ValueError):
            SSTDConfig(sticky_prior=1.0)
        with pytest.raises(ValueError):
            SSTDConfig(sticky_prior=0.3)


class TestBatchSSTD:
    def test_tracks_truth_flip(self):
        reports = flip_scenario()
        engine = SSTD(FAST_CONFIG)
        estimates = engine.discover(reports)
        errors = sum(
            1
            for e in estimates
            if (e.value is TruthValue.TRUE) != (e.timestamp >= 5000.0)
        )
        assert errors / len(estimates) < 0.08

    def test_constant_true_claim_never_invents_flip(self):
        """A claim that is always TRUE must not get a phantom FALSE phase."""
        rng = np.random.default_rng(1)
        reports = []
        for k in range(800):
            t = float(rng.uniform(0, 10000))
            says_true = rng.random() < 0.8
            reports.append(
                Report(
                    f"s{k}", "c1", t,
                    attitude=Attitude.AGREE if says_true else Attitude.DISAGREE,
                )
            )
        estimates = SSTD(FAST_CONFIG).discover(reports)
        true_fraction = sum(
            1 for e in estimates if e.value is TruthValue.TRUE
        ) / len(estimates)
        assert true_fraction > 0.95

    def test_constant_false_claim(self):
        rng = np.random.default_rng(2)
        reports = []
        for k in range(800):
            t = float(rng.uniform(0, 10000))
            says_true = rng.random() < 0.2  # mostly debunked
            reports.append(
                Report(
                    f"s{k}", "c1", t,
                    attitude=Attitude.AGREE if says_true else Attitude.DISAGREE,
                )
            )
        estimates = SSTD(FAST_CONFIG).discover(reports)
        false_fraction = sum(
            1 for e in estimates if e.value is TruthValue.FALSE
        ) / len(estimates)
        assert false_fraction > 0.95

    def test_multiple_claims_grouped(self):
        reports = flip_scenario(claim_id="a") + flip_scenario(
            claim_id="b", seed=9
        )
        engine = SSTD(FAST_CONFIG)
        estimates = engine.discover(reports)
        assert {e.claim_id for e in estimates} == {"a", "b"}
        assert set(engine.results) == {"a", "b"}

    def test_no_reports(self):
        assert SSTD(FAST_CONFIG).discover([]) == []

    def test_explicit_span(self):
        reports = flip_scenario(n_reports=200)
        estimates = SSTD(FAST_CONFIG).discover(reports, start=0.0, end=10000.0)
        times = sorted({e.timestamp for e in estimates})
        assert times[0] == pytest.approx(200.0)
        assert times[-1] >= 10000.0

    def test_uses_hmm_on_rich_data(self):
        engine = SSTD(FAST_CONFIG)
        engine.discover(flip_scenario())
        assert engine.results["c1"].used_hmm

    def test_confidence_column_is_range_checked_where_it_is_built(
        self, monkeypatch
    ):
        # The per-cell check of ``TruthEstimate.__post_init__`` runs once
        # over the whole column, so a caller that never builds estimates
        # (a worker shipping columns) cannot carry a bad posterior out.
        decode = sstd_module.BatchGaussianHMM.decode

        def inflated(model, observations, lengths):
            states, confidences, filter_states = decode(
                model, observations, lengths
            )
            return states, 3.0 * confidences, filter_states

        monkeypatch.setattr(sstd_module.BatchGaussianHMM, "decode", inflated)
        with contracts.contracts(False), pytest.raises(
            ValueError, match=r"confidence must be in \[0, 1\]"
        ):
            SSTD(FAST_CONFIG).discover(flip_scenario())

    def test_results_cleared_between_discover_calls(self):
        engine = SSTD(FAST_CONFIG)
        engine.discover(flip_scenario(claim_id="old"))
        assert set(engine.results) == {"old"}
        engine.discover(flip_scenario(claim_id="new", seed=2))
        # A fresh discover() describes only its own batch; results from
        # earlier runs must not accumulate.
        assert set(engine.results) == {"new"}

    def test_batched_discover_matches_per_claim_loop(self):
        reports = flip_scenario(claim_id="a") + flip_scenario(
            claim_id="b", seed=9, n_reports=700
        )
        engine = SSTD(FAST_CONFIG)
        batched = engine.discover(reports)
        grouped = engine.group_reports(reports)
        per_claim = [
            estimate
            for claim_id in sorted(grouped)
            for estimate in SSTD(FAST_CONFIG)
            .discover_claim(claim_id, grouped[claim_id])
            .estimates
        ]
        assert batched == per_claim


class TestSignFallback:
    def test_sparse_claim_uses_fallback(self):
        reports = [
            Report("s1", "c1", 100.0, attitude=Attitude.AGREE),
            Report("s2", "c1", 200.0, attitude=Attitude.AGREE),
        ]
        engine = SSTD(FAST_CONFIG)
        result = engine.discover_claim("c1", reports)
        assert not result.used_hmm
        assert result.estimates[-1].value is TruthValue.TRUE

    def test_fallback_carries_forward_through_gaps(self):
        model = ClaimTruthModel("c1", FAST_CONFIG)
        times = np.array([1.0, 2.0, 3.0, 4.0])
        acs = np.array([1.0, np.nan, np.nan, np.nan])
        result = model.fit_decode(times, acs)
        assert all(v is TruthValue.TRUE for v in result.values)

    def test_fallback_defaults_false_before_evidence(self):
        model = ClaimTruthModel("c1", FAST_CONFIG)
        times = np.array([1.0, 2.0])
        acs = np.array([np.nan, -0.5])
        result = model.fit_decode(times, acs)
        assert result.values[0] is TruthValue.FALSE

    def test_empty_sequence(self):
        model = ClaimTruthModel("c1", FAST_CONFIG)
        result = model.fit_decode(np.array([]), np.array([]))
        assert result.estimates == ()

    def test_length_mismatch_rejected(self):
        model = ClaimTruthModel("c1", FAST_CONFIG)
        with pytest.raises(ValueError, match="differ"):
            model.fit_decode(np.array([1.0]), np.array([1.0, 2.0]))

    @staticmethod
    def loop_sign_rule(acs_values):
        """The sign rule one value at a time: the reference."""
        codes, current = [], int(TruthValue.FALSE)
        for value in acs_values:
            if value > 0:
                current = int(TruthValue.TRUE)
            elif value < 0:
                current = int(TruthValue.FALSE)
            codes.append(current)
        return codes

    @settings(max_examples=80, deadline=None)
    @given(
        acs_values=st.lists(
            st.one_of(
                st.just(float("nan")),
                st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300]),
                st.floats(allow_nan=False),
            ),
            max_size=40,
        )
    )
    @example(acs_values=[float("nan")] * 3 + [-0.5, 0.0, 0.7, float("nan")])
    @example(acs_values=[0.0, 0.0, -0.0])
    @example(acs_values=[float("nan")] * 5)
    @example(acs_values=[1.0, -1.0] * 6)
    @example(acs_values=[])
    def test_fill_matches_the_loop(self, acs_values):
        acs = np.array(acs_values, dtype=float)
        result = sstd_module._sign_fallback("c1", np.arange(acs.size), acs)
        assert result.codes.dtype == np.int8
        assert result.codes.tolist() == self.loop_sign_rule(acs_values)


class TestTruthCodes:
    """A decoded state reads as TRUE when its emission mean is positive."""

    def decode(self, acs):
        times = 60.0 * np.arange(1, acs.size + 1)
        (result,) = sstd_module.batch_fit_decode(
            [("c", times, acs)], FAST_CONFIG
        )
        assert result.used_hmm
        return result, result.params.means

    def test_sign_mapping(self):
        rng = np.random.default_rng(0)
        acs = np.concatenate(
            [rng.normal(-0.6, 0.1, 12), rng.normal(0.7, 0.1, 12)]
        )
        result, means = self.decode(acs)
        assert (means > 0).tolist() == [False, True]
        assert result.codes.dtype == np.int8
        assert result.codes.tolist() == [0] * 12 + [1] * 12
        assert result.values[:12] == (TruthValue.FALSE,) * 12
        assert result.values[12:] == (TruthValue.TRUE,) * 12

    def test_both_positive_means_all_true(self):
        # Two well-separated regimes on the same side of zero: the chain
        # visits both states and neither reads as FALSE.
        rng = np.random.default_rng(1)
        acs = np.concatenate(
            [rng.normal(0.2, 0.03, 12), rng.normal(0.9, 0.03, 12)]
        )
        result, means = self.decode(acs)
        assert (means > 0).all() and means[1] - means[0] > 0.5
        assert result.codes.tolist() == [1] * 24
        assert all(0.0 <= c <= 1.0 for c in result.confidences.tolist())


class TestStreamingSSTD:
    def test_streaming_tracks_flip(self):
        reports = flip_scenario()
        engine = StreamingSSTD(FAST_CONFIG, retrain_every=5)
        cursor = 0
        correct = total = 0
        for now in np.arange(200.0, 10000.0, 200.0):
            while cursor < len(reports) and reports[cursor].timestamp <= now:
                engine.push(reports[cursor])
                cursor += 1
            for estimate in engine.tick(float(now)):
                # Skip the early warm-up phase.
                if now < 1000.0:
                    continue
                total += 1
                if (estimate.value is TruthValue.TRUE) == (now >= 5000.0):
                    correct += 1
        assert total > 0
        assert correct / total > 0.85

    def test_latest_tracks_most_recent(self):
        engine = StreamingSSTD(FAST_CONFIG)
        engine.push(Report("s1", "c1", 1.0, attitude=Attitude.AGREE))
        engine.tick(10.0)
        latest = engine.latest()
        assert latest["c1"].timestamp == 10.0

    def test_cold_start_sign_rule(self):
        engine = StreamingSSTD(FAST_CONFIG)
        engine.push(Report("s1", "c1", 1.0, attitude=Attitude.DISAGREE))
        (estimate,) = engine.tick(5.0)
        assert estimate.value is TruthValue.FALSE

    def test_empty_window_keeps_previous(self):
        engine = StreamingSSTD(FAST_CONFIG)
        engine.push(Report("s1", "c1", 1.0, attitude=Attitude.AGREE))
        engine.tick(5.0)
        (estimate,) = engine.tick(5000.0)  # window empty by now
        assert estimate.value is TruthValue.TRUE

    def test_retrain_every_validation(self):
        with pytest.raises(ValueError):
            StreamingSSTD(retrain_every=0)

    @pytest.mark.parametrize("max_buffer", [0, 1, 5])
    def test_max_buffer_below_min_observations_rejected(self, max_buffer):
        # An empty buffer has no value for the cold start to read, and
        # one shorter than min_observations could never refit.
        assert max_buffer < SSTDConfig().min_observations
        with pytest.raises(ValueError, match="max_buffer"):
            StreamingSSTD(max_buffer=max_buffer)

    def test_max_buffer_at_min_observations_refits(self):
        config = SSTDConfig(acs=ACSConfig(window=2.0, step=1.0))
        engine = StreamingSSTD(
            config, retrain_every=1, max_buffer=config.min_observations
        )
        for now in range(1, 13):
            attitude = Attitude.AGREE if now < 7 else Attitude.DISAGREE
            engine.push(Report(f"s{now}", "c1", now - 0.5, attitude=attitude))
            engine.tick(float(now))
        assert engine._params[engine._slot_of["c1"]] is not None

    def test_buffer_bounded(self):
        engine = StreamingSSTD(FAST_CONFIG, max_buffer=10)
        engine.push(Report("s1", "c1", 0.5, attitude=Attitude.AGREE))
        for now in range(1, 50):
            engine.tick(float(now))
        times, _ = engine._buffer_of(engine._slot_of["c1"])
        assert len(times) <= 10
