"""The stacked streaming tick against the per-claim engine it replaced.

``StreamingSSTD.tick`` reads every claim's ACS from one window stack,
refits every due claim in one batched call and advances every modelled
claim's filter in one ``(N, K)`` step.  The reference below is the
per-claim engine written out in full — each window computed from its
definition (the reports with ``now - window < t <= now``, their Eq. (1)
scores summed one at a time in push order), an N = 1
:meth:`ClaimTruthModel.fit_decode` per due claim, then the fitted
parameters in the scalar reference HMM (``tests/hmm/scalar_reference.py``)
for the forward pass that re-seeds the filter and for every filter step
— sharing nothing with the production tick but the public fit entry
point, and every estimate must come out equal, ``confidence`` included.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.sstd as sstd_module
from repro.core.acs import ACSConfig
from repro.core.sstd import (
    RETRAIN_MAX_ITER,
    ClaimTruthModel,
    SkippedRefit,
    SSTDConfig,
    StreamingSSTD,
)
from repro.core.types import Attitude, Report, TruthEstimate, TruthValue
from repro.hmm.batch import BatchGaussianHMM
from repro.obs import Observability, using
from tests.core.test_acs import brute_force_acs
from tests.hmm.scalar_reference import ScalarGaussianHMM, normalize

#: Window == step: a tick's ACS value is exactly the one report (if any)
#: pushed since the previous tick, so a test dictates the sequence.
CONFIG = SSTDConfig(acs=ACSConfig(window=1.0, step=1.0), min_observations=3)


def report_for(claim_id: str, tick: int, value: float) -> Report:
    """The report that makes ``claim_id``'s ACS at ``tick`` equal ``value``."""
    return Report(
        "s",
        claim_id,
        tick - 0.5,
        attitude=Attitude.AGREE if value > 0 else Attitude.DISAGREE,
        independence=abs(value),
    )


def run_ticks(engine, streams: dict[str, list[float | None]]):
    """Feed ``streams`` (per-claim value per tick, None = no report).

    A claim joins the engine at its first report.  Returns the estimate
    list of every tick.
    """
    n_ticks = max(len(values) for values in streams.values())
    ticks = []
    for tick in range(1, n_ticks + 1):
        for claim_id, values in streams.items():
            if tick <= len(values) and values[tick - 1] is not None:
                engine.push(report_for(claim_id, tick, values[tick - 1]))
        ticks.append(engine.tick(float(tick)))
    return ticks


def scalar_filter_step(hmm, alpha: np.ndarray, value: float) -> np.ndarray:
    return normalize((alpha @ hmm.transmat) * hmm.emissions([value])[0])


def scalar_forward_last(hmm, values: list[float]) -> np.ndarray:
    alpha, _, _ = hmm.forward(hmm.emissions(values))
    return alpha[-1]


class PerClaimReference:
    """One claim at a time: windows from their definition, N = 1 refits,
    scalar re-seed, scalar filter."""

    def __init__(self, config, retrain_every, max_buffer):
        self.config = dataclasses.replace(
            config, em_max_iter=min(config.em_max_iter, RETRAIN_MAX_ITER)
        )
        self.retrain_every = retrain_every
        self.max_buffer = max_buffer
        #: Every report of a claim, in push order.
        self.pushed: dict[str, list[Report]] = {}
        self.times: dict[str, list[float]] = {}
        self.values: dict[str, list[float]] = {}
        #: One tick count for the engine, not one per claim.
        self.ticks = 0
        #: Claims that got a report since their last refit.
        self.fresh: set[str] = set()
        self.models: dict[str, ClaimTruthModel] = {}
        #: The last successful refit's parameters in the scalar reference.
        self.hmms: dict[str, ScalarGaussianHMM] = {}
        self.alphas: dict[str, np.ndarray] = {}
        self.latest: dict[str, TruthEstimate] = {}

    def push(self, report: Report) -> None:
        if report.claim_id not in self.pushed:
            self.pushed[report.claim_id] = []
            self.times[report.claim_id] = []
            self.values[report.claim_id] = []
            self.models[report.claim_id] = ClaimTruthModel(
                report.claim_id, self.config
            )
        self.pushed[report.claim_id].append(report)
        self.fresh.add(report.claim_id)

    def tick(self, now: float) -> list[TruthEstimate]:
        self.ticks += 1
        return [self._tick_claim(c, now) for c in sorted(self.pushed)]

    def _tick_claim(self, claim_id: str, now: float) -> TruthEstimate:
        value = brute_force_acs(self.pushed[claim_id], now, self.config.acs)
        times, values = self.times[claim_id], self.values[claim_id]
        times.append(now)
        values.append(value)
        if len(times) > self.max_buffer:
            drop = max(1, self.max_buffer // 5)
            del times[:drop]
            del values[:drop]
        model = self.models[claim_id]
        informative = sum(1 for v in values if not math.isnan(v))
        if (
            claim_id in self.fresh
            and self.ticks % self.retrain_every == 0
            and informative >= self.config.min_observations
        ):
            self.fresh.discard(claim_id)
            result = model.fit_decode(np.asarray(times), np.asarray(values))
            estimate = result.estimates[-1]
            if result.params is not None:
                hmm = ScalarGaussianHMM(
                    2, **dataclasses.asdict(result.params)
                )
                self.hmms[claim_id] = hmm
                self.alphas[claim_id] = scalar_forward_last(hmm, values)
        elif claim_id in self.hmms:
            hmm = self.hmms[claim_id]
            alpha = scalar_filter_step(hmm, self.alphas[claim_id], value)
            self.alphas[claim_id] = alpha
            mean = hmm.means[int(np.argmax(alpha))]
            estimate = TruthEstimate(
                claim_id, now, TruthValue.TRUE if mean > 0 else TruthValue.FALSE
            )
        else:
            previous = self.latest.get(claim_id)
            if not math.isnan(value):
                truth = TruthValue.TRUE if value > 0 else TruthValue.FALSE
            else:
                truth = previous.value if previous else TruthValue.FALSE
            estimate = TruthEstimate(claim_id, now, truth)
        self.latest[claim_id] = estimate
        return estimate


VARIED = [-0.9, 0.5, -0.3, 0.8, -0.6]
ACS_VALUES = st.sampled_from([None, None, -0.9, -0.6, -0.3, 0.2, 0.5, 0.8])
CLAIM_STREAM = st.builds(
    lambda join, first, rest: [None] * join + [first] + rest,
    st.integers(0, 8),
    ACS_VALUES.filter(lambda value: value is not None),
    st.lists(ACS_VALUES, min_size=8, max_size=40),
)


#: Wider than ``CONFIG``'s window, so a report pushed a few ticks late
#: still counts; ticks are off any step grid.
WIDE = SSTDConfig(
    acs=ACSConfig(window=2.5, step=1.0), min_observations=3, em_max_iter=4
)
#: Per tick, ``(advance, pushes)``: the tick comes ``advance`` after the
#: previous one (the first after 10.0), and each push is ``(claim,
#: offset of its timestamp from the tick, ACS value of the report)``.
SCHEDULE = st.lists(
    st.tuples(
        st.floats(min_value=0.2, max_value=3.0),
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(min_value=-5.0, max_value=2.0),
                st.sampled_from([-0.9, -0.4, 0.3, 0.7, 1.0]),
            ),
            max_size=4,
        ),
    ),
    min_size=1,
    max_size=30,
)


#: "c1" joins on tick 10 of 20: when the 14-row buffer store of
#: ``max_buffer=7`` fills on tick 15, the claims' buffers start on
#: different rows.
LATE_JOIN = [
    (1.0, [(0, -0.5, VARIED[k % 5])] + [(1, -0.5, VARIED[k % 3])] * (k >= 9))
    for k in range(20)
]


def run_schedule(engine, schedule):
    """Feed ``schedule`` (see :data:`SCHEDULE`); returns every tick's
    estimates."""
    now = 10.0
    ticks = []
    for advance, pushes in schedule:
        now += advance
        for claim, offset, value in pushes:
            attitude = Attitude.AGREE if value > 0 else Attitude.DISAGREE
            engine.push(
                Report(
                    "s",
                    f"c{claim}",
                    now + offset,
                    attitude=attitude,
                    independence=abs(value),
                )
            )
        ticks.append(engine.tick(now))
    return ticks


class TestDifferential:
    # On ticks 15 and 20 the first claim's trimmed buffer is constant:
    # its refit takes the sign fallback inside a batch whose other row
    # fits, and its earlier model keeps filtering afterwards.
    @example(
        streams=[VARIED + [0.5] * 17, VARIED * 4],
        retrain_every=5,
        max_buffer=6,
    )
    @settings(max_examples=20, deadline=None)
    @given(
        streams=st.lists(CLAIM_STREAM, min_size=1, max_size=3),
        retrain_every=st.sampled_from([1, 5, 20]),
        max_buffer=st.sampled_from([6, 15, 360]),
    )
    def test_tick_equals_per_claim_engine(
        self, streams, retrain_every, max_buffer
    ):
        # Reverse the ids so arrival order differs from sorted order.
        named = {f"c{len(streams) - k}": s for k, s in enumerate(streams)}
        # A 4-iteration EM budget keeps the example count affordable.
        config = dataclasses.replace(CONFIG, em_max_iter=4)
        engine = StreamingSSTD(config, retrain_every, max_buffer)
        reference = PerClaimReference(config, retrain_every, max_buffer)
        assert run_ticks(engine, named) == run_ticks(reference, named)
        assert_same_state(engine, reference)

    # Ticks at 11.0, 12.0, 13.37, ...: on 12.0 a report at 10.0 arrives
    # after the tick at 11.0 (late, inside (9.5, 12]) with one at 9.4
    # (at or before the cutoff, never counted); before 13.37 one for
    # 14.5 arrives (after the tick, counted from 14.5 on).
    @example(
        schedule=[
            (1.0, [(0, -0.5, 0.7), (1, -0.2, -0.4)]),
            (1.0, [(0, -2.0, -0.9), (0, -2.6, 1.0), (1, -0.1, 0.3)]),
            (1.37, [(1, 1.13, 1.0), (0, -0.3, 0.3)]),
            (0.5, [(0, -0.1, -0.4)]),
            (2.9, [(0, -1.0, 0.7), (1, -0.5, -0.9)]),
            (0.25, [(0, 0.0, -0.9), (1, -0.2, 0.7)]),
            (1.0, [(0, -0.5, 1.0)]),
        ],
        retrain_every=3,
        max_buffer=360,
    )
    # "c2" joins on the fifth tick, "c0" goes silent after the third, and
    # a buffer of 4 trims every claim.
    @example(
        schedule=[
            (1.0, [(0, -0.5, 0.7), (1, -0.5, -0.4)]),
            (1.0, [(0, -0.5, -0.9), (1, -0.5, 0.3)]),
            (1.0, [(0, -0.5, 1.0), (1, -0.5, -0.9)]),
            (1.0, [(1, -0.5, 0.7)]),
            (1.0, [(2, -0.5, -0.4), (1, -0.5, 0.3)]),
            (1.0, [(2, -0.5, 0.7), (1, -0.5, -0.9)]),
            (1.0, [(2, -0.5, -0.9)]),
            (1.0, [(2, -0.5, 1.0), (1, -0.5, 0.7)]),
            (1.0, [(2, -0.5, -0.4), (1, -0.5, -0.4)]),
            (1.0, [(2, -0.5, 0.3)]),
        ],
        retrain_every=1,
        max_buffer=4,
    )
    @example(schedule=LATE_JOIN, retrain_every=3, max_buffer=7)
    @settings(max_examples=25, deadline=None)
    @given(
        schedule=SCHEDULE,
        retrain_every=st.sampled_from([1, 3]),
        max_buffer=st.sampled_from([4, 7, 360]),
    )
    def test_any_push_schedule_equals_per_claim_engine(
        self, schedule, retrain_every, max_buffer
    ):
        """Reports stamped anywhere around the tick (late inside the
        window, at or before its cutoff, after the tick), ticks off any
        grid, claims joining late and going silent, buffer trims."""
        engine = StreamingSSTD(WIDE, retrain_every, max_buffer)
        reference = PerClaimReference(WIDE, retrain_every, max_buffer)
        assert run_schedule(engine, schedule) == run_schedule(
            reference, schedule
        )
        assert_same_state(engine, reference)


def assert_same_state(engine, reference):
    """Same latest estimates, and the same buffers bit for bit."""
    assert engine.latest() == reference.latest
    assert engine.claim_ids == sorted(reference.values)
    for claim_id, values in reference.values.items():
        slot = engine._slot_of[claim_id]
        times, buffered = engine._buffer_of(slot)
        assert times.tolist() == reference.times[claim_id]
        np.testing.assert_array_equal(buffered, values)


@pytest.fixture
def fit_rows(monkeypatch):
    """Row count of every ``BatchGaussianHMM.fit`` call made in the test."""
    rows: list[int] = []
    original = BatchGaussianHMM.fit

    def spy(self, observations, *args, **kwargs):
        rows.append(len(observations))
        return original(self, observations, *args, **kwargs)

    monkeypatch.setattr(BatchGaussianHMM, "fit", spy)
    return rows


@pytest.fixture
def fits(monkeypatch):
    """``(tick time, claim ids)`` of every ``batch_fit_decode`` call."""
    calls: list[tuple[float, list[str]]] = []
    original = sstd_module.batch_fit_decode

    def spy(items, config):
        calls.append((items[0][1][-1], [claim_id for claim_id, _, _ in items]))
        return original(items, config)

    monkeypatch.setattr(sstd_module, "batch_fit_decode", spy)
    return calls


class TestOneFitPerTick:
    def test_due_claims_share_one_fit(self, fit_rows):
        streams = {f"c{k}": VARIED[k:] + VARIED[:k] for k in range(4)}
        recorder = Observability()
        with using(recorder):
            engine = StreamingSSTD(CONFIG, retrain_every=5)
            run_ticks(engine, streams)
        assert fit_rows == [4]
        (span,) = [
            event
            for event in recorder.tracer.events()
            if event.name == "sstd.batch_fit"
        ]
        assert dict(span.attrs)["n_claims"] == 4
        snapshot = recorder.metrics.snapshot()
        retrain_rows = snapshot.histogram("sstd.stream.retrain_rows")
        assert (retrain_rows.count, retrain_rows.total) == (1, 4.0)
        assert snapshot.counter("sstd.stream.filter_rows") == 0.0

    def test_filter_rows_counts_modelled_claims(self):
        streams = {"a": VARIED + [0.5, 0.5], "b": VARIED + [-0.3]}
        recorder = Observability()
        with using(recorder):
            run_ticks(StreamingSSTD(CONFIG, retrain_every=5), streams)
        # Ticks 6 and 7 each filter both claims (b's window is empty on 7).
        assert recorder.metrics.snapshot().counter(
            "sstd.stream.filter_rows"
        ) == 4.0

    def test_schedule_counts_engine_ticks(self, fits):
        cycle = VARIED * 4
        # "late" is first seen on tick 4, "early" and "b" on tick 1; on
        # tick 5 "late" holds 2 of the 3 informative values it needs.
        streams = {"early": cycle, "late": [None] * 3 + cycle[:17], "b": cycle}
        run_ticks(StreamingSSTD(CONFIG, retrain_every=5), streams)
        assert fits == [
            (5.0, ["b", "early"]),
            (10.0, ["b", "early", "late"]),
            (15.0, ["b", "early", "late"]),
            (20.0, ["b", "early", "late"]),
        ]

    def test_claims_joining_apart_share_one_fit_per_scheduled_tick(
        self, fits, fit_rows
    ):
        # Claim k is first seen on tick 1 + 2k, five different phases of
        # a 5-tick cadence, and has a new report on every later tick.
        streams = {
            f"c{k}": [None] * (2 * k) + (VARIED * 5)[: 25 - 2 * k]
            for k in range(5)
        }
        run_ticks(StreamingSSTD(CONFIG, retrain_every=5), streams)
        everyone = [f"c{k}" for k in range(5)]
        # A claim rides the first scheduled tick on which it holds
        # min_observations (3) informative values.
        assert fits == [
            (5.0, ["c0", "c1"]),
            (10.0, ["c0", "c1", "c2", "c3"]),
            (15.0, everyone),
            (20.0, everyone),
            (25.0, everyone),
        ]
        assert fit_rows == [2, 4, 5, 5, 5]

    def test_claim_without_new_reports_keeps_its_model(self, fits):
        # "quiet" reports on ticks 1-5 and 12 only.
        streams = {
            "busy": VARIED * 3,
            "quiet": VARIED + [None] * 6 + [0.5] + [None] * 3,
        }
        ticks = run_ticks(StreamingSSTD(CONFIG, retrain_every=5), streams)
        assert fits == [
            (5.0, ["busy", "quiet"]),
            (10.0, ["busy"]),
            (15.0, ["busy", "quiet"]),
        ]
        assert [estimate.timestamp for _, estimate in ticks] == [
            float(tick) for tick in range(1, 16)
        ]


class TestRefitSeam:
    """A refit callable may skip due claims (admission control)."""

    @settings(max_examples=30, deadline=None)
    @given(
        streams=st.lists(CLAIM_STREAM, min_size=1, max_size=3),
        retrain_every=st.sampled_from([1, 3, 5]),
        data=st.data(),
    )
    def test_deferred_claim_filters_from_its_previous_params(
        self, streams, retrain_every, data
    ):
        named = {f"c{k}": s for k, s in enumerate(streams)}
        offered: list[list[str]] = []
        # claim id -> its (params, filter state) when its refit was deferred
        deferred: dict[str, tuple] = {}

        def refit(items, config):
            offered.append([claim_id for claim_id, _, _ in items])
            results = []
            for item in items:
                slot = engine._slot_of[item[0]]
                if data.draw(st.booleans()):
                    deferred[item[0]] = (
                        engine._params[slot],
                        engine._alpha[slot].copy(),
                    )
                    results.append(SkippedRefit.DEFERRED)
                else:
                    (result,) = sstd_module.batch_fit_decode([item], config)
                    results.append(result)
            return results

        engine = StreamingSSTD(CONFIG, retrain_every, refit=refit)
        n_ticks = max(len(values) for values in named.values())
        for tick in range(1, n_ticks + 1):
            for claim_id, values in named.items():
                if tick <= len(values) and values[tick - 1] is not None:
                    engine.push(report_for(claim_id, tick, values[tick - 1]))
            waiting = {
                c for c, slot in engine._slot_of.items()
                if engine._deferred[slot]
            }
            rounds = len(offered)
            deferred.clear()
            latest = {e.claim_id: e for e in engine.tick(float(tick))}
            # Deferred last tick: offered again now (the buffer is never
            # trimmed here, so the claim keeps min_observations).
            if waiting:
                assert len(offered) == rounds + 1
                assert waiting <= set(offered[-1])
            for claim_id, (params, alpha) in deferred.items():
                slot = engine._slot_of[claim_id]
                assert engine._deferred[slot]
                assert engine._params[slot] is params
                if params is None:
                    continue  # no model yet: the sign rule answers
                hmm = ScalarGaussianHMM(2, **dataclasses.asdict(params))
                _, values = engine._buffer_of(slot)
                filtered = scalar_filter_step(hmm, alpha, values[-1])
                mean = hmm.means[int(np.argmax(filtered))]
                assert latest[claim_id] == TruthEstimate(
                    claim_id,
                    float(tick),
                    TruthValue.TRUE if mean > 0 else TruthValue.FALSE,
                )

    def test_deferred_claim_is_due_on_the_next_tick(self):
        streams = {"a": VARIED * 3, "b": VARIED * 3}
        offered: list[tuple[float, list[str]]] = []

        def refit(items, config):
            now = float(items[0][1][-1])
            offered.append((now, [claim_id for claim_id, _, _ in items]))
            return [
                SkippedRefit.DEFERRED if (claim_id, now) == ("a", 5.0)
                else SkippedRefit.SHED if (claim_id, now) == ("b", 5.0)
                else result
                for (claim_id, _, _), result in zip(
                    items, sstd_module.batch_fit_decode(items, config)
                )
            ]

        run_ticks(StreamingSSTD(CONFIG, retrain_every=5, refit=refit), streams)
        # "a" is deferred at 5 and offered at 6; shed "b" waits for 10.
        assert offered == [
            (5.0, ["a", "b"]),
            (6.0, ["a"]),
            (10.0, ["a", "b"]),
            (15.0, ["a", "b"]),
        ]


class TestEdgePaths:
    def test_no_claims(self):
        engine = StreamingSSTD(CONFIG)
        assert engine.tick(1.0) == []
        assert engine.latest() == {}
        assert engine.claim_ids == []

    def test_all_due_claims_degenerate(self, fit_rows):
        streams = {"up": [0.5] * 5, "down": [-0.3] * 5}
        ticks = run_ticks(StreamingSSTD(CONFIG, retrain_every=5), streams)
        assert fit_rows == []
        assert ticks[-1] == [
            TruthEstimate("down", 5.0, TruthValue.FALSE),
            TruthEstimate("up", 5.0, TruthValue.TRUE),
        ]

    def test_sign_fallback_keeps_model_and_filter(self, fit_rows):
        engine = StreamingSSTD(CONFIG, retrain_every=5, max_buffer=5)
        run_ticks(engine, {"c": VARIED + [0.5] * 4})
        slot = engine._slot_of["c"]
        params, alpha = engine._params[slot], engine._alpha[slot].copy()
        assert params is not None
        # Tick 10 is due, and the trimmed buffer is constant by now.
        engine.push(report_for("c", 10, 0.5))
        (estimate,) = engine.tick(10.0)
        assert fit_rows == [1]
        assert estimate == TruthEstimate("c", 10.0, TruthValue.TRUE)
        assert engine._buffer_of(slot)[1].tolist() == [0.5] * 5
        assert engine._params[slot] is params
        assert engine._alpha[slot].tolist() == alpha.tolist()

    @pytest.mark.parametrize("later", [800.0, 1000.0, math.nan])
    def test_tick_must_advance_time(self, later):
        engine = StreamingSSTD(CONFIG)
        engine.push(report_for("c", 1000, 0.5))
        (estimate,) = engine.tick(1000.0)
        with pytest.raises(ValueError, match="does not advance"):
            engine.tick(later)
        # The refused tick left no grid point behind.
        assert engine._buffer_of(engine._slot_of["c"])[0].tolist() == [1000.0]
        assert engine.latest() == {"c": estimate}

    def test_claim_ids_sorted_and_fresh(self):
        engine = StreamingSSTD(CONFIG)
        for claim_id in ("m", "z", "a"):
            engine.push(report_for(claim_id, 1, 0.5))
        ids = engine.claim_ids
        assert ids == ["a", "m", "z"]
        ids.clear()
        assert [e.claim_id for e in engine.tick(1.0)] == ["a", "m", "z"]
