"""Backend selection: simulated and processes produce identical TD."""

import dataclasses

import numpy as np
import pytest

from repro.core.sstd import SSTD, batch_fit_decode
from repro.streams.events import PopulationConfig, ScenarioSpec
from repro.streams.generator import GeneratorConfig, generate_trace
from repro.streams.trace import Trace
from repro.system.jobs import (
    build_claim_stack,
    claim_sequences,
    expand_shard_result,
    shm_shard_task_spec,
)
from repro.system.sstd_system import (
    BACKENDS,
    STREAMING_RETRAIN_EVERY,
    DistributedSSTD,
    SSTDSystemConfig,
)
from tests.streaming_replay import serial_stream_replay


@pytest.fixture(scope="module")
def small_trace():
    spec = ScenarioSpec(
        name="backend-test",
        duration=3600.0,
        n_reports=400,
        n_claims=6,
        claim_texts=("the bridge is closed",),
        topic="test",
        mean_truth_flips=1.0,
        population=PopulationConfig(n_sources=60),
    )
    return generate_trace(spec, seed=3, config=GeneratorConfig(with_text=False))


@pytest.fixture(scope="module")
def serial_estimates(small_trace):
    estimates = SSTD().discover(list(small_trace.reports))
    return sorted(estimates, key=lambda e: (e.claim_id, e.timestamp))


class TestConfigValidation:
    def test_backends_constant(self):
        assert BACKENDS == ("simulated", "processes")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SSTDSystemConfig(backend="mapreduce")

    def test_thread_backend_is_gone(self):
        retired = "threads"
        with pytest.raises(ValueError, match="backend"):
            SSTDSystemConfig(backend=retired)

    def test_drain_timeout_validated(self):
        with pytest.raises(ValueError, match="drain_timeout"):
            SSTDSystemConfig(drain_timeout=0.0)


class TestBatchParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_estimates_match_serial_engine(
        self, backend, small_trace, serial_estimates
    ):
        config = SSTDSystemConfig(
            n_workers=2, backend=backend, control_enabled=False
        )
        outcome = DistributedSSTD(config).run_batch(list(small_trace.reports))
        assert list(outcome.estimates) == serial_estimates
        assert outcome.n_jobs == 6
        assert outcome.makespan > 0

    def test_real_backend_accounting(self, small_trace):
        config = SSTDSystemConfig(
            n_workers=2, backend="processes", claims_per_shard=2
        )
        outcome = DistributedSSTD(config).run_batch(list(small_trace.reports))
        # 6 claims in shards of 2 -> 3 tasks covering all 6 jobs.
        assert outcome.n_jobs == 6
        assert outcome.n_tasks == 3
        assert outcome.worker_count == 2
        assert outcome.peak_worker_count == 2
        assert outcome.total_busy_time > 0

    def test_one_task_per_claim_when_shard_is_one(self, small_trace):
        config = SSTDSystemConfig(
            n_workers=2, backend="processes", claims_per_shard=1
        )
        outcome = DistributedSSTD(config).run_batch(list(small_trace.reports))
        assert outcome.n_tasks == outcome.n_jobs == 6


class TestIntervalsReal:
    def test_processes_interval_replay(self, small_trace):
        config = SSTDSystemConfig(
            n_workers=2, backend="processes", deadline=30.0
        )
        result = DistributedSSTD(config).run_intervals(
            small_trace, n_intervals=4, compute_estimates=True
        )
        assert len(result.tracker.records) == 4
        assert 0.0 <= result.hit_rate <= 1.0
        assert result.final_worker_count == 2
        # One tick per grid point: each claim's point is emitted once.
        seen = [(e.claim_id, e.timestamp) for e in result.estimates]
        assert len(seen) == len(set(seen))
        assert result.estimates

    def test_one_round_per_scheduled_tick_with_a_due_claim(
        self, small_trace, monkeypatch
    ):
        rounds: list[tuple[float, list[str]]] = []
        original = DistributedSSTD._decode_shards

        def spy(self, executor, items, *rest):
            rounds.append((items[0][1][-1], [c for c, _, _ in items]))
            return original(self, executor, items, *rest)

        monkeypatch.setattr(DistributedSSTD, "_decode_shards", spy)
        config = SSTDSystemConfig(
            n_workers=2, backend="processes", control_enabled=False
        )
        DistributedSSTD(config).run_intervals(small_trace, n_intervals=4)

        serial: list[tuple[float, list[str]]] = []

        def refit(items, sstd_config):
            serial.append((items[0][1][-1], [c for c, _, _ in items]))
            return batch_fit_decode(items, sstd_config)

        trace = small_trace
        serial_stream_replay(trace.reports, trace.start, trace.end, refit=refit)
        grid = config.sstd.acs.grid(trace.start, trace.end)
        every = STREAMING_RETRAIN_EVERY
        scheduled = grid[every - 1 :: every]
        times = [now for now, _ in rounds]
        assert len(rounds) > 1
        assert len(set(times)) == len(times)
        assert set(times) <= set(scheduled.tolist())
        assert rounds == serial

    def test_execution_times_positive(self, small_trace):
        config = SSTDSystemConfig(
            n_workers=1, backend="processes", deadline=30.0
        )
        result = DistributedSSTD(config).run_intervals(small_trace, n_intervals=3)
        assert all(t >= 0 for t in result.execution_times)


class TestIntervalBounds:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_epoch_scale_trace_replays_its_last_report(
        self, backend, small_trace
    ):
        # At Unix-epoch magnitudes ``trace.end + 1e-9 == trace.end``; the
        # half-open last interval must still take in the final report.
        shifted = [
            dataclasses.replace(report, timestamp=report.timestamp + 1.7e9)
            for report in small_trace.reports
        ]
        shifted[-1] = dataclasses.replace(shifted[-1], claim_id="late-claim")
        trace = Trace(name="epoch", reports=shifted)
        assert trace.end + 1e-9 == trace.end
        config = SSTDSystemConfig(
            n_workers=2, backend=backend, deadline=30.0, control_enabled=False
        )
        result = DistributedSSTD(config).run_intervals(
            trace, n_intervals=4, compute_estimates=True
        )
        dispatched = sum(r.n_reports for r in result.tracker.records)
        assert dispatched == len(trace.reports)
        late = [e for e in result.estimates if e.claim_id == "late-claim"]
        assert late and late[-1].timestamp > trace.end - config.sstd.acs.step


class TestJobSpecs:
    def decode(self, small_trace, claim_id):
        engine = SSTD()
        grouped = engine.group_reports(list(small_trace.reports))
        stack = build_claim_stack(
            claim_sequences([(claim_id, grouped[claim_id])], engine.config)
        )
        owner = stack.publish()
        try:
            spec = shm_shard_task_spec(
                stack, [claim_id], owner.handle, engine.config
            )
            return stack, spec, spec()
        finally:
            owner.close_and_unlink()

    def test_decode_payload_matches_engine(self, small_trace, serial_estimates):
        claim_id = min(e.claim_id for e in serial_estimates)
        stack, _spec, output = self.decode(small_trace, claim_id)
        (decoded,) = expand_shard_result(stack, [claim_id], *output)
        expected = [e for e in serial_estimates if e.claim_id == claim_id]
        assert list(decoded.estimates) == expected

    def test_decode_task_spec_is_picklable(self, small_trace, monkeypatch):
        import pickle

        # Inline bytes: the clone must not need the released segment.
        monkeypatch.setenv("REPRO_SHM", "0")
        claim_id = min(r.claim_id for r in small_trace.reports)
        _stack, spec, output = self.decode(small_trace, claim_id)
        clone = pickle.loads(pickle.dumps(spec))()
        assert len(clone) == len(output) == 5
        for cloned, original in zip(clone, output):
            np.testing.assert_array_equal(cloned, original)
