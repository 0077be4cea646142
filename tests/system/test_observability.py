"""Acceptance: one observability schema across all three backends.

The ISSUE's core criterion: ``run_batch`` with tracing enabled yields at
least one ``wq.task`` span per task plus merged worker metrics on every
backend — simulated (virtual clock), threads, and processes (wall
clock) — and a disabled run records nothing.
"""

import pytest

from repro.streams.events import PopulationConfig, ScenarioSpec
from repro.streams.generator import GeneratorConfig, generate_trace
from repro.system.sstd_system import BACKENDS, DistributedSSTD, SSTDSystemConfig

N_CLAIMS = 4


@pytest.fixture(scope="module")
def small_trace():
    spec = ScenarioSpec(
        name="obs-test",
        duration=3600.0,
        n_reports=300,
        n_claims=N_CLAIMS,
        claim_texts=("the bridge is closed",),
        topic="test",
        mean_truth_flips=1.0,
        population=PopulationConfig(n_sources=50),
    )
    return generate_trace(spec, seed=5, config=GeneratorConfig(with_text=False))


def _run(small_trace, backend: str, **overrides) -> DistributedSSTD:
    # One claim per shard keeps "task" == "claim" on every machine, so
    # the span/metric counts below stay exact (auto-sharding adapts to
    # the host's core count and would make them host-dependent).
    overrides.setdefault("claims_per_shard", 1)
    config = SSTDSystemConfig(
        n_workers=2, backend=backend, observability=True, **overrides
    )
    system = DistributedSSTD(config)
    system.run_batch(list(small_trace.reports))
    return system


class TestBatchTracing:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_span_per_task_and_merged_metrics(self, small_trace, backend):
        system = _run(small_trace, backend)
        metrics = system.obs.metrics.snapshot()
        events = system.obs.tracer.events()

        task_spans = [
            e for e in events if e.name == "wq.task" and e.kind == "span"
        ]
        assert len(task_spans) == N_CLAIMS  # one span per dispatched task
        assert all(e.duration >= 0 for e in task_spans)

        # The run itself is bracketed by a system-level span.
        (run_span,) = [e for e in events if e.name == "system.run_batch"]
        assert run_span.attr_dict()["backend"] == backend

        # Engine metrics reach the master registry on every backend; on
        # the process backend they cross the pickle boundary as
        # MetricsSnapshots and are merged, not recorded in-process.
        assert metrics.counter("hmm.fits") == float(N_CLAIMS)
        assert metrics.counter("wq.completed") == float(N_CLAIMS)
        assert metrics.histogram("wq.task_seconds").count == N_CLAIMS

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_real_backends_count_worker_tasks(self, small_trace, backend):
        system = _run(small_trace, backend)
        metrics = system.obs.metrics.snapshot()
        assert metrics.counter("worker.tasks") == float(N_CLAIMS)
        assert metrics.counter("worker.task_errors") == 0.0
        assert metrics.histogram("worker.task_seconds").count == N_CLAIMS

    def test_simulated_backend_uses_virtual_clock(self, small_trace):
        system = _run(small_trace, "simulated")
        assert system.obs.clock.kind == "virtual"
        # Virtual task spans carry the cost model's times, not wall time.
        spans = [e for e in system.obs.tracer.events() if e.name == "wq.task"]
        assert all(e.start >= 0 and e.duration > 0 for e in spans)

    @pytest.mark.parametrize("backend", ("threads", "processes"))
    def test_real_backends_use_wall_clock(self, small_trace, backend):
        system = _run(small_trace, backend)
        assert system.obs.clock.kind == "wall"

    def test_control_loop_records_when_enabled(self, small_trace):
        system = _run(small_trace, "simulated", control_enabled=True)
        metrics = system.obs.metrics.snapshot()
        assert metrics.counter("control.samples") > 0
        assert metrics.histogram("pid.error").count > 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_disabled_run_records_nothing(
        self, small_trace, backend, monkeypatch
    ):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        config = SSTDSystemConfig(n_workers=2, backend=backend)
        system = DistributedSSTD(config)
        system.run_batch(list(small_trace.reports))
        assert not system.obs.enabled
        assert system.obs.tracer.events() == []
        assert system.obs.metrics.snapshot().counters == {}

    def test_enabled_and_disabled_runs_agree_on_estimates(self, small_trace):
        reports = list(small_trace.reports)
        plain = DistributedSSTD(
            SSTDSystemConfig(n_workers=2, backend="simulated")
        ).run_batch(reports)
        traced = DistributedSSTD(
            SSTDSystemConfig(
                n_workers=2, backend="simulated", observability=True
            )
        ).run_batch(reports)
        assert list(plain.estimates) == list(traced.estimates)
        assert plain.makespan == traced.makespan


class TestEnvActivation:
    def test_repro_trace_env_enables_tracing(self, small_trace, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        config = SSTDSystemConfig(n_workers=2, backend="simulated")
        system = DistributedSSTD(config)
        system.run_batch(list(small_trace.reports))
        assert system.obs.enabled
        assert system.obs.metrics.counter("wq.completed") == float(N_CLAIMS)

    def test_explicit_false_beats_env(self, small_trace, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        config = SSTDSystemConfig(
            n_workers=2, backend="simulated", observability=False
        )
        system = DistributedSSTD(config)
        system.run_batch(list(small_trace.reports))
        assert not system.obs.enabled
        assert system.obs.tracer.events() == []

