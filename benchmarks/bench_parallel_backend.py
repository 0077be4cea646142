"""Process backend — real batch-TD throughput on real cores.

The paper's scalability claim (Section IV, Figure 7) rests on fanning
per-claim Truth Discovery jobs out over Work Queue workers.  This
benchmark measures what the process backend
(:class:`repro.workqueue.process.ProcessWorkQueue`) delivers on actual
hardware: batch TD throughput (reports/second) at 1, 2 and 4 workers on
a generated trace.

Results land in two places:

- ``BENCH_parallel.json`` at the repo root — machine-readable, consumed
  by the CI ``perf-smoke`` gate (``benchmarks/check_perf_smoke.py``);
- ``benchmarks/results/parallel_backend.txt`` — the human-readable table.

The run also compares the two dispatch modes at max workers:
``per_claim`` (``claims_per_shard=1``, one Work Queue task per claim)
against ``sharded`` (auto shard sizing, many claims per task sharing one
batched HMM kernel call).  The ``dispatch_comparison`` JSON section
carries both, and the perf-smoke gate checks them when the committed
baseline has them.

Every task ships claim ids + row offsets + a handle onto one published
claim stack (``repro.system.shm``): the ``payload_bytes`` section
records the bytes pickled per task and per result, and the perf-smoke
gate holds ``zero_copy_per_task`` to a hard byte ceiling on every CI
leg, single- or multi-core — reports leaking back into a task pickle
would blow through it.

The ``kernel`` key is constant provenance: there is one HMM kernel
implementation, ``{"backend": "numpy"}``.  Schema 6 carries the process
backend only.

Knobs: ``REPRO_BENCH_SCALE`` scales report volume (CI smoke uses 0.01),
``REPRO_BENCH_SEED`` the generator seed.  The workload shape is fixed —
32 claims over six hours (≈360 ACS grid points per claim) — so per-claim
EM cost stays constant while scale moves the ACS accumulation cost.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.hmm.kernels import active_kernel_info
from repro.obs import write_chrome_trace
from repro.streams.events import PopulationConfig, ScenarioSpec
from repro.streams.generator import GeneratorConfig, generate_trace
from repro.system.sstd_system import DistributedSSTD, SSTDSystemConfig

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, report_lines

WORKER_COUNTS = (1, 2, 4)
N_CLAIMS = 32
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"
BENCH_TRACE = (
    Path(__file__).resolve().parent.parent / "BENCH_parallel_trace.json"
)


def _effective_cpu_count() -> int:
    """Cores this process may actually run on (cgroup/affinity aware).

    ``os.cpu_count()`` reports the machine; CI containers often pin the
    process to fewer cores, and scaling assertions must gate on what is
    really available.
    """
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _bench_trace():
    """A TD workload with enough per-claim grain to occupy 4 workers."""
    spec = ScenarioSpec(
        name="Parallel Backend Bench",
        duration=6 * 3600.0,
        n_reports=max(400, int(400_000 * BENCH_SCALE)),
        n_claims=N_CLAIMS,
        claim_texts=("the road is closed", "the station is open"),
        topic="bench",
        mean_truth_flips=1.0,
        claim_zipf_exponent=0.5,
        population=PopulationConfig(
            n_sources=max(50, int(20_000 * BENCH_SCALE))
        ),
    )
    return generate_trace(
        spec, seed=BENCH_SEED, config=GeneratorConfig(with_text=False)
    )


def _measure(reports, workers: int, claims_per_shard: int | None = None) -> dict:
    config = SSTDSystemConfig(
        n_workers=workers,
        backend="processes",
        control_enabled=False,
        claims_per_shard=claims_per_shard,
    )
    start = time.perf_counter()
    outcome = DistributedSSTD(config).run_batch(reports)
    wall = time.perf_counter() - start
    return {
        "makespan_s": outcome.makespan,
        "wall_s": wall,
        "throughput_rps": len(reports) / outcome.makespan,
        "n_jobs": outcome.n_jobs,
        "n_tasks": outcome.n_tasks,
        "payload_bytes_per_task": outcome.payload_bytes_per_task,
        "result_bytes_per_task": outcome.result_bytes_per_task,
        "estimates": outcome.estimates,
    }


def _batch_fit_stats(events) -> dict:
    """Shard-level ``sstd.batch_fit`` span stats of a traced run.

    Workers record the spans and ship them back with each result; the
    master stitches them onto its own timeline, so each shard's
    batched-kernel span is visible here.
    """
    spans = [
        e for e in events if e.name == "sstd.batch_fit" and e.kind == "span"
    ]
    if not spans:
        return {}
    durations = [e.duration for e in spans]
    attrs = [e.attr_dict() for e in spans]
    return {
        "span_count": len(spans),
        "total_s": round(sum(durations), 4),
        "mean_s": round(sum(durations) / len(durations), 4),
        "claims_total": sum(a.get("n_claims", 0) for a in attrs),
        "observations_total": sum(a.get("n_observations", 0) for a in attrs),
        "max_iterations": max(a.get("iterations", 0) for a in attrs),
    }


def _traced_run(reports, workers: int) -> tuple[dict, dict]:
    """One extra *traced* run, outside the timing loop.

    The throughput table above measures the disabled-path overhead (the
    perf-smoke gate compares it against the committed baseline); this run
    turns observability on to break the makespan into per-phase span
    timings and per-shard kernel spans, and to export the Chrome trace
    CI uploads as an artifact.  Returns ``(phases, batch_fit_spans)``.
    """
    system = DistributedSSTD(
        SSTDSystemConfig(
            n_workers=workers,
            backend="processes",
            control_enabled=False,
            observability=True,
        )
    )
    outcome = system.run_batch(reports)
    events = system.obs.tracer.events()
    task_durations = [
        e.duration for e in events if e.name == "wq.task" and e.kind == "span"
    ]
    phases: dict[str, float] = {"makespan_s": round(outcome.makespan, 4)}
    for name in ("system.submit", "system.run_batch"):
        spans = [e for e in events if e.name == name and e.kind == "span"]
        if spans:
            phases[name + "_s"] = round(sum(e.duration for e in spans), 4)
    if task_durations:
        phases["wq.task_total_s"] = round(sum(task_durations), 4)
        phases["wq.task_mean_s"] = round(
            sum(task_durations) / len(task_durations), 4
        )
        phases["wq.task_count"] = len(task_durations)
    write_chrome_trace(
        events,
        BENCH_TRACE,
        metrics=system.obs.metrics.snapshot(),
        clock_kind=system.obs.clock.kind,
    )
    return phases, _batch_fit_stats(events)


def _rounded(stats: dict) -> dict:
    return {
        key: round(value, 4) if isinstance(value, float) else value
        for key, value in stats.items()
    }


def test_parallel_backend_throughput():
    trace = _bench_trace()
    reports = list(trace.reports)

    table: dict[int, dict] = {}
    estimates = None
    for workers in WORKER_COUNTS:
        measured = _measure(reports, workers)
        found = measured.pop("estimates")
        # Worker count never changes an estimate.
        assert estimates is None or found == estimates
        estimates = found
        table[workers] = measured

    # Dispatch-mode comparison at max workers: the table above already
    # runs the default (auto-sharded) mode, so one extra run covers one
    # task per claim.
    max_workers = WORKER_COUNTS[-1]
    per_claim = _measure(reports, max_workers, claims_per_shard=1)
    assert per_claim.pop("estimates") == estimates
    sharded = table[max_workers]
    dispatch_speedup = (
        sharded["throughput_rps"] / per_claim["throughput_rps"]
    )
    dispatch = {
        "backend": "processes",
        "workers": max_workers,
        "per_claim": _rounded(per_claim),
        "sharded": _rounded(sharded),
        "sharded_over_per_claim_speedup": round(dispatch_speedup, 4),
    }

    zero_copy_bytes = sharded["payload_bytes_per_task"]
    payload_bytes = {
        "zero_copy_per_task": round(zero_copy_bytes, 1),
        "zero_copy_result_per_task": round(
            sharded["result_bytes_per_task"], 1
        ),
    }

    effective_cpus = _effective_cpu_count()
    phases, batch_fit = _traced_run(reports, max_workers)
    payload = {
        "schema": 6,
        "benchmark": "parallel_backend",
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "cpu_count": os.cpu_count(),
        "effective_cpu_count": effective_cpus,
        "kernel": active_kernel_info(),
        "n_reports": len(reports),
        "n_claims": N_CLAIMS,
        "worker_counts": list(WORKER_COUNTS),
        "backends": {
            "processes": {
                str(workers): _rounded(stats)
                for workers, stats in table.items()
            }
        },
        "dispatch_comparison": dispatch,
        "payload_bytes": payload_bytes,
        "batch_fit_spans": batch_fit,
        "phases": phases,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    lines = [
        "Process backend — batch TD throughput (reports/s)",
        f"{len(reports):,} reports, {N_CLAIMS} claims, scale={BENCH_SCALE}, "
        f"cpus={os.cpu_count()} (effective {effective_cpus})",
        f"{'backend':>12}" + "".join(f"{w:>10}w" for w in WORKER_COUNTS),
        f"{'processes':>12}"
        + "".join(f"{table[w]['throughput_rps']:>10.1f} " for w in WORKER_COUNTS),
        f"dispatch at {max_workers} workers: per-claim "
        f"{per_claim['throughput_rps']:.1f} rps ({per_claim['n_tasks']} "
        f"tasks) vs sharded {sharded['throughput_rps']:.1f} rps "
        f"({sharded['n_tasks']} tasks) = {dispatch_speedup:.2f}x",
        f"payload per task: {zero_copy_bytes:.0f} B out, "
        f"{sharded['result_bytes_per_task']:.0f} B back",
    ]
    report_lines("parallel_backend", lines)

    # Sanity: every configuration decoded the full claim set, and the
    # sharded default used strictly fewer tasks than claims.
    for workers in WORKER_COUNTS:
        assert table[workers]["n_jobs"] == N_CLAIMS
    assert per_claim["n_tasks"] == N_CLAIMS
    assert sharded["n_tasks"] < N_CLAIMS

    # Sharding exists to amortize dispatch overhead; it must never lose
    # to per-claim dispatch, and the sharded backend must not fall below
    # its own single-worker throughput.
    assert dispatch_speedup >= 0.95, (
        f"sharded dispatch {dispatch_speedup:.2f}x vs per-claim at "
        f"{max_workers} workers"
    )
    assert (
        table[max_workers]["throughput_rps"]
        >= 0.9 * table[1]["throughput_rps"]
    ), "sharded process backend slower at max workers than at 1 worker"
