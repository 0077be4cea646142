"""The measuring process: one workload, one mode, one JSON line on stdout.

``run.py`` starts this file in a fresh interpreter with the pinned
environment, once per workload.  Modes:

* ``--mode time``  — timed passes for ``--seconds`` (``gc.freeze()`` after
  the first); every time metric is rebuilt from per-op floors.
* ``--mode trace`` — rounds of (plain pass, boundary-traced pass, pass
  with ``repro.obs`` on) for ``--seconds``; per-layer numbers come from
  the traced pass with the shortest root span.
* ``--mode probe`` — one pass on the fixed probe input and exit; the
  parent times the whole process to get ``setup_s``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO)]

import numpy  # noqa: E402
from repro.hmm.kernels import active_kernel_info  # noqa: E402

from benchmarks.e2e import layers, timing  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    WORKLOADS,
    PassResult,
    Shape,
    Workload,
    accuracy,
    check_estimates,
    claim_spans,
    make_trace,
)

OUT = HERE / "out"
#: End-to-end metrics this process measures; the parent adds ``setup_s``.
END_TO_END = {"wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


class PassRunner:
    """Runs passes of one workload on one input and judges their outputs."""

    def __init__(self, workload: Workload, shape: Shape, seed: int) -> None:
        self.workload = workload
        self.shape = shape
        start = time.perf_counter()
        self.trace = make_trace(shape, seed)
        self.generate_s = time.perf_counter() - start
        self.claim_spans = claim_spans(self.trace)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(
        self, obs: bool = False, trace: layers.LayerTrace | None = None
    ) -> PassResult | None:
        """One pass; ``None`` (all its ops failed) if it raised or is wrong.

        With ``trace`` the pass alone runs under the root span, so the
        output checks below never count as the program's time.

        An op fails when the pass raises (a worker task error surfaces as
        a raise from ``run_intervals``), when the estimates are not one
        valid estimate per (claim, grid point), or when they differ from
        the first pass on this same input in this same process.
        """
        self.attempted += self.shape.ops
        try:
            root = trace.begin(layers.ROOT) if trace is not None else None
            try:
                result = self.workload.run_pass(self.trace, self.shape, obs)
            finally:
                if trace is not None:
                    trace.end(root)
            problem = check_estimates(self.claim_spans, result.estimates)
        except Exception as error:  # boundary: a failed op is data
            result = None
            problem = f"{type(error).__name__}: {error}"
        if not problem:
            estimates = list(result.estimates)
            if self.reference is None:
                self.reference = estimates
            elif estimates != self.reference:
                problem = "estimates differ from the first pass"
        if problem:
            self.failed += self.shape.ops
            self.failures.append(problem)
            return None
        return result

    def accuracy(self) -> float:
        if self.reference is None:
            return math.nan
        return accuracy(self.trace, self.reference)


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _keep_going(
    runner: PassRunner, smoke: bool, start: float, seconds: float, rounds: int
) -> bool:
    """Another pass/round only if none failed and half of it still fits."""
    if smoke or runner.failed:
        return False
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / max(1, rounds) / 2 <= seconds


def measure_time(runner: PassRunner, seconds: float, smoke: bool) -> dict:
    """Timed passes for ``seconds``; every time metric from per-op floors.

    The first pass doubles as the warm-up: its cold ops are never an op's
    minimum, so the floors ignore them by construction, and the heap it
    leaves behind (the input above all) is frozen out of later GC scans.
    """
    walls: list[float] = []
    ops: list[list[float]] = []
    start = time.perf_counter()
    while True:
        result = runner.run()
        if result is not None:
            walls.append(result.wall)
            ops.append(list(result.ops))
        if len(walls) == 1:
            gc.collect()
            gc.freeze()
        if not _keep_going(runner, smoke, start, seconds, len(walls)):
            break
    if not walls:
        return {"values": {}, "passes": 0}
    times = timing.time_metrics(walls, ops)
    values = {**times._asdict(), "peak_rss_mb": _rss_mb(resource.RUSAGE_SELF)}
    return {"values": values, "passes": len(walls)}


def measure_layers(runner: PassRunner, seconds: float, smoke: bool) -> dict:
    """Rounds of (plain, boundary-traced, ``repro.obs``-on) passes.

    Per-layer numbers come from the traced pass with the shortest root
    span; the overhead ratios compare the floors of the three kinds.
    """
    runner.run()
    gc.collect()
    gc.freeze()
    plain: list[float] = []
    plain_ops: list[list[float]] = []
    obs_on: list[float] = []
    best: layers.LayerTrace | None = None
    start = time.perf_counter()
    while True:
        result = runner.run()
        if result is not None:
            plain.append(result.wall)
            plain_ops.append(list(result.ops))
        with layers.LayerTrace() as trace:
            result = runner.run(trace=trace)
        if result is not None and (
            best is None or trace.spans[0].duration < best.spans[0].duration
        ):
            best = trace
        result = runner.run(obs=True)
        if result is not None:
            obs_on.append(result.wall)
        if not _keep_going(runner, smoke, start, seconds, len(plain)):
            break
    if best is None or not plain or not obs_on:
        return {"values": {}, "passes": len(plain)}
    root_s = best.spans[0].duration
    values = layers.layer_metrics(best)
    values.update(
        {
            "streams.generate_s": runner.generate_s,
            "streams.reports": len(runner.trace.reports),
            "streams.claims": len(runner.trace.claims),
            "workqueue.worker_peak_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
            "trace.overhead_ratio": root_s / min(plain) - 1.0,
            "obs.on_overhead_ratio": min(obs_on) / min(plain) - 1.0,
            "run.reports_per_s": len(runner.trace.reports) / min(plain),
            "run.estimates_per_s": len(runner.reference) / min(plain),
            "run.op_tail_s": timing.time_metrics(plain, plain_ops).op_tail_s,
            "run.accuracy": runner.accuracy(),
            "run.op_fail_ratio": runner.failed / runner.attempted,
        }
    )
    own = timing.self_by_name(best.spans)
    OUT.mkdir(exist_ok=True)
    suffix = "_smoke" if smoke else ""
    (OUT / f"trace_{runner.workload.name}{suffix}.json").write_text(
        json.dumps(
            {
                "workload": runner.workload.name,
                "root_s": root_s,
                "self_sum_s": sum(own.values()),
                "self_s": own,
                "inclusive_s": timing.inclusive_by_name(best.spans),
                "spans": best.spans,
            }
        ),
        encoding="utf-8",
    )
    return {"values": values, "passes": len(plain)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", required=True, choices=("time", "trace", "probe"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    if args.mode == "probe":
        runner = PassRunner(workload, workload.probe_shape, seed=0)
        return 0 if runner.run() is not None else 1

    shape = workload.smoke_shape if args.smoke else workload.shape
    runner = PassRunner(workload, shape, args.seed)
    measure = measure_time if args.mode == "time" else measure_layers
    outcome = measure(runner, args.seconds, args.smoke)
    truth_match = runner.accuracy()
    units = END_TO_END if args.mode == "time" else layers.PER_LAYER
    values = outcome["values"]
    correct = bool(values) and runner.failed == 0 and not math.isnan(truth_match)
    for failure in runner.failures:
        print(f"{workload.name}: FAILED PASS: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in (units.items() if values else ())
                },
                "passes": outcome["passes"],
                "accuracy": truth_match,
                "reports": len(runner.trace.reports),
                "shape": dataclasses.asdict(shape),
                "loop": workload.loop,
                "numpy": numpy.__version__,
                "kernel": active_kernel_info(),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
