"""End-to-end benchmark runner (the command ``BENCHMARK.json`` names).

    python3 benchmarks/e2e/run.py --workload stream_ticks --seed 3 --seconds 15 --trace 0
    PYTHONPATH=src python -m benchmarks.e2e.run --seed 1            # all four, timed
    PYTHONPATH=src python -m benchmarks.e2e.run --seed 1 --traced   # all four, per layer

This process never imports the program.  It times ``PROBES`` fresh set-up
probe processes (``setup_s``), then starts one fresh measuring process per
workload (``child.py``) with a pinned environment and sleeps until it
ends, so at most one master and its two workers are ever busy on the two
cores.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  README.md in this directory defines the
metrics and the measurement method.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
CHILD = HERE / "child.py"

WORKLOADS = ("batch_volume", "batch_longgrid", "dist_intervals", "stream_ticks")
PROBES = 8
SMOKE_PROBES = 1
#: One BLAS thread and a fixed hash seed: the same seed replays the same
#: dict/set orders and the kernels never oversubscribe the two cores.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CHILD_TIMEOUT_S = 170.0


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def child_env() -> dict[str, str]:
    """The measured code runs as it stands: tracing unset, kernel untouched."""
    env = {**os.environ, **PINNED_ENV}
    env.pop("REPRO_TRACE", None)
    return env


def _child(workload: str, mode: str, *extra: str) -> tuple[int, str]:
    """Run ``child.py`` to its end; returns (exit code, standard output).

    The child leads its own process group, so a hung run is killed with
    its worker processes and nothing this benchmark started outlives it.
    """
    process = subprocess.Popen(
        [sys.executable, str(CHILD), "--workload", workload, "--mode", mode, *extra],
        env=child_env(),
        cwd=REPO,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RuntimeError(f"{mode} process of {workload} hung; killed") from None
    return process.returncode, stdout


def probe_times(workload: str, count: int) -> list[float]:
    """Wall time of ``count`` fresh set-up probes, one after the other.

    A probe is [spawn interpreter, import ``repro``, build the workload's
    engine/executor, one pass on the fixed 2 000-report input, shut down,
    exit], timed from here.  It excludes generating the workload's input.
    """
    times = []
    for _ in range(count):
        start = time.perf_counter()
        code, _ = _child(workload, "probe")
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe of {workload} failed")
    return times


def git_commit() -> str:
    if not (REPO / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, stdout=subprocess.PIPE, text=True
    )
    return done.stdout.strip() or "unknown"


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """Run one workload in one mode; returns the result-file payload."""
    probes: list[float] = []
    if not trace:
        probes = probe_times(workload, SMOKE_PROBES if smoke else PROBES)
    extra = ["--seed", str(seed), "--seconds", str(seconds)]
    if smoke:
        extra.append("--smoke")
    code, stdout = _child(workload, "trace" if trace else "time", *extra)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"measuring process of {workload} printed no result")
    child = json.loads(lines[-1])
    metrics = child.pop("metrics")
    if probes and metrics:
        metrics = {"setup_s": {"value": min(probes), "unit": "s"}, **metrics}
    return {
        "workload": workload,
        "mode": "trace" if trace else "time",
        "correct": child.pop("correct") and code == 0,
        "attempted": child.pop("attempted"),
        "failed": child.pop("failed"),
        "metrics": metrics,
        "provenance": {
            **child,
            "git_commit": git_commit(),
            "seed": seed,
            "seconds": seconds,
            "smoke": smoke,
            "setup_probe_s": probes,
            "python": platform.python_version(),
            "usable_cores": usable_cores(),
            "pinned_env": PINNED_ENV,
            "repro_kernel_env": os.environ.get("REPRO_KERNEL"),
            "generator_lateness": "not applicable: closed loop",
        },
    }


def report(result: dict) -> None:
    """Print every metric by name with its unit and keep the result file."""
    print(f"== {result['workload']} ({result['mode']}) ==")
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    provenance = result["provenance"]
    print(
        f"passes={provenance['passes']} accuracy={provenance['accuracy']:.4f} "
        f"ops_failed={result['failed']}/{result['attempted']}"
    )
    OUT.mkdir(exist_ok=True)
    suffix = "smoke" if provenance["smoke"] else f"seed{provenance['seed']}"
    name = f"result_{result['workload']}_{result['mode']}_{suffix}.json"
    (OUT / name).write_text(json.dumps(result, indent=1), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny shapes, one pass, both modes: checks the harness, not speed",
    )
    args = parser.parse_args()
    if usable_cores() < 2:
        print(
            "benchmarks/e2e needs 2 usable cores: dist_intervals runs one "
            f"master and 2 workers (found {usable_cores()})",
            file=sys.stderr,
        )
        return 2
    names = (args.workload,) if args.workload else WORKLOADS
    modes = (False, True) if args.smoke else (bool(args.trace or args.traced),)
    try:
        results = [
            run_workload(name, args.seed, args.seconds, trace, args.smoke)
            for name in names
            for trace in modes
        ]
    except RuntimeError as error:
        print(f"benchmarks/e2e: {error}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    single = len(results) == 1
    print(
        json.dumps(
            {
                "correct": all(result["correct"] for result in results),
                "attempted": sum(result["attempted"] for result in results),
                "failed": sum(result["failed"] for result in results),
                "metrics": {
                    name if single else f"{result['workload']}/{name}": metric
                    for result in results
                    for name, metric in result["metrics"].items()
                },
            }
        )
    )
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
