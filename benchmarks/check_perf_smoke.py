"""CI perf-smoke gate: fail on large process-backend perf regressions.

Compares a fresh ``BENCH_parallel.json`` (written by
``benchmarks/bench_parallel_backend.py``) against the committed baseline
``benchmarks/baselines/perf_smoke_baseline.json``.

Baselines are schema 3: measurements live under ``legs``, keyed by the
``effective_cpu_count`` they were recorded at.  (Current-run files are
schema 6 — they additionally carry a constant ``kernel`` provenance
key and measure the process backend only — but the gate reads the same
keys from both.)  Legs exist because throughput recorded on
one core says nothing about a multi-core runner, while a byte count
holds on any runner.  The gate picks the leg matching the current run's
effective cpu count — exact match first, else the largest leg that does
not exceed it — and applies whichever checks that leg defines:

- ``backends.processes.<workers>.throughput_rps`` — throughput floors
  (``baseline / REPRO_PERF_REGRESSION_FACTOR``, default factor 2.0);
- ``dispatch_comparison.{per_claim,sharded}.throughput_rps`` — same
  floors for the two dispatch modes;
- ``payload_bytes_ceiling`` — **hard** byte ceiling on the zero-copy
  ``payload_bytes.zero_copy_per_task``; not scaled by the factor, since
  serialized bytes are deterministic, not runner-speed dependent.

``REPRO_PERF_EXPECT_MIN_CPUS`` makes a leg self-verifying: when set, a
run on fewer effective cpus exits 2 (runner misconfiguration) instead of
silently gating against a smaller leg.

Usage::

    python benchmarks/check_perf_smoke.py [CURRENT_JSON] [BASELINE_JSON]

Throughput tolerance is deliberately loose because CI runners vary in
speed; the gate exists to catch algorithmic regressions (an accidental
re-serialization of the hot path), not 10% noise.  Exit codes: 0 pass,
1 regression, 2 bad input/environment.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

__all__ = ["main"]

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CURRENT = REPO_ROOT / "BENCH_parallel.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "perf_smoke_baseline.json"
GATED_BACKEND = "processes"


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"perf-smoke: missing {path}", file=sys.stderr)
        raise SystemExit(2) from None
    except json.JSONDecodeError as exc:
        print(f"perf-smoke: unparsable {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _select_leg(legs: dict, effective_cpus: int) -> tuple[str, dict] | None:
    """The baseline leg for this runner: exact cpu match, else largest <=."""
    exact = legs.get(str(effective_cpus))
    if exact is not None:
        return str(effective_cpus), exact
    eligible = [int(key) for key in legs if int(key) <= effective_cpus]
    if not eligible:
        return None
    best = str(max(eligible))
    return best, legs[best]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    current_path = Path(argv[0]) if len(argv) > 0 else DEFAULT_CURRENT
    baseline_path = Path(argv[1]) if len(argv) > 1 else DEFAULT_BASELINE
    factor = float(os.environ.get("REPRO_PERF_REGRESSION_FACTOR", "2.0"))
    if factor < 1.0:
        print("perf-smoke: regression factor must be >= 1.0", file=sys.stderr)
        return 2

    current = _load(current_path)
    baseline = _load(baseline_path)

    if current.get("scale") != baseline.get("scale"):
        print(
            f"perf-smoke: scale mismatch — current {current.get('scale')} vs "
            f"baseline {baseline.get('scale')}; run the benchmark with "
            "REPRO_BENCH_SCALE matching the committed baseline",
            file=sys.stderr,
        )
        return 2

    effective_cpus = int(current.get("effective_cpu_count") or 1)
    expect_min = os.environ.get("REPRO_PERF_EXPECT_MIN_CPUS")
    if expect_min is not None and effective_cpus < int(expect_min):
        print(
            f"perf-smoke: runner has {effective_cpus} effective cpus but "
            f"REPRO_PERF_EXPECT_MIN_CPUS={expect_min} — the multi-core leg "
            "cannot measure what it claims to; fix the runner/matrix",
            file=sys.stderr,
        )
        return 2

    legs = baseline.get("legs")
    if not isinstance(legs, dict) or not legs:
        print(
            "perf-smoke: baseline has no 'legs' section (schema 3 required)",
            file=sys.stderr,
        )
        return 2
    selected = _select_leg(legs, effective_cpus)
    if selected is None:
        print(
            f"perf-smoke: no baseline leg for {effective_cpus} effective "
            f"cpus (have {sorted(legs, key=int)})",
            file=sys.stderr,
        )
        return 2
    leg_key, leg = selected
    print(
        f"perf-smoke: {effective_cpus} effective cpus -> baseline leg "
        f"{leg_key!r} (allowed throughput regression {factor:.1f}x)"
    )

    failures: list[str] = []

    # --- throughput floors per worker count -------------------------------
    leg_stats = leg.get("backends", {}).get(GATED_BACKEND, {})
    current_stats = current.get("backends", {}).get(GATED_BACKEND, {})
    for workers in sorted(leg_stats, key=int):
        base = leg_stats[workers].get("throughput_rps")
        now = current_stats.get(workers, {}).get("throughput_rps")
        if base is None:
            continue
        if now is None:
            print(f"  {workers}w: missing throughput_rps", file=sys.stderr)
            failures.append(f"{workers}w")
            continue
        floor = base / factor
        verdict = "ok" if now >= floor else "REGRESSED"
        print(
            f"  {workers}w: {now:>10.1f} rps  (baseline {base:.1f}, "
            f"floor {floor:.1f})  {verdict}"
        )
        if now < floor:
            failures.append(f"{workers}w")

    # --- dispatch-mode floors ---------------------------------------------
    leg_dispatch = leg.get("dispatch_comparison", {})
    current_dispatch = current.get("dispatch_comparison", {})
    for mode in ("per_claim", "sharded"):
        base = leg_dispatch.get(mode, {}).get("throughput_rps")
        if base is None:
            continue
        now = current_dispatch.get(mode, {}).get("throughput_rps")
        if now is None:
            print(f"  dispatch {mode}: missing throughput_rps", file=sys.stderr)
            failures.append(f"dispatch:{mode}")
            continue
        floor = base / factor
        verdict = "ok" if now >= floor else "REGRESSED"
        print(
            f"  dispatch {mode}: {now:>10.1f} rps  (baseline {base:.1f}, "
            f"floor {floor:.1f})  {verdict}"
        )
        if now < floor:
            failures.append(f"dispatch:{mode}")

    # --- zero-copy payload ceiling (hard, factor-independent) -------------
    ceiling = leg.get("payload_bytes_ceiling")
    if ceiling is not None:
        now = current.get("payload_bytes", {}).get("zero_copy_per_task")
        if now is None:
            print(
                "  payload: missing payload_bytes.zero_copy_per_task",
                file=sys.stderr,
            )
            failures.append("payload")
        else:
            verdict = "ok" if now <= ceiling else "EXCEEDED"
            print(
                f"  payload: {now:>10.1f} B/task  (hard ceiling {ceiling}) "
                f" {verdict}"
            )
            if now > ceiling:
                failures.append("payload")

    if failures:
        print(
            f"perf-smoke: gate failed at {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
