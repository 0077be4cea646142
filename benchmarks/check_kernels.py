"""CI gate for the HMM kernel backends benchmark.

Reads ``BENCH_kernels.json`` (written by ``benchmarks/bench_kernels.py``)
and enforces the PR-10 acceptance criterion on the numba-enabled CI leg:

- with ``REPRO_KERNEL_EXPECT_NUMBA=1`` the run must have had real numba
  kernels (exit 2 if the leg silently fell back to numpy — that means
  the CI environment broke, not the code) and the worst-shape
  kernel-level speedup (``kernel_speedup_min``: numpy total over numba
  total for fit+decode+posteriors) must clear the floor —
  ``REPRO_KERNEL_MIN_SPEEDUP``, default 1.5: compiled must still
  clearly beat the reference (the floor was 3.0 until the numpy
  reference's own recursions got about 3x cheaper; emission and M-step
  cost is shared by both backends, so the ratio fell without the
  compiled path regressing);
- without it (the numpy-fallback legs) the gate only checks that the
  benchmark ran and recorded the numpy backend; the numpy path's
  absolute performance is held by the existing perf-smoke gate
  (``benchmarks/check_perf_smoke.py``), not here.

Usage::

    python benchmarks/check_kernels.py [CURRENT_JSON]

Exit codes: 0 pass, 1 speedup below floor, 2 bad input/environment.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

__all__ = ["main"]

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CURRENT = REPO_ROOT / "BENCH_kernels.json"


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"check-kernels: missing {path}", file=sys.stderr)
        raise SystemExit(2) from None
    except json.JSONDecodeError as exc:
        print(f"check-kernels: unparsable {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    current_path = Path(argv[0]) if len(argv) > 0 else DEFAULT_CURRENT
    payload = _load(current_path)
    info = payload.get("kernel", {})
    expect_numba = os.environ.get("REPRO_KERNEL_EXPECT_NUMBA") == "1"
    floor = float(os.environ.get("REPRO_KERNEL_MIN_SPEEDUP", "1.5"))

    if not expect_numba:
        backend = info.get("backend")
        if backend not in ("numpy", "numba"):
            print(
                f"check-kernels: no resolved backend in {current_path}",
                file=sys.stderr,
            )
            return 2
        print(
            f"check-kernels: numpy-fallback leg, backend={backend!r} — "
            "absolute perf held by the perf-smoke gate"
        )
        return 0

    if not info.get("numba_available"):
        print(
            "check-kernels: REPRO_KERNEL_EXPECT_NUMBA=1 but the benchmark "
            "ran without numba — the CI leg's environment is broken",
            file=sys.stderr,
        )
        return 2

    speedup = payload.get("kernel_speedup_min")
    if speedup is None:
        print(
            "check-kernels: numba was available but no kernel_speedup_min "
            "was recorded",
            file=sys.stderr,
        )
        return 2

    shapes = payload.get("shapes", {})
    for label, entry in shapes.items():
        per_shape = entry.get("numba_over_numpy_speedup")
        if per_shape is not None:
            print(f"  {label}: numba {per_shape:.2f}x over numpy")
    discover = payload.get("discover_speedup")
    if discover is not None:
        print(f"  SSTD.discover: numba {discover:.2f}x over numpy")

    verdict = "ok" if speedup >= floor else "BELOW FLOOR"
    print(
        f"check-kernels: worst-shape kernel speedup {speedup:.2f}x "
        f"(floor {floor:.1f}x)  {verdict}"
    )
    if speedup < floor:
        print(
            f"check-kernels: fused numba kernels only {speedup:.2f}x over "
            f"the numpy reference — the compiled fast path regressed",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
