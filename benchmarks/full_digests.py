"""Full-shape estimate digests of the four e2e workloads, seeds 1-3.

The estimate-digest tests pin the workloads' *smoke* shapes; a change
that moves numerics on purpose also quotes what it does at the *full*
shapes, where every HMM row runs blocked and the grids are long.  This
prints one row per (workload, seed) with the estimate count, the digest
(:func:`repro.core.estimates_io.estimates_digest`) and the accuracy,
after the numpy version and SIMD dispatch the digests depend on::

    PYTHONPATH=src python -m benchmarks.full_digests --save before.json
    # ... change the code ...
    PYTHONPATH=src python -m benchmarks.full_digests --against before.json

``--save FILE`` writes every run's estimates as JSON columns; with
``--against FILE`` each row also compares the run with the saved one:
the saved count, the estimates whose truth value differs (matched by
claim and timestamp; an estimate on one side only counts as differing)
and the largest ``|Δconfidence|`` over the matched estimates.  A row
whose truth values or estimate count differ also prints its first
differing (claim, timestamp), and the command then exits 1: "no truth
value differs" is its exit status.  The 12 full runs take a few
minutes; ``--workload`` and ``--seed`` narrow them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from benchmarks.e2e.workloads import WORKLOADS, accuracy, make_trace
from repro.core.columns import Estimates
from repro.core.estimates_io import estimates_digest

__all__ = ["compare", "main", "numpy_dispatch", "run"]

SEEDS = (1, 2, 3)


def numpy_dispatch() -> str:
    """numpy's version and the SIMD extensions its build dispatches to."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    baseline = " ".join(simd.get("baseline", [])) or "?"
    found = " ".join(simd.get("found", [])) or "-"
    return f"numpy {np.__version__}; SIMD baseline {baseline}; found {found}"


def run(name: str, seed: int) -> dict:
    """One full-shape pass of ``name`` at ``seed``: digest, accuracy and
    the estimates as columns."""
    workload = WORKLOADS[name]
    trace = make_trace(workload.shape, seed)
    estimates = workload.run_pass(trace, workload.shape, False).estimates
    claim_ids, timestamps, values, confidences = Estimates.of(estimates).lists()
    return {
        "workload": name,
        "seed": seed,
        "digest": estimates_digest(estimates),
        "accuracy": accuracy(trace, estimates),
        "claim_id": claim_ids,
        "timestamp": timestamps,
        "value": values,
        "confidence": confidences,
    }


def compare(
    before: dict, after: dict
) -> tuple[int, float, tuple[str, float] | None]:
    """``(truth values that differ, max |Δconfidence|, first differing
    (claim, timestamp))`` of two runs; an estimate on one side only
    counts as differing."""
    old, new = (
        {
            key: (value, confidence)
            for key, value, confidence in zip(
                zip(run["claim_id"], run["timestamp"]),
                run["value"],
                run["confidence"],
            )
        }
        for run in (before, after)
    )
    shared = old.keys() & new.keys()
    differ = old.keys() ^ new.keys()
    differ |= {key for key in shared if old[key][0] != new[key][0]}
    worst = max(
        (abs(old[key][1] - new[key][1]) for key in shared), default=0.0
    )
    return len(differ), worst, min(differ, default=None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", nargs="+", type=int, default=list(SEEDS))
    parser.add_argument("--save", type=Path, help="write the runs here")
    parser.add_argument("--against", type=Path, help="compare with a save")
    args = parser.parse_args(argv)

    saved = {}
    if args.against is not None:
        payload = json.loads(args.against.read_text(encoding="utf-8"))
        print(f"against {args.against}: {payload['numpy']}")
        saved = {(r["workload"], r["seed"]): r for r in payload["runs"]}
    print(numpy_dispatch())
    header = "workload seed count digest accuracy"
    if saved:
        header += " | before-count before-digest codes-differ max|dconf|"
    print(header)
    runs, failed = [], False
    for seed in args.seed:
        for name in args.workload or list(WORKLOADS):
            result = run(name, seed)
            runs.append(result)
            line = (
                f"{name} {seed} {len(result['value'])} {result['digest']} "
                f"{result['accuracy']:.4f}"
            )
            before = saved.get((name, seed))
            first = None
            if before is not None:
                differ, worst, first = compare(before, result)
                line += (
                    f" | {len(before['value'])} {before['digest']} "
                    f"{differ} {worst:.1e}"
                )
                failed |= differ > 0
                failed |= len(before["value"]) != len(result["value"])
            print(line, flush=True)
            if first is not None:
                print(f"  first differing estimate: {first[0]} at {first[1]}")
    if args.save is not None:
        payload = {"numpy": numpy_dispatch(), "runs": runs}
        args.save.write_text(json.dumps(payload), encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
