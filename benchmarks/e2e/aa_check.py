"""A/A self-check: do two sets of runs of the same code agree?

    python3 benchmarks/e2e/aa_check.py --sets 2 --runs 3

Runs the complete timed benchmark ``sets * runs`` times on one seed,
alternating the set each run belongs to (A, B, A, B, ...), and compares
each later set's median with set A's for every (workload, end-to-end
metric).  Exits 1 if any relative gap exceeds the metric's bound in
``BENCHMARK.json`` — a benchmark that cannot tell A from A cannot back a
claim about A versus B.  The printed table is the one README.md carries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1]))

from benchmarks.e2e.run import REPO, WORKLOADS, run_workload  # noqa: E402


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.sets < 2 or args.runs < 1:
        parser.error("need --sets >= 2 and --runs >= 1")

    # values[set][workload][metric] -> one value per run of that set
    values = [
        {name: {} for name in WORKLOADS} for _ in range(args.sets)
    ]
    failed = False
    for run in range(args.sets * args.runs):
        which = run % args.sets
        for name in WORKLOADS:
            result = run_workload(name, args.seed, args.seconds, trace=False)
            failed |= not result["correct"]
            shown = dict(result["metrics"])
            shown["accuracy"] = {"value": result["provenance"]["accuracy"]}
            for metric, entry in shown.items():
                values[which][name].setdefault(metric, []).append(entry["value"])
            print(
                f"run {run + 1}/{args.sets * args.runs} set {'ABCDEFGH'[which]} "
                f"{name}: " + " ".join(
                    f"{metric}={entry['value']:.5g}" for metric, entry in shown.items()
                ),
                flush=True,
            )

    print("\n| workload | metric | median A | median B | gap | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for name in WORKLOADS:
        for metric in spec["end_to_end"]:
            base = statistics.median(values[0][name][metric["name"]])
            for later in values[1:]:
                other = statistics.median(later[name][metric["name"]])
                gap = abs(other - base) / base
                ok = gap <= metric["bound"]
                failed |= not ok
                print(
                    f"| {name} | {metric['name']} | {base:.5g} | {other:.5g} | "
                    f"{gap:.1%} | {metric['bound']:.0%} | {'ok' if ok else 'FAIL'} |"
                )
        accuracies = {
            value for one_set in values for value in one_set[name]["accuracy"]
        }
        print(
            f"| {name} | accuracy (all runs) | {min(accuracies):.6f} | "
            f"{max(accuracies):.6f} | - | exact | "
            f"{'ok' if len(accuracies) == 1 else 'differs'} |"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
