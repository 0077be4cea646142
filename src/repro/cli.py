"""Command-line interface for the SSTD reproduction.

Subcommands mirror the workflows of the examples and benchmarks:

- ``repro-cli generate`` — synthesize a scenario trace to a JSONL file;
- ``repro-cli discover`` — run a truth-discovery algorithm over a trace
  and print (or save) the per-claim verdicts;
- ``repro-cli digest`` — print the bit-exact fingerprint of saved
  estimate files ("same answers" is equal digests);
- ``repro-cli evaluate`` — compare one or more algorithms against the
  trace's ground truth and print the paper-style metrics table;
- ``repro-cli stats`` — print a trace's Table-II-style statistics;
- ``repro-cli replay`` — stream a trace through the streaming engine at
  a chosen rate and report flips as they are detected;
- ``repro-cli trace`` — run a traced batch of the distributed system
  over a trace file and export a Perfetto-loadable Chrome trace (see
  :mod:`repro.obs`);
- ``repro-cli replay-controller`` — re-run a recorded PID trajectory
  offline, optionally with modified gains (see
  :mod:`repro.control.controller`);
- ``repro-cli lint`` — run the project's SSTD static-analysis rules
  (see :mod:`repro.devtools.lint`); exits non-zero on findings.

Install the package and run ``python -m repro.cli --help``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.baselines import EvaluationGrid, make_algorithm
from repro.baselines.registry import ALGORITHM_FACTORIES, PAPER_TABLE_METHODS
from repro.core import evaluate_estimates, format_results_table
from repro.core.types import TruthValue
from repro.streams import SCENARIOS, StreamReplayer, Trace, generate_trace
from repro.streams.generator import GeneratorConfig

__all__ = [
    "build_parser",
    "main",
]


def _add_generate(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "generate", help="synthesize a scenario trace to JSONL"
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("output", type=Path, help="output .jsonl path")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the paper's full volume")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-text", action="store_true",
                        help="skip tweet text (smaller, faster)")
    parser.set_defaults(func=_run_generate)


def _run_generate(args: argparse.Namespace) -> int:
    spec = SCENARIOS[args.scenario]()
    if args.scale != 1.0:
        spec = spec.scaled(args.scale)
    trace = generate_trace(
        spec, seed=args.seed,
        config=GeneratorConfig(with_text=not args.no_text),
    )
    trace.save(args.output)
    stats = trace.stats()
    print(
        f"wrote {args.output}: {stats.n_reports:,} reports, "
        f"{stats.n_sources:,} sources, {stats.n_claims} claims"
    )
    return 0


def _add_discover(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "discover", help="run truth discovery over a trace"
    )
    parser.add_argument("trace", type=Path, help="trace .jsonl path")
    parser.add_argument("--method", default="SSTD",
                        choices=sorted(ALGORITHM_FACTORIES))
    parser.add_argument("--step", type=float, default=1800.0,
                        help="evaluation grid step in seconds")
    parser.add_argument("--limit", type=int, default=20,
                        help="claims to print (0 = all)")
    parser.add_argument("--output", type=Path, default=None,
                        help="also save estimates as JSONL")
    parser.set_defaults(func=_run_discover)


def _run_discover(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    if not trace.reports:
        print("trace has no reports", file=sys.stderr)
        return 1
    grid = EvaluationGrid(trace.start, trace.end, step=args.step)
    algorithm = make_algorithm(args.method)
    estimates = algorithm.discover(trace.reports, grid)
    if args.output is not None:
        from repro.core import save_estimates

        count = save_estimates(estimates, args.output)
        print(f"saved {count} estimates to {args.output}")

    final: dict[str, TruthValue] = {}
    flips: dict[str, int] = {}
    previous: dict[str, TruthValue] = {}
    for estimate in estimates:
        if estimate.claim_id in previous and (
            previous[estimate.claim_id] != estimate.value
        ):
            flips[estimate.claim_id] = flips.get(estimate.claim_id, 0) + 1
        previous[estimate.claim_id] = estimate.value
        final[estimate.claim_id] = estimate.value

    print(f"{args.method}: {len(final)} claims decoded")
    shown = sorted(final)
    if args.limit:
        shown = shown[: args.limit]
    for claim_id in shown:
        text = trace.claims[claim_id].text if claim_id in trace.claims else ""
        print(
            f"  {claim_id:<14} {final[claim_id].name:<6} "
            f"flips={flips.get(claim_id, 0):<3} {text[:48]}"
        )
    if args.limit and len(final) > args.limit:
        print(f"  ... and {len(final) - args.limit} more")
    return 0


def _add_digest(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "digest", help="fingerprint estimate files (discover --output)"
    )
    parser.add_argument("estimates", type=Path, nargs="+",
                        help="estimates .jsonl path(s)")
    parser.set_defaults(func=_run_digest)


def _run_digest(args: argparse.Namespace) -> int:
    from repro.core import estimates_digest, load_estimates

    for path in args.estimates:
        estimates = load_estimates(path)
        print(f"{estimates_digest(estimates)}  {len(estimates)}  {path}")
    return 0


def _add_evaluate(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "evaluate", help="score algorithms against a trace's ground truth"
    )
    parser.add_argument("trace", type=Path)
    parser.add_argument(
        "--methods", nargs="+", default=list(PAPER_TABLE_METHODS),
        choices=sorted(ALGORITHM_FACTORIES),
    )
    parser.add_argument("--step", type=float, default=1800.0)
    parser.set_defaults(func=_run_evaluate)


def _run_evaluate(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    if not trace.timelines:
        print("trace has no ground-truth timelines", file=sys.stderr)
        return 1
    grid = EvaluationGrid(trace.start, trace.end, step=args.step)
    results = []
    for method in args.methods:
        algorithm = make_algorithm(method)
        estimates = algorithm.discover(trace.reports, grid)
        results.append(
            evaluate_estimates(method, estimates, trace.timelines)
        )
    print(format_results_table(results, title=f"Results — {trace.name}"))
    return 0


def _add_stats(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "stats", help="print Table-II-style statistics of a trace"
    )
    parser.add_argument("trace", type=Path)
    parser.set_defaults(func=_run_stats)


def _run_stats(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    stats = trace.stats()
    for key, value in stats.as_row().items():
        print(f"{key:>22}: {value}")
    transitions = sum(
        len(t.transition_times()) for t in trace.timelines.values()
    )
    print(f"{'truth transitions':>22}: {transitions}")
    retweets = sum(1 for r in trace.reports if r.is_retweet)
    print(f"{'retweets':>22}: {retweets}")
    from repro.streams import validate_trace

    validation = validate_trace(trace)
    print(f"{'validation':>22}: {validation.summary()}")
    return 0 if validation.ok else 1


def _add_replay(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "replay", help="stream a trace through StreamingSSTD"
    )
    parser.add_argument("trace", type=Path)
    parser.add_argument("--speed", type=float, default=200.0,
                        help="reports per second")
    parser.add_argument("--duration", type=float, default=60.0,
                        help="replay seconds")
    parser.set_defaults(func=_run_replay)


def _run_replay(args: argparse.Namespace) -> int:
    from repro.core import SSTDConfig, StreamingSSTD
    from repro.core.acs import ACSConfig

    trace = Trace.load(args.trace)
    replayer = StreamReplayer(trace, speed=args.speed, duration=args.duration)
    engine = StreamingSSTD(
        SSTDConfig(acs=ACSConfig(window=6.0, step=2.0), min_observations=4),
        retrain_every=10,
    )
    current: dict[str, TruthValue] = {}
    n_flips = 0
    for batch in replayer.batches():
        for report in batch.reports:
            engine.push(report)
        for estimate in engine.tick(batch.arrival_time):
            old = current.get(estimate.claim_id)
            if old is not None and old != estimate.value:
                n_flips += 1
                print(
                    f"t={batch.arrival_time:6.1f}s  {estimate.claim_id} "
                    f"-> {estimate.value.name}"
                )
            current[estimate.claim_id] = estimate.value
    print(
        f"replayed {replayer.total_reports():,} reports; "
        f"{len(current)} claims tracked, {n_flips} live flips"
    )
    return 0


def _add_trace(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "trace",
        help="run a traced distributed batch and export a Chrome trace",
        description=(
            "Runs DistributedSSTD.run_batch with observability on and "
            "writes the spans as a Chrome trace-event file.  Open the "
            "output at https://ui.perfetto.dev (or chrome://tracing): "
            "one track per worker/job plus master, control, and system "
            "tracks."
        ),
    )
    parser.add_argument("trace", type=Path, help="trace .jsonl path")
    parser.add_argument("output", type=Path,
                        help="Chrome trace-event output (.json)")
    parser.add_argument("--backend", default="simulated",
                        help="execution backend (default: simulated)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jsonl", type=Path, default=None,
                        help="additionally dump raw span events as JSONL")
    parser.set_defaults(func=_run_trace)


def _run_trace(args: argparse.Namespace) -> int:
    from repro.obs import stitch_metadata, write_chrome_trace, write_jsonl
    from repro.system.sstd_system import (
        BACKENDS,
        DistributedSSTD,
        SSTDSystemConfig,
    )

    if args.backend not in BACKENDS:
        print(f"backend must be one of {BACKENDS}", file=sys.stderr)
        return 1
    trace = Trace.load(args.trace)
    if not trace.reports:
        print("trace has no reports", file=sys.stderr)
        return 1
    system = DistributedSSTD(
        SSTDSystemConfig(
            backend=args.backend,
            n_workers=args.workers,
            seed=args.seed,
            observability=True,
        )
    )
    result = system.run_batch(trace.reports)
    events = system.obs.tracer.events()
    snapshot = system.obs.metrics.snapshot()
    dropped = system.obs.tracer.dropped
    stitch = stitch_metadata(system.obs.stitch)
    write_chrome_trace(
        events,
        args.output,
        metrics=snapshot,
        clock_kind=system.obs.clock.kind,
        dropped=dropped,
        stitch=stitch,
    )
    if args.jsonl is not None:
        count = write_jsonl(events, args.jsonl)
        print(f"wrote {count} span events to {args.jsonl}")
    if dropped:
        print(
            f"warning: ring buffer dropped {dropped} events; the timeline "
            "is truncated (raise the tracer capacity to keep them)",
            file=sys.stderr,
        )
    print(
        f"{args.backend}: {result.n_jobs} jobs / {result.n_tasks} tasks, "
        f"makespan {result.makespan:.3f}s ({system.obs.clock.kind} clock)"
    )
    print(
        f"wrote {len(events)} events to {args.output}"
        + (f" ({dropped} dropped by the ring buffer)" if dropped else "")
    )
    if stitch:
        workers = ", ".join(sorted(stitch))
        print(f"stitched worker timelines: {workers}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _add_replay_controller(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "replay-controller",
        help="re-run a recorded PID trajectory offline",
        description=(
            "Replays a controller trajectory recorded by a run with "
            "ControlConfig.trajectory_path set.  Without gain "
            "overrides the replay is bit-identical to the recording — a "
            "determinism check; with --kp/--ki/--kd it answers what the "
            "alternative tuning would have output against the same error "
            "sequence."
        ),
    )
    parser.add_argument("trajectory", type=Path,
                        help="trajectory .jsonl recorded by a run")
    parser.add_argument("--kp", type=float, default=None,
                        help="override the proportional gain")
    parser.add_argument("--ki", type=float, default=None,
                        help="override the integral gain")
    parser.add_argument("--kd", type=float, default=None,
                        help="override the derivative gain")
    parser.add_argument("--output", type=Path, default=None,
                        help="save replayed steps as JSONL")
    parser.add_argument("--limit", type=int, default=10,
                        help="per-controller steps to print (0 = none)")
    parser.set_defaults(func=_run_replay_controller)


def _run_replay_controller(args: argparse.Namespace) -> int:
    import json

    from repro.control.controller import load_trajectory, replay_trajectory
    from repro.control.pid import PIDGains

    samples = load_trajectory(args.trajectory)
    if not samples:
        print("trajectory has no samples", file=sys.stderr)
        return 1
    gains = None
    if args.kp is not None or args.ki is not None or args.kd is not None:
        base = samples[0].gains
        gains = PIDGains(
            kp=args.kp if args.kp is not None else base.kp,
            ki=args.ki if args.ki is not None else base.ki,
            kd=args.kd if args.kd is not None else base.kd,
        )
    steps = replay_trajectory(samples, gains=gains)

    by_controller: dict[str, list] = {}
    for step in steps:
        by_controller.setdefault(step.controller, []).append(step)
    identical = all(step.matches for step in steps)
    mode = (
        f"modified gains kp={gains.kp} ki={gains.ki} kd={gains.kd}"
        if gains is not None
        else "recorded gains"
    )
    print(f"replayed {len(steps)} samples from {args.trajectory} ({mode})")
    for name in sorted(by_controller):
        group = by_controller[name]
        worst = max(step.divergence for step in group)
        print(
            f"  {name}: {len(group)} steps, max divergence {worst:.6g}"
            + ("" if worst else " (bit-identical)")
        )
        if args.limit:
            for step in group[: args.limit]:
                print(
                    f"    e={step.error:+.4f} recorded={step.recorded_output:+.4f} "
                    f"replayed={step.replayed_output:+.4f}"
                )
    if args.output is not None:
        with args.output.open("w", encoding="utf-8") as handle:
            for step in steps:
                handle.write(
                    json.dumps(
                        {
                            "controller": step.controller,
                            "index": step.index,
                            "error": step.error,
                            "dt": step.dt,
                            "recorded_output": step.recorded_output,
                            "replayed_output": step.replayed_output,
                        },
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        print(f"wrote {len(steps)} replayed steps to {args.output}")
    if gains is None and not identical:
        print(
            "error: replay at recorded gains diverged from the recording",
            file=sys.stderr,
        )
        return 1
    return 0


def _add_lint(subparsers: argparse._SubParsersAction) -> None:
    # Declares no arguments of its own: main() hands everything after
    # ``lint`` to the lint CLI, which owns its flags and its --help.
    subparsers.add_parser(
        "lint",
        add_help=False,
        help="run the SSTD static-analysis rules (exit 1 on findings); "
        "'repro-cli lint --help' lists the lint options",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cli",
        description="SSTD reproduction command-line tools",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_generate(subparsers)
    _add_discover(subparsers)
    _add_digest(subparsers)
    _add_evaluate(subparsers)
    _add_stats(subparsers)
    _add_replay(subparsers)
    _add_trace(subparsers)
    _add_replay_controller(subparsers)
    _add_lint(subparsers)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.devtools.lint.cli import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
