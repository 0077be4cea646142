"""Operations dashboard: the full application over a replayed event.

Runs :class:`repro.system.SocialSensingApplication` — the paper's
Figure 2 wired end-to-end — over a replayed Boston-like trace, then
renders what an operator would watch: per-claim truth strips vs ground
truth, live flips, QoS hit rate, and the misinformation suspect list.

Run:
    python examples/operations_dashboard.py [--speed 300] [--duration 90]
"""

import argparse
import collections

from repro.core.acs import ACSConfig
from repro.core.sstd import SSTDConfig
from repro.report import bar_chart, side_by_side
from repro.streams import StreamReplayer, boston_bombing, generate_trace
from repro.system import ApplicationConfig, SocialSensingApplication


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--speed", type=float, default=300.0)
    parser.add_argument("--duration", type=float, default=90.0)
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()

    trace = generate_trace(boston_bombing().scaled(0.02), seed=args.seed)
    replayer = StreamReplayer(trace, speed=args.speed, duration=args.duration)

    # The replay compresses days onto the replay clock; size the ACS
    # window accordingly.
    app = SocialSensingApplication(
        ApplicationConfig(
            sstd=SSTDConfig(
                acs=ACSConfig(window=8.0, step=2.0), min_observations=4
            ),
            deadline=0.25,
            retrain_every=8,
        )
    )

    print(
        f"Replaying {replayer.total_reports():,} reports at "
        f"{args.speed:.0f}/s...\n"
    )
    for batch in replayer.batches():
        app.ingest_reports(list(batch.reports), now=batch.arrival_time)

    print(f"STATUS  {app.status_line()}\n")

    # Truth strips for the busiest claims, with replay-time ground truth.
    volume = collections.Counter(r.claim_id for r in trace.reports)
    print("Busiest claims — estimate vs ground truth (replay clock):")
    shown = 0
    for claim_id, _ in volume.most_common(4):
        estimates = app.estimates_for(claim_id)
        if len(estimates) < 4:
            continue
        # Remap the ground-truth timeline onto the replay clock.
        timeline = trace.timelines[claim_id]
        span = trace.reports[-1].timestamp - trace.reports[0].timestamp
        scale = span / args.duration

        from repro.core.types import TruthLabel, TruthTimeline

        remapped = TruthTimeline(
            claim_id,
            [
                TruthLabel(
                    claim_id,
                    (label.start - trace.reports[0].timestamp) / scale,
                    (label.end - trace.reports[0].timestamp) / scale,
                    label.value,
                )
                for label in timeline
                if label.end > trace.reports[0].timestamp
            ],
        )
        print(f"\n  {trace.claims[claim_id].text[:60]}")
        strips = side_by_side(estimates, remapped)
        for line in strips.splitlines():
            print(f"    {line}")
        shown += 1
    if not shown:
        print("  (no claim accumulated enough estimates — raise --duration)")

    print(f"\nLive flips detected: {len(app.flips)}")
    for flip in app.flips[:8]:
        print(
            f"  t={flip.at:5.1f}s  {flip.claim_id} -> {flip.new_value.name}"
        )

    spreaders = app.suspected_spreaders(top_k=6)
    if spreaders:
        print("\nSuspected misinformation spreaders (posterior reliability):")
        print(
            bar_chart({s.source_id: round(s.reliability, 2) for s in spreaders})
        )
    print(
        f"\nQoS: {app.qos_hit_rate:.0%} of batches met the "
        f"{app.config.deadline * 1000:.0f} ms deadline"
    )


if __name__ == "__main__":
    main()
