"""Tour of the paper's future-work extensions (Section VII).

The paper closes with three research directions; this repository
implements all three, and this example exercises each:

1. claim-dependency modeling (`repro.core.dependencies`);
2. refined NLP — lexicon polarity analysis (`repro.text.polarity`);
3. ILP-style real-time optimization of workers and task counts
   (`repro.control.rto`).

Run:
    python examples/extensions_tour.py
"""

import numpy as np

from repro.control import JobDemand, RTOAllocator, WCETModel
from repro.core import (
    ClaimDependencyGraph,
    CorrelatedSSTD,
    CorrelationConfig,
    SSTD,
    SSTDConfig,
    TruthValue,
)
from repro.core.acs import ACSConfig
from repro.core.types import Attitude, Report
from repro.text import PolarityAnalyzer


def correlated_claims_demo() -> None:
    print("=" * 64)
    print("1. Claim dependencies: a sparse claim borrows its neighbor's")
    print("   evidence (weather at city A ~ weather at nearby city B)")
    print("=" * 64)
    rng = np.random.default_rng(4)
    reports = []
    # City A: richly observed, rain starts at t=5000.
    for k in range(1200):
        t = float(rng.uniform(0, 10_000))
        raining = t >= 5_000
        says = raining if rng.random() < 0.85 else not raining
        reports.append(
            Report(
                f"s{k % 250}", "rain-city-a", t,
                attitude=Attitude.AGREE if says else Attitude.DISAGREE,
            )
        )
    # City B: three early reports, then silence.
    for k in range(3):
        reports.append(
            Report(
                f"q{k}", "rain-city-b", float(200 + 300 * k),
                attitude=Attitude.DISAGREE,
            )
        )
    reports.sort(key=lambda r: r.timestamp)
    config = SSTDConfig(acs=ACSConfig(window=400.0, step=200.0))

    span = (reports[0].timestamp, reports[-1].timestamp)
    plain = SSTD(config).discover(reports, start=span[0], end=span[1])
    graph = ClaimDependencyGraph.from_edges(
        [("rain-city-a", "rain-city-b", 0.9)]
    )
    correlated = CorrelatedSSTD(
        graph, config, CorrelationConfig(blend=0.5)
    ).discover(reports)

    def verdict_at(estimates, claim, t):
        series = [
            e for e in estimates
            if e.claim_id == claim and e.timestamp <= t
        ]
        return series[-1].value.name if series else "?"

    for t in (2_000, 8_000):
        print(
            f"  t={t:>5}: city B independent={verdict_at(plain, 'rain-city-b', t):<6}"
            f" with-dependency={verdict_at(correlated, 'rain-city-b', t)}"
        )
    print("  (city B's late TRUE comes entirely from city A's evidence)\n")


def polarity_demo() -> None:
    print("=" * 64)
    print("2. Polarity analysis: lexicon + negation + intensifiers")
    print("=" * 64)
    analyzer = PolarityAnalyzer()
    for text in (
        "officials confirmed the evacuation, verified by witnesses",
        "that evacuation story is totally fake, a hoax",
        "the evacuation report is not true",
        "possibly fake, waiting for confirmation",
        "traffic on the bridge",
    ):
        result = analyzer.analyze(text)
        print(
            f"  {result.score:+.2f}  {result.attitude.name:<9} {text[:52]}"
        )
    print()


def rto_demo() -> None:
    print("=" * 64)
    print("3. Real-time optimization: minimum workers meeting deadlines")
    print("=" * 64)
    allocator = RTOAllocator(
        WCETModel(theta2=0.002), max_workers=64, max_tasks_per_job=8
    )
    jobs = [
        JobDemand("viral-rumor", data_size=50_000, deadline=10.0),
        JobDemand("local-claim", data_size=4_000, deadline=10.0),
        JobDemand("breaking-news", data_size=20_000, deadline=2.0),
    ]
    solution = allocator.solve(jobs)
    print(f"  feasible: {solution.feasible}, workers: {solution.n_workers}")
    for job in jobs:
        share = solution.priority_share(job.job_id)
        finish = allocator.wcet.job_wcet_simplified(
            job.data_size, share, solution.n_workers
        )
        print(
            f"  {job.job_id:<14} tasks={solution.task_counts[job.job_id]:>2} "
            f"share={share:5.1%}  finish={finish:5.2f}s  "
            f"deadline={job.deadline:.1f}s"
        )
    tight = allocator.solve(
        [JobDemand(j.job_id, j.data_size, j.deadline / 20) for j in jobs]
    )
    print(
        f"  20x tighter deadlines -> workers: {tight.n_workers} "
        f"(feasible: {tight.feasible})"
    )


def model_selection_demo() -> None:
    print("=" * 64)
    print("4. Bonus: does the data support 2 hidden states? (BIC)")
    print("=" * 64)
    from repro.core.acs import ACSConfig, acs_sequence
    from repro.hmm import select_n_states

    rng = np.random.default_rng(8)
    reports = []
    for k in range(2000):
        t = float(rng.uniform(0, 20_000))
        truth = 7_000 <= t < 14_000  # false -> true -> false
        says = truth if rng.random() < 0.85 else not truth
        reports.append(
            Report(
                f"s{k % 300}", "c", t,
                attitude=Attitude.AGREE if says else Attitude.DISAGREE,
            )
        )
    _, values = acs_sequence(
        sorted(reports, key=lambda r: r.timestamp),
        ACSConfig(window=800.0, step=400.0),
        start=0.0,
        end=20_000.0,
    )
    observed = values[~np.isnan(values)]
    result = select_n_states(observed)
    for entry in result.entries:
        print(
            f"  n_states={entry.n_states}: logL={entry.log_likelihood:8.1f}"
            f"  AIC={entry.aic:8.1f}  BIC={entry.bic:8.1f}"
        )
    print(
        f"  BIC selects {result.best_by_bic} states - the binary-claim"
        " assumption (paper §II) holds on this data.\n"
    )


if __name__ == "__main__":
    correlated_claims_demo()
    polarity_demo()
    model_selection_demo()
    rto_demo()
