"""Accuracy floor: the paper's Tables III-V, small and pinned.

Boston / Paris / Football at 2 % scale, seeds 1-3, a 1 h evaluation
grid, SSTD against the paper's six baselines (≈ 6 s for the whole
table).  A PR that changes estimates on purpose must stay above the
floors and keep the shape claims; a bit-identical PR cannot move them.

Measured (SSTD / DynaTD / best static, seeds 1, 2, 3), SSTD column
re-recorded by PR 23 — Baum-Welch as a MAP-EM (``1 / c_{t+1}`` back in
the xi statistic, sticky Dirichlet prior on ``A`` worth 4 pseudo-steps
per grid step); it was .823 .836 .842 / .789 .838 .843 / .694 .660 .689
when the floor was set, and the floors did not move:

- Boston   .847 .856 .861 / .788 .795 .769 / .781 .798 .786
- Paris    .802 .842 .823 / .759 .815 .799 / .787 .811 .822
- Football .697 .647 .669 / .730 .677 .706 / .665 .615 .647

(Paris seed 3 clears its best static method, CATD .8219, by .0006.)

The 1 h tables have ≈ 100 grid steps per claim.  The e2e benchmark's
``batch_longgrid`` workload has 1440, and a prior that is right at 100
steps can be inert there: plain EM and a fixed 20-step prior both read
.742 on its five-seed mean where the pre-PR-23 statistic read .764.
``test_long_grid_accuracy_floor`` pins that shape too (measured .772:
.762 .752 .780 .759 .807 on seeds 1-5).

Only claims that hold on every seed are asserted.  Two of the paper's
claims do not hold here: DynaTD beats SSTD on Football on all three
seeds (Table V has SSTD +2.0 points ahead) — pinned below as a strict
xfail on ``test_sstd_at_least_dynatd[football]`` — and "DynaTD is the
strongest baseline" fails on Boston seed 2 (RTD .798 > DynaTD .795), so
it is left unasserted (EXPERIMENTS.md).
"""

from statistics import fmean

import pytest

from benchmarks.e2e.workloads import WORKLOADS, accuracy, make_trace
from repro.baselines import EvaluationGrid, paper_comparison_set
from repro.core import SSTD, evaluate_estimates
from repro.streams import (
    boston_bombing,
    college_football,
    generate_trace,
    paris_shooting,
)

SCENARIOS = {
    "boston": boston_bombing,
    "paris": paris_shooting,
    "football": college_football,
}
SEEDS = (1, 2, 3)
DYNAMIC = ("SSTD", "DynaTD")

#: SSTD accuracy floors, ≈ 0.03 under the three-seed minimum above.
SSTD_FLOOR = {"boston": 0.80, "paris": 0.76, "football": 0.63}

#: Five-seed mean accuracy of ``batch_longgrid`` (32 claims x 1440 grid
#: steps) must stay above this: ≈ 0.015 under the measured mean, 0.013
#: above what an ineffective transition prior reads.
LONG_GRID_SEEDS = (1, 2, 3, 4, 5)
LONG_GRID_FLOOR = 0.755

FOOTBALL_GAP = (
    "DynaTD beats SSTD on the high-flip Football trace on 3/3 seeds "
    "(.730/.677/.706 vs .697/.647/.669); the paper's Table V has SSTD "
    "ahead by 2.0 points.  The xi fix and the sticky prior (PR 23) did "
    "not close it (ROADMAP: refit policy / interval semantics)"
)


@pytest.fixture(scope="module")
def table():
    """``table[scenario][seed][method]`` -> accuracy."""
    out = {}
    for scenario, spec in SCENARIOS.items():
        out[scenario] = {}
        for seed in SEEDS:
            trace = generate_trace(spec().scaled(0.02), seed=seed)
            grid = EvaluationGrid(trace.start, trace.end, step=3600.0)
            out[scenario][seed] = {
                algo.name: evaluate_estimates(
                    algo.name,
                    algo.discover(trace.reports, grid),
                    trace.timelines,
                ).accuracy
                for algo in paper_comparison_set()
            }
    return out


def static_accuracies(row):
    return [acc for name, acc in row.items() if name not in DYNAMIC]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_sstd_accuracy_floor(table, scenario):
    for seed in SEEDS:
        assert table[scenario][seed]["SSTD"] >= SSTD_FLOOR[scenario], seed


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_sstd_beats_every_static_method(table, scenario):
    for seed in SEEDS:
        row = table[scenario][seed]
        assert row["SSTD"] > max(static_accuracies(row)), (seed, row)


@pytest.mark.parametrize(
    "scenario",
    [
        "boston",
        "paris",
        pytest.param(
            "football",
            marks=pytest.mark.xfail(strict=True, reason=FOOTBALL_GAP),
        ),
    ],
)
def test_sstd_at_least_dynatd(table, scenario):
    for seed in SEEDS:
        row = table[scenario][seed]
        assert row["SSTD"] >= row["DynaTD"], (seed, row)


def test_static_methods_lose_most_on_football(table):
    for seed in SEEDS:
        mean = {
            scenario: fmean(static_accuracies(table[scenario][seed]))
            for scenario in SCENARIOS
        }
        assert min(mean, key=mean.get) == "football", (seed, mean)


def test_long_grid_accuracy_floor():
    shape = WORKLOADS["batch_longgrid"].shape
    accuracies = []
    for seed in LONG_GRID_SEEDS:
        trace = make_trace(shape, seed)
        accuracies.append(accuracy(trace, SSTD().discover(trace.reports)))
    assert fmean(accuracies) >= LONG_GRID_FLOOR, accuracies
