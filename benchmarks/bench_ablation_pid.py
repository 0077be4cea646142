"""Ablation A3 — PID gain tuning vs deadline hit rate (paper §V-A3).

The paper tuned the controller by sweeping each coefficient from 0.0 to
3.0 and picking "the set of values when the tasks in the system meet
the most deadlines", landing on (Kp, Ki, Kd) = (1.2, 0.3, 0.2).  This
ablation reruns the interval experiment under several gain settings —
including control fully off — and reports the hit rates.
"""

from __future__ import annotations

from repro.control import ControlConfig, PIDGains
from repro.system import DistributedSSTD, SSTDSystemConfig
from repro.workqueue import CostModel

from benchmarks.conftest import report_lines

GAIN_SETTINGS = {
    "off (no control)": None,
    "P only (1.2,0,0)": PIDGains(kp=1.2, ki=0.0, kd=0.0),
    "paper (1.2,.3,.2)": PIDGains(kp=1.2, ki=0.3, kd=0.2),
    "aggressive (3,1,1)": PIDGains(kp=3.0, ki=1.0, kd=1.0),
    "sluggish (.1,0,0)": PIDGains(kp=0.1, ki=0.0, kd=0.0),
}
N_INTERVALS = 100
#: Per-report virtual cost; the deadline is deliberately tight relative
#: to the bursty interval volumes so control has something to do.
UNIT_COST = 2e-4


def _mean_uncontrolled_time(trace) -> float:
    """Mean interval execution time with a static 2-worker pool."""
    config = SSTDSystemConfig(
        n_workers=2,
        max_workers=2,
        deadline=1.0,
        cost_model=CostModel(
            init_time=0.01, unit_cost=UNIT_COST, transfer_cost=0.0
        ),
        control_enabled=False,
    )
    outcome = DistributedSSTD(config).run_intervals(
        trace, n_intervals=N_INTERVALS, deadline=1.0
    )
    return outcome.tracker.mean_execution_time


def _hit_rate(trace, gains, deadline: float) -> float:
    config = SSTDSystemConfig(
        n_workers=2,
        max_workers=16,
        deadline=deadline,
        cost_model=CostModel(
            init_time=0.01, unit_cost=UNIT_COST, transfer_cost=0.0
        ),
        control_enabled=gains is not None,
        control=ControlConfig(
            gains=gains or PIDGains(kp=0.0, ki=0.0, kd=0.0)
        ),
    )
    system = DistributedSSTD(config)
    outcome = system.run_intervals(
        trace, n_intervals=N_INTERVALS, deadline=deadline
    )
    return outcome.hit_rate


def test_pid_gain_ablation(benchmark, boston_trace):
    # Tight deadline: 80% of the mean uncontrolled interval time, so
    # the static pool misses most intervals while a controller that
    # scales the pool and rebalances priorities can catch up.
    deadline = 0.8 * _mean_uncontrolled_time(boston_trace)

    def run():
        return {
            name: _hit_rate(boston_trace, gains, deadline)
            for name, gains in GAIN_SETTINGS.items()
        }

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Ablation A3 — PID gains vs deadline hit rate (Boston trace)",
        f"(deadline {deadline:.2f}s, 100 intervals, 2 workers elastic to 16)",
        f"{'Gains':<20}{'Hit rate':>9}",
    ]
    for name, rate in table.items():
        lines.append(f"{name:<20}{rate:>9.1%}")
    report_lines("ablation_pid", lines)

    # Feedback control is what matters: every controlled setting meets
    # far more deadlines than the uncontrolled pool.  (In this simulated
    # actuator, scaling up is cheap and unpenalized, so even a tiny P
    # gain saturates the benefit; the paper's testbed — where worker
    # startup competes for shared Condor slots — differentiated the
    # gains more.  Recorded in EXPERIMENTS.md.)
    off = table["off (no control)"]
    assert table["paper (1.2,.3,.2)"] > off + 0.3
    for name, rate in table.items():
        if name != "off (no control)":
            assert rate > off, name
