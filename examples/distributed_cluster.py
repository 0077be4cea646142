"""Distributed deployment: SSTD on the simulated Work Queue / HTCondor stack.

Demonstrates the three system-side claims of the paper:

1. per-claim TD jobs parallelize — makespan shrinks with workers while
   truth estimates stay bit-identical to the serial engine;
2. the elastic pool + PID control meet more deadlines than a static
   deployment under bursty traffic;
3. heterogeneous nodes (different speeds) are handled transparently.

Run:
    python examples/distributed_cluster.py
"""

from repro.cluster import heterogeneous_pool
from repro.core import SSTD
from repro.core.sstd import SSTDConfig
from repro.core.acs import ACSConfig
from repro.streams import generate_trace, paris_shooting
from repro.control import ControlConfig
from repro.system import DistributedSSTD, SSTDSystemConfig
from repro.workqueue import CostModel


def main() -> None:
    trace = generate_trace(paris_shooting().scaled(0.01), seed=5)
    print(
        f"Trace: {len(trace.reports):,} reports, "
        f"{len(trace.claims)} claims (= TD jobs)\n"
    )
    sstd_config = SSTDConfig(acs=ACSConfig(window=3600.0, step=1800.0))

    # ------------------------------------------------------------------
    # 1. Scaling: same estimates, shrinking makespan
    # ------------------------------------------------------------------
    serial = sorted(
        SSTD(sstd_config).discover(
            trace.reports, start=trace.start, end=trace.end
        ),
        key=lambda e: (e.claim_id, e.timestamp),
    )
    print("Workers  Makespan(virtual s)  Speedup  Estimates match serial?")
    base = None
    for workers in (1, 2, 4, 8, 16):
        system = DistributedSSTD(
            SSTDSystemConfig(
                n_workers=workers,
                max_workers=workers,
                sstd=sstd_config,
            )
        )
        result = system.run_batch(
            trace.reports, start=trace.start, end=trace.end
        )
        base = base or result.makespan
        match = list(result.estimates) == serial
        print(
            f"{workers:>7}  {result.makespan:>19.2f}  "
            f"{base / result.makespan:>7.2f}  {match}"
        )

    # ------------------------------------------------------------------
    # 2. Deadline control: PID on vs off under bursty intervals
    # ------------------------------------------------------------------
    print("\nDeadline-driven control (100 intervals, bursty traffic):")
    cost = CostModel(init_time=0.2, unit_cost=0.02, transfer_cost=0.0)

    def run_deadline_demo(control, deadline):
        # The pool may grow past n_workers, so the controller resizes it.
        system = DistributedSSTD(
            SSTDSystemConfig(
                n_workers=4,
                max_workers=32,
                deadline=deadline,
                cost_model=cost,
                control_enabled=control,
                control=ControlConfig(sample_period=deadline / 5),
            )
        )
        return system.run_intervals(trace, n_intervals=100, deadline=deadline)

    # Calibrate a *tight* deadline: 80% of the uncontrolled mean, so a
    # static pool misses often and the controller has room to help.
    baseline = run_deadline_demo(control=False, deadline=10.0)
    deadline = 0.8 * baseline.tracker.mean_execution_time
    print(f"  (deadline {deadline:.2f}s, mean uncontrolled interval "
          f"{baseline.tracker.mean_execution_time:.2f}s)")
    for label, control in (
        ("static pool, no control", False),
        ("PID control + elastic  ", True),
    ):
        outcome = run_deadline_demo(control, deadline)
        print(
            f"  {label}: hit rate "
            f"{outcome.hit_rate:5.1%}, final pool size "
            f"{outcome.final_worker_count}"
        )

    # ------------------------------------------------------------------
    # 3. Heterogeneous cluster
    # ------------------------------------------------------------------
    nodes = tuple(heterogeneous_pool(8, rng=1))
    speeds = sorted(spec.speed_factor for spec in nodes)
    system = DistributedSSTD(
        SSTDSystemConfig(n_workers=8, nodes=nodes, sstd=sstd_config)
    )
    result = system.run_batch(trace.reports, start=trace.start, end=trace.end)
    print(
        f"\nHeterogeneous pool (speeds {speeds[0]:.2f}x..{speeds[-1]:.2f}x): "
        f"makespan {result.makespan:.2f}s, "
        f"utilization {result.utilization:.0%}, "
        f"estimates match serial: {list(result.estimates) == serial}"
    )


if __name__ == "__main__":
    main()
