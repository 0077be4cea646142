"""Figure 7 — speedup of SSTD vs number of workers, for several data sizes.

The paper generates "synthetic data traces of different sizes" and
reports ``Speedup(N) = serial time / time on N workers``, observing that
the speedup ratio improves as the trace grows (overheads — task
initialization, data transfer — amortize) while staying below the ideal
``N``.

This benchmark drives the simulated Work Queue / HTCondor stack
directly: each trace becomes one TD job per claim, split into tasks
whose virtual cost follows the calibrated cost model (init + compute +
transfer, paper Eq. (10)), plus a serial master-side dispatch cost —
the master is one process, so matchmaking and input staging do not
parallelize.  That serial term plus per-task initialization is what
makes small traces scale poorly (overhead-dominated) while large
traces approach ideal speedup.  Claim volumes are Zipf-skewed like
real traces; jobs split into volume-proportional task counts so the
biggest claim does not become a straggler.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import CondorPool, Simulator, uniform_pool
from repro.workqueue import CostModel, ElasticWorkerPool, Task, WorkQueueMaster

from benchmarks.conftest import report_lines

DATA_SIZES = (10_000, 100_000, 1_000_000, 10_000_000)
WORKER_COUNTS = (1, 2, 4, 8, 16, 32, 64)
N_CLAIMS = 64
MAX_TOTAL_TASKS = 256
COST = CostModel(init_time=0.5, unit_cost=1e-4, transfer_cost=5e-6)
DISPATCH_OVERHEAD = 0.05


def _claim_volumes(total: int, n_claims: int, zipf: float = 1.0) -> list[int]:
    weights = np.arange(1, n_claims + 1, dtype=float) ** (-zipf)
    weights /= weights.sum()
    volumes = np.floor(weights * total).astype(int)
    volumes[0] += total - volumes.sum()
    return volumes.tolist()


def _makespan(total_reports: int, n_workers: int) -> float:
    simulator = Simulator()
    condor = CondorPool(uniform_pool((n_workers + 3) // 4, cores=4))
    master = WorkQueueMaster(
        simulator, rng=0, dispatch_overhead=DISPATCH_OVERHEAD
    )
    pool = ElasticWorkerPool(simulator, master, condor, COST)
    pool.scale_to(n_workers)
    # Volume-proportional task splitting: no job's tasks exceed roughly
    # total/MAX_TOTAL_TASKS data units (paper §IV-C4: data divided
    # equally between a job's tasks).
    chunk = max(1.0, total_reports / MAX_TOTAL_TASKS)
    for claim, volume in enumerate(_claim_volumes(total_reports, N_CLAIMS)):
        n_tasks = max(1, int(np.ceil(volume / chunk)))
        share, remainder = divmod(volume, n_tasks)
        for k in range(n_tasks):
            master.submit(
                Task(
                    job_id=f"claim-{claim}",
                    data_size=float(share + (1 if k < remainder else 0)),
                )
            )
    master.drain()
    return simulator.now


def test_speedup_curves(benchmark):
    def run():
        table: dict[int, list[float]] = {}
        for size in DATA_SIZES:
            serial = _makespan(size, 1)
            table[size] = [
                serial / _makespan(size, workers)
                for workers in WORKER_COUNTS
            ]
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Figure 7 — Scalability of SSTD (speedup vs #workers)",
        f"{'Data size':>12}" + "".join(f"{w:>8}w" for w in WORKER_COUNTS)
        + f"{'(ideal)':>9}",
    ]
    for size, speedups in table.items():
        lines.append(
            f"{size:>12,}"
            + "".join(f"{s:>8.2f}x" for s in speedups)
            + f"{WORKER_COUNTS[-1]:>8}x"
        )
    report_lines("fig7_speedup", lines)

    for size, speedups in table.items():
        # Speedup is bounded by the ideal and roughly monotone in workers.
        for workers, speedup in zip(WORKER_COUNTS, speedups):
            assert speedup <= workers + 1e-6
        assert speedups[-1] >= speedups[0]
    # The paper's observation: speedup at max workers improves with size.
    at_max = [table[size][-1] for size in DATA_SIZES]
    assert all(b >= a - 1e-6 for a, b in zip(at_max, at_max[1:]))
    # Large traces approach the ideal: >= 70% efficiency at 64 workers.
    assert at_max[-1] >= 0.7 * WORKER_COUNTS[-1]
