"""The full SSTD system: streaming truth discovery on a simulated cluster.

This module wires every substrate together into the architecture of the
paper's Figure 2: a data stream is partitioned into per-claim TD jobs,
the Dynamic Task Manager spawns Work Queue tasks for them, the elastic
worker pool executes them on an HTCondor-style cluster, and the PID
control loop steers priorities and pool size against soft deadlines.

Two entry points:

- :meth:`DistributedSSTD.run_batch` — process a whole trace once;
  returns truth estimates (bit-identical to serial
  :class:`repro.core.sstd.SSTD`) plus timing metrics (makespan,
  speedup inputs for Figure 7, execution times for Figure 4).
- :meth:`DistributedSSTD.run_intervals` — replay the trace as N equal
  time intervals (the paper's Figure 6 setup); returns per-interval
  execution times and the deadline hit rate.
"""

from __future__ import annotations

import collections
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.cluster.condor import CondorPool
from repro.cluster.failures import FailureConfig, FailureInjector
from repro.cluster.node import NodeSpec, uniform_pool
from repro.cluster.simulation import PeriodicTask, Simulator
from repro.control.feedback import FeedbackConfig, IntervalFeedbackLoop
from repro.control.wcet import WCETModel
from repro.core.acs import ClaimRows, ReportTable
from repro.core.sstd import SSTDConfig, StreamingSSTD
from repro.core.types import Report, TruthEstimate
from repro.obs import Observability, VirtualClock, using
from repro.streams.trace import Trace
from repro.system.deadline import DeadlineTracker
from repro.system.dtm import DTMConfig, DynamicTaskManager
from repro.system.jobs import (
    TDJob,
    build_claim_stack,
    expand_shard_result,
    shm_shard_task_spec,
    streaming_push_payload,
)
from repro.workqueue.local import LocalResult, LocalWorkQueue
from repro.workqueue.master import WorkQueueMaster
from repro.workqueue.pool import ElasticWorkerPool
from repro.workqueue.process import ProcessWorkQueue
from repro.workqueue.task import CostModel, Task

__all__ = [
    "BACKENDS",
    "BatchRunResult",
    "DistributedSSTD",
    "IntervalRunResult",
    "SSTDSystemConfig",
]

#: Execution substrates: virtual-time simulation, GIL-shared threads,
#: or real OS processes (one Python interpreter per worker).
BACKENDS = ("simulated", "threads", "processes")


def _interval_bounds(
    trace: Trace, n_intervals: int
) -> list[tuple[float, float]]:
    """Half-open ``[lo, hi)`` report windows of an equal-width replay.

    The last window closes just above ``trace.end`` so the reports
    stamped ``trace.end`` are replayed: ``end + 1e-9`` for traces near
    the origin, one ulp up where that sum rounds back to ``end``
    (Unix-epoch timestamps).
    """
    span = trace.end - trace.start
    if span <= 0:
        raise ValueError("trace must span a positive duration")
    interval_len = span / n_intervals
    bounds = [
        (
            trace.start + index * interval_len,
            trace.start + (index + 1) * interval_len,
        )
        for index in range(n_intervals)
    ]
    closing = max(trace.end + 1e-9, math.nextafter(trace.end, math.inf))
    bounds[-1] = (bounds[-1][0], closing)
    return bounds


def _effective_cores() -> int:
    """Cores this process may actually run on (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


@dataclass(frozen=True, slots=True)
class SSTDSystemConfig:
    """Deployment shape of the distributed SSTD system.

    Attributes:
        n_workers: Initial worker-pool size.
        nodes: Cluster machines; defaults to a uniform pool big enough
            for ``max_workers`` (or 4x n_workers when unbounded).
        cost_model: Virtual-time cost of tasks (init/compute/transfer).
        sstd: Truth-discovery engine configuration.
        dtm: Control-plane configuration.
        control_enabled: Run the PID loop; off = static priorities.
        deadline: Default soft deadline per TD job batch (seconds).
        tasks_per_job: Tasks each job batch is split into.
        max_workers: Elastic-pool ceiling (None = cluster capacity).
        seed: Seed for dispatch randomization.
        streaming_retrain_every: Retrain cadence (in interval ticks) of
            the streaming engine used by interval mode; small values
            track truth flips promptly at higher compute cost.
        failures: Enable node failure injection (nodes need
            ``mtbf_seconds`` in their specs, or set ``default_mtbf``);
            the system re-queues lost tasks and replaces dead workers.
        backend: Execution substrate — ``"simulated"`` (virtual-time
            cluster, default), ``"threads"``
            (:class:`~repro.workqueue.local.LocalWorkQueue`), or
            ``"processes"``
            (:class:`~repro.workqueue.process.ProcessWorkQueue`, real
            cores).  Every backend runs one payload: the master
            publishes each claim's ACS sequence in one ``(N, T)`` stack
            (:mod:`repro.system.shm`; inline bytes without shared
            memory) and a task carries claim ids + row offsets + the
            handle (:func:`~repro.system.jobs.shm_shard_task_spec`).
            The real backends run on wall time; the PID control plane
            and failure injection only apply to the simulated backend.
        claims_per_shard: How many claims each real-backend Work Queue
            task covers.  One task per claim (``1``) pays pickle +
            dispatch + interpreter overhead per claim; a shard amortizes
            it and lets the claims share one batched HMM kernel
            invocation, whose per-timestep cost is flat in batch width —
            wider shards are strictly cheaper compute.  ``None``
            (default) auto-sizes to one shard per usable execution lane
            (``min(n_workers, available cores)``): slicing finer than
            the hardware's parallelism only multiplies the kernel's
            O(T) interpreter cost without adding concurrency.  Shard
            composition never changes estimates (the batched kernel is
            row-deterministic), so this is purely a throughput knob.
            The simulated backend keeps one job per claim: jobs are the
            unit its control loop steers.
        drain_timeout: Wall-clock cap (seconds) on one ``drain`` of the
            real backends before the run aborts with ``TimeoutError``.
        observability: Record spans and metrics for the run (exposed on
            :attr:`DistributedSSTD.obs` afterwards, exportable with
            :func:`repro.obs.write_chrome_trace`).  ``True``/``False``
            force it; ``None`` (default) defers to the ``REPRO_TRACE``
            environment variable.  The simulated backend records on the
            virtual clock, the real backends on wall time.
        feedback: Closed-loop control for the *real-backend* interval
            replay (:class:`~repro.control.feedback.FeedbackConfig`):
            a PID turns per-interval lateness into a headroom signal,
            and deadline-aware admission control defers (or, opt-in,
            sheds) claims that the observed p95 decode cost says cannot
            finish within the deadline.  ``None`` (default) keeps the
            open-loop behaviour — every dirty claim is decoded every
            interval — so existing runs are bit-identical.  The
            simulated backend's control loop is configured via ``dtm``
            instead.
    """

    n_workers: int = 4
    nodes: tuple[NodeSpec, ...] | None = None
    cost_model: CostModel = field(default_factory=CostModel)
    sstd: SSTDConfig = field(default_factory=SSTDConfig)
    dtm: DTMConfig = field(default_factory=DTMConfig)
    control_enabled: bool = True
    deadline: float = 10.0
    tasks_per_job: int = 1
    max_workers: int | None = None
    seed: int = 0
    streaming_retrain_every: int = 5
    failures: FailureConfig | None = None
    backend: str = "simulated"
    drain_timeout: float = 600.0
    observability: bool | None = None
    claims_per_shard: int | None = None
    feedback: FeedbackConfig | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")
        if self.tasks_per_job < 1:
            raise ValueError("tasks_per_job must be >= 1")
        if self.claims_per_shard is not None and self.claims_per_shard < 1:
            raise ValueError("claims_per_shard must be >= 1 (or None for auto)")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.drain_timeout <= 0:
            raise ValueError("drain_timeout must be > 0")


@dataclass(frozen=True, slots=True)
class BatchRunResult:
    """Outcome of a batch run.

    On the real backends claims are dispatched in shards, so ``n_tasks``
    (shards executed) can be smaller than ``n_jobs`` (claims decoded).
    ``payload_bytes_per_task`` / ``result_bytes_per_task`` average the
    serialized bytes each task actually shipped across the process
    boundary (``None`` on executors that never serialize — simulated and
    threads).  A task carries ids + row offsets + a handle, so the
    payload number does not move with the report volume; the
    parallel-backend benchmark gates it under a byte ceiling.
    """

    estimates: tuple[TruthEstimate, ...]
    makespan: float
    n_jobs: int
    n_tasks: int
    total_busy_time: float
    worker_count: int
    peak_worker_count: int
    payload_bytes_per_task: float | None = None
    result_bytes_per_task: float | None = None

    @property
    def utilization(self) -> float:
        """Busy time over (makespan x peak workers); 1.0 is perfect packing."""
        denom = self.makespan * self.peak_worker_count
        return self.total_busy_time / denom if denom > 0 else 0.0


@dataclass(frozen=True, slots=True)
class IntervalRunResult:
    """Outcome of an interval-replay run (Figure 6)."""

    tracker: DeadlineTracker
    estimates: tuple[TruthEstimate, ...]
    final_worker_count: int

    @property
    def hit_rate(self) -> float:
        return self.tracker.hit_rate

    @property
    def execution_times(self) -> list[float]:
        return [r.execution_time for r in self.tracker.records]


class DistributedSSTD:
    """SSTD deployed on the simulated Work Queue / HTCondor stack."""

    name = "SSTD"

    def __init__(self, config: SSTDSystemConfig | None = None) -> None:
        self.config = config or SSTDSystemConfig()
        #: Recorder of the most recent run; replaced at the start of
        #: each run so traces never mix runs.
        self.obs = Observability.disabled()

    # ------------------------------------------------------------------
    # Deployment plumbing
    # ------------------------------------------------------------------
    def _build(
        self,
    ) -> tuple[Simulator, WorkQueueMaster, ElasticWorkerPool, DynamicTaskManager]:
        config = self.config
        simulator = Simulator()
        if config.nodes is not None:
            nodes = list(config.nodes)
        else:
            ceiling = config.max_workers or config.n_workers * 4
            nodes = uniform_pool(max(1, (ceiling + 3) // 4), cores=4)
        condor = CondorPool(nodes)
        self.obs = Observability.resolve(
            config.observability, clock=VirtualClock(simulator)
        )
        master = WorkQueueMaster(simulator, rng=config.seed, obs=self.obs)
        pool = ElasticWorkerPool(
            simulator,
            master,
            condor,
            config.cost_model,
            max_workers=config.max_workers,
            min_dwell=config.dtm.scale_dwell,
        )
        pool.scale_to(config.n_workers)
        if config.failures is not None:
            injector = FailureInjector(
                simulator, condor, master, config.failures, rng=config.seed
            )
            injector.start()
            # Replace dead workers as machines recover: the elastic pool
            # tops itself back up to at least the configured size.
            PeriodicTask(
                simulator,
                max(config.failures.mean_repair_time / 4.0, 1.0),
                lambda: pool.scale_to(max(pool.size, config.n_workers)),
            )
        wcet = WCETModel(
            init_time=config.cost_model.init_time,
            theta1=config.cost_model.unit_cost,
            theta2=config.cost_model.unit_cost
            + config.cost_model.transfer_cost,
        )
        dtm = DynamicTaskManager(simulator, master, pool, wcet, config.dtm)
        return simulator, master, pool, dtm

    # ------------------------------------------------------------------
    # Batch mode
    # ------------------------------------------------------------------
    def run_batch(
        self,
        reports: Sequence[Report],
        start: float | None = None,
        end: float | None = None,
    ) -> BatchRunResult:
        """Process a full trace; estimates match the serial engine exactly."""
        config = self.config
        if config.backend != "simulated":
            return self._run_batch_real(reports, start, end)
        simulator, master, pool, dtm = self._build()
        if config.control_enabled:
            dtm.start()

        table = ReportTable.from_reports(reports, config.sstd.acs.weights)
        claim_rows = list(table.by_claim())
        estimates: list[TruthEstimate] = []

        run_start = simulator.now
        with using(self.obs):
            stack = build_claim_stack(claim_rows, config.sstd, start, end)
            owner = stack.publish()
            try:
                n_tasks = 0
                for claim_id, rows in claim_rows:
                    job = TDJob(
                        job_id=claim_id,
                        claim_id=claim_id,
                        deadline=config.deadline,
                        tasks_per_batch=config.tasks_per_job,
                    )
                    dtm.register_job(job)
                    tasks = job.make_tasks(rows)
                    # The final task of each job carries the decode
                    # payload so the truth result materializes when the
                    # job's data is processed: a one-claim shard of the
                    # stack, the spec the real backends ship.
                    tasks[-1].fn = shm_shard_task_spec(
                        stack, [claim_id], owner.handle, config.sstd
                    )
                    for task in tasks:
                        master.submit(task)
                    n_tasks += len(tasks)

                master.wait_all()
                dtm.stop()
            finally:
                owner.close_and_unlink()
        if self.obs.enabled:
            self.obs.tracer.record_span(
                "system.run_batch",
                start=run_start,
                end=simulator.now,
                track="system",
                backend=config.backend,
                n_jobs=len(claim_rows),
                n_tasks=n_tasks,
            )
        for result in master.results:
            if result.output is not None:
                ((_claim_id, claim_estimates),) = expand_shard_result(
                    stack, [result.job_id], *result.output
                )
                estimates.extend(claim_estimates)
        estimates.sort(key=lambda e: (e.claim_id, e.timestamp))
        peak = max(
            [config.n_workers, pool.size]
            + [size for _, size in dtm.pool_size_log]
        )
        return BatchRunResult(
            estimates=tuple(estimates),
            makespan=simulator.now,
            n_jobs=len(claim_rows),
            n_tasks=n_tasks,
            total_busy_time=sum(
                account.busy_time for account in master.jobs.values()
            ),
            worker_count=pool.size,
            peak_worker_count=peak,
        )

    # ------------------------------------------------------------------
    # Real backends (threads / processes)
    # ------------------------------------------------------------------
    def _make_executor(
        self, n_workers: int | None = None
    ) -> LocalWorkQueue | ProcessWorkQueue:
        """The wall-time executor selected by ``config.backend``.

        ``n_workers`` caps the pool below the configured size when the
        run has fewer tasks than workers — a worker that can never
        receive a task only costs spawn time.
        """
        self.obs = Observability.resolve(self.config.observability)
        if n_workers is None:
            n_workers = self.config.n_workers
        if self.config.backend == "threads":
            return LocalWorkQueue(
                n_workers=n_workers,
                rng=self.config.seed,
                obs=self.obs,
            )
        return ProcessWorkQueue(
            n_workers=n_workers,
            rng=self.config.seed,
            obs=self.obs,
        )

    @staticmethod
    def _check_failures(results: Sequence) -> None:
        """Raise when any TD task failed; failures are data until here."""
        failed = [r for r in results if not r.ok]
        if failed:
            first = failed[0].error
            detail = f"\n{first.traceback}" if first.traceback else ""
            raise RuntimeError(
                f"{len(failed)} TD task(s) failed; first error on job "
                f"{failed[0].job_id!r}: {first}{detail}"
            )

    @staticmethod
    def _mean_bytes(sizes: Sequence[int | None]) -> float | None:
        """Mean of the non-``None`` sizes; ``None`` when nothing shipped."""
        shipped = [size for size in sizes if size is not None]
        if not shipped:
            return None
        return sum(shipped) / len(shipped)

    def _claims_per_shard(self, n_claims: int) -> int:
        """Resolve the shard size: explicit config or one shard per lane.

        A lane is an execution slot that can really run concurrently —
        ``min(n_workers, cores this process may use)``.  The batched
        kernel's per-timestep interpreter cost is flat in batch width,
        so splitting a lane's claims into several shards multiplies
        that cost for no extra parallelism; one maximal shard per lane
        is the throughput optimum.
        """
        if self.config.claims_per_shard is not None:
            return self.config.claims_per_shard
        lanes = max(1, min(self.config.n_workers, _effective_cores()))
        return max(1, math.ceil(n_claims / lanes))

    @staticmethod
    def _make_shards(
        claim_ids: Sequence[str], per_shard: int
    ) -> list[list[str]]:
        """Contiguous shards of sorted claims, each ``per_shard`` wide."""
        return [
            list(claim_ids[i : i + per_shard])
            for i in range(0, len(claim_ids), per_shard)
        ]

    def _shards(self, claim_ids: Sequence[str]) -> dict[str, list[str]]:
        """The round's shards of sorted claims, by stable Work Queue job id."""
        shards = self._make_shards(
            claim_ids, self._claims_per_shard(len(claim_ids))
        )
        return {s[0] if len(s) == 1 else f"{s[0]}..{s[-1]}": s for s in shards}

    def _decode_shards(
        self,
        executor: LocalWorkQueue | ProcessWorkQueue,
        shards: Mapping[str, Sequence[str]],
        rows: Mapping[str, ClaimRows],
        start: float | None,
        end: float | None,
        since: Mapping[str, float] | None = None,
        until: float | None = None,
    ) -> tuple[list[LocalResult], Iterator[TruthEstimate]]:
        """Submit, drain and merge one round of shard tasks.

        Builds and publishes the claim stack of every claim in
        ``shards`` (ACS of its ``rows`` over ``[start, end]``), submits
        one stack-row task per shard, drains, and releases the segment
        whether or not the drain was clean; a failed task raises.  The
        merged estimates are an iterator that expands the compact
        results (``since`` / ``until`` as in ``expand_shard_result``)
        only when consumed, so callers read their clock before paying
        for the merge.  A round without claims publishes nothing.
        """
        config = self.config
        if not shards:
            return [], iter(())
        clock_start = self.obs.clock.now()
        with using(self.obs):
            stack = build_claim_stack(
                [(c, rows[c]) for shard in shards.values() for c in shard],
                config.sstd,
                start,
                end,
            )
            owner = stack.publish()
            try:
                for job_id, shard in shards.items():
                    executor.submit(
                        Task(
                            job_id=job_id,
                            data_size=float(sum(len(rows[c]) for c in shard)),
                            fn=shm_shard_task_spec(
                                stack, shard, owner.handle, config.sstd
                            ),
                        )
                    )
                submitted_at = self.obs.clock.now()
                results = executor.drain(timeout=config.drain_timeout)
            finally:
                owner.close_and_unlink()
        if self.obs.enabled:
            self.obs.tracer.record_span(
                "system.submit",
                start=clock_start,
                end=submitted_at,
                track="system",
                n_tasks=len(shards),
            )
        self._check_failures(results)

        def merged() -> Iterator[TruthEstimate]:
            for result in results:
                for _claim_id, claim_estimates in expand_shard_result(
                    stack,
                    shards[result.job_id],
                    *result.output,
                    since=since,
                    until=until,
                ):
                    yield from claim_estimates

        return results, merged()

    def _run_batch_real(
        self,
        reports: Sequence[Report],
        start: float | None,
        end: float | None,
    ) -> BatchRunResult:
        """Batch mode on a real executor: one task per *shard* of claims.

        ``tasks_per_job`` does not apply here — a claim's decode is an
        indivisible unit of real compute.  Claims are grouped into
        shards of ``claims_per_shard`` (auto = one shard per usable
        execution lane); each task decodes its shard's rows of the
        published claim stack, so its claims share one batched kernel
        invocation and one round of pickle/dispatch overhead.
        """
        config = self.config
        table = ReportTable.from_reports(reports, config.sstd.acs.weights)
        shards = self._shards(table.claim_ids)
        n_workers = min(config.n_workers, max(1, len(shards)))
        executor = self._make_executor(n_workers)
        try:
            clock_start = self.obs.clock.now()
            results, merged = self._decode_shards(
                executor, shards, dict(table.by_claim()), start, end
            )
        finally:
            executor.shutdown()
        makespan = self.obs.clock.now() - clock_start
        if self.obs.enabled:
            self.obs.tracer.record_span(
                "system.run_batch",
                start=clock_start,
                end=clock_start + makespan,
                track="system",
                backend=config.backend,
                n_jobs=len(table.claim_ids),
                n_tasks=len(results),
            )
        estimates = sorted(merged, key=lambda e: (e.claim_id, e.timestamp))
        return BatchRunResult(
            estimates=tuple(estimates),
            makespan=makespan,
            n_jobs=len(table.claim_ids),
            n_tasks=len(results),
            total_busy_time=sum(r.wall_time for r in results),
            worker_count=n_workers,
            peak_worker_count=n_workers,
            payload_bytes_per_task=self._mean_bytes(
                [r.payload_bytes for r in results]
            ),
            result_bytes_per_task=self._mean_bytes(
                [r.result_bytes for r in results]
            ),
        )

    def _run_intervals_real(
        self,
        trace: Trace,
        bounds: Sequence[tuple[float, float]],
        deadline: float,
        compute_estimates: bool,
    ) -> IntervalRunResult:
        """Interval replay on a real executor.

        Each interval re-decodes every claim that received new reports,
        over the claim's cumulative history: its rows of a
        :class:`ReportTable` read once from ``trace.reports``, up to the
        interval's end.  Claims are dispatched in
        ``claims_per_shard`` shards (one task per shard, each decoding
        its rows of the interval's published claim stack), and the
        wall-clock time for the interval's shards to drain is recorded.
        Claims without new data are not re-decoded, and each claim's
        estimates are emitted at most once — the ``emitted_until``
        watermark is tracked per claim, not per task, so shard
        composition never duplicates or drops an estimate.

        With ``config.feedback`` set, an :class:`IntervalFeedbackLoop`
        sits in front of dispatch: dirty claims (new reports, or work
        deferred earlier) pass through admission control, deferred
        claims stay dirty for the next interval (cumulative re-decode
        makes deferral lossless — a later decode covers the same
        reports), and shed claims leave the dirty set until new reports
        arrive.  Per-interval lateness feeds the PID whose headroom
        signal scales the next admission budget.
        """
        config = self.config
        tracker = DeadlineTracker(deadline=deadline)
        estimates: list[TruthEstimate] = []

        table = ReportTable.from_reports(
            trace.reports, config.sstd.acs.weights
        )
        claim_rows = dict(table.by_claim())
        # arrivals[k, i]: reports of claim k inside interval i.
        lows, highs = np.asarray(bounds).T
        arrivals = np.array(
            [
                np.searchsorted(rows.times, highs)
                - np.searchsorted(rows.times, lows)
                for rows in claim_rows.values()
            ],
            dtype=np.intp,
        ).reshape(len(claim_rows), len(bounds))
        emitted_until: dict[str, float] = {}
        dirty: set[str] = set()
        # The executor installs the run's recorder on self.obs; the loop
        # must be built after it so its instrumentation lands there too.
        loop: IntervalFeedbackLoop | None = None
        executor = self._make_executor()
        try:
            if config.feedback is not None:
                loop = IntervalFeedbackLoop(
                    deadline, config.feedback, obs=self.obs
                )
            for index, (_, hi) in enumerate(bounds):
                n_reports = int(arrivals[:, index].sum())
                arrived = [
                    table.claim_ids[k]
                    for k in np.flatnonzero(arrivals[:, index])
                ]
                interval_start = self.obs.clock.now()
                n_deferred = 0
                n_shed = 0
                if loop is not None:
                    dirty.update(arrived)
                    decision = loop.plan(sorted(dirty), config.n_workers)
                    claim_ids = sorted(decision.admitted)
                    dirty.difference_update(decision.admitted)
                    dirty.difference_update(decision.shed)
                    n_deferred = len(decision.deferred)
                    n_shed = len(decision.shed)
                else:
                    claim_ids = arrived
                shards = self._shards(claim_ids)
                results, merged = self._decode_shards(
                    executor,
                    shards,
                    {c: claim_rows[c].before(hi) for c in claim_ids},
                    trace.start,
                    hi,
                    since=emitted_until,
                    until=hi,
                )
                execution_time = self.obs.clock.now() - interval_start
                if self.obs.enabled:
                    self.obs.tracer.record_span(
                        "system.interval",
                        start=interval_start,
                        end=interval_start + execution_time,
                        track="system",
                        index=index,
                        n_reports=n_reports,
                    )
                if loop is not None:
                    # Exact per-claim costs (shard wall time amortized
                    # over its width) drive the next admission budget.
                    loop.observe(
                        execution_time,
                        [
                            r.wall_time / max(1, len(shards[r.job_id]))
                            for r in results
                        ],
                        busy_time=sum(r.wall_time for r in results),
                    )
                if compute_estimates:
                    estimates.extend(merged)
                    emitted_until.update(dict.fromkeys(claim_ids, hi))
                tracker.record(
                    index,
                    n_reports,
                    execution_time,
                    n_deferred=n_deferred,
                    n_shed=n_shed,
                )
        finally:
            executor.shutdown()
            if loop is not None:
                loop.close()
        estimates.sort(key=lambda e: (e.claim_id, e.timestamp))
        return IntervalRunResult(
            tracker=tracker,
            estimates=tuple(estimates),
            final_worker_count=config.n_workers,
        )

    # ------------------------------------------------------------------
    # Interval mode (Figure 6)
    # ------------------------------------------------------------------
    def run_intervals(
        self,
        trace: Trace,
        n_intervals: int = 100,
        deadline: float | None = None,
        compute_estimates: bool = False,
    ) -> IntervalRunResult:
        """Replay ``trace`` as equal time intervals under a deadline.

        For each interval the system submits every claim's new reports
        as TD tasks, runs the (virtual-time) cluster until the interval's
        work drains, and records the execution time against the deadline.
        Job priorities, controller state, and the worker pool persist
        across intervals, so the control loop *learns* the traffic shape
        — the mechanism behind SSTD's Figure 6 advantage.
        """
        if n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        deadline = deadline or self.config.deadline
        bounds = _interval_bounds(trace, n_intervals)
        if self.config.backend != "simulated":
            return self._run_intervals_real(
                trace, bounds, deadline, compute_estimates
            )
        simulator, master, pool, dtm = self._build()
        if self.config.control_enabled:
            dtm.start()

        tracker = DeadlineTracker(deadline=deadline)
        streaming = (
            StreamingSSTD(
                self.config.sstd,
                retrain_every=self.config.streaming_retrain_every,
            )
            if compute_estimates
            else None
        )
        estimates: list[TruthEstimate] = []

        jobs: dict[str, TDJob] = {}
        for index, (lo, hi) in enumerate(bounds):
            batch = trace.reports_between(lo, hi)

            by_claim: dict[str, list[Report]] = collections.defaultdict(list)
            for report in batch:
                by_claim[report.claim_id].append(report)

            interval_start = simulator.now
            for claim_id in sorted(by_claim):
                job = jobs.get(claim_id)
                if job is None:
                    job = TDJob(
                        job_id=claim_id,
                        claim_id=claim_id,
                        deadline=deadline,
                        tasks_per_batch=self.config.tasks_per_job,
                    )
                    jobs[claim_id] = job
                    dtm.register_job(job)
                payload = None
                payload_args: tuple = ()
                if streaming is not None:
                    payload = streaming_push_payload
                    payload_args = (streaming,)
                tasks = job.make_tasks(
                    by_claim[claim_id], payload, payload_args
                )
                for task in tasks:
                    master.submit(task)

            with using(self.obs):
                master.wait_all()
                if streaming is not None:
                    estimates.extend(streaming.tick(hi))
            execution_time = simulator.now - interval_start
            if self.obs.enabled:
                self.obs.tracer.record_span(
                    "system.interval",
                    start=interval_start,
                    end=simulator.now,
                    track="system",
                    index=index,
                    n_reports=len(batch),
                )
            tracker.record(index, len(batch), execution_time)
            # Reset per-job accounting for the next interval's measurement.
            for account in master.jobs.values():
                account.first_submit_at = simulator.now

        dtm.stop()
        return IntervalRunResult(
            tracker=tracker,
            estimates=tuple(estimates),
            final_worker_count=pool.size,
        )
