"""The full SSTD system: streaming truth discovery on a simulated cluster.

This module wires every substrate together into the architecture of the
paper's Figure 2: a data stream is partitioned into per-claim TD jobs,
each job's batches become Work Queue tasks, the elastic worker pool
executes them on an HTCondor-style cluster, and the PID control loop
(:class:`~repro.control.controller.Controller`) steers priorities and
pool size against soft deadlines — or, on a real executor, admission of
the interval replay's refits.

Two entry points:

- :meth:`DistributedSSTD.run_batch` — process a whole trace once, as
  one round of shard tasks through one path on both backends (both
  masters drive one :class:`~repro.workqueue.task.TaskPool` and answer
  ``drain`` with the same result records); returns truth estimates
  (bit-identical to serial :class:`repro.core.sstd.SSTD`) plus timing
  metrics (makespan, speedup inputs for Figure 7, execution times for
  Figure 4).
- :meth:`DistributedSSTD.run_intervals` — replay the trace as N equal
  time intervals (the paper's Figure 6 setup) through one streaming
  engine, whose refits the process backend runs on its workers; returns
  per-interval execution times and the deadline hit rate.
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.control.pid import ControlConfig
from repro.core.acs import ReportTable
from repro.core.columns import Estimates
from repro.core.sstd import (
    ClaimDecodeResult,
    SkippedRefit,
    SSTDConfig,
    StreamingSSTD,
)
from repro.core.types import Report
from repro.obs import Observability, VirtualClock, using
from repro.streams.trace import Trace
from repro.system.deadline import DeadlineTracker
from repro.system.jobs import (
    build_claim_stack,
    claim_sequences,
    expand_shard_result,
    shm_shard_task_spec,
)
from repro.workqueue.process import ProcessWorkQueue
from repro.workqueue.task import CostModel, Task, TaskResult

if TYPE_CHECKING:
    from repro.cluster.node import NodeSpec
    from repro.control.controller import Controller
    from repro.cluster.simulation import Simulator
    from repro.workqueue.master import WorkQueueMaster
    from repro.workqueue.pool import ElasticWorkerPool

__all__ = [
    "BACKENDS",
    "BatchRunResult",
    "DistributedSSTD",
    "IntervalRunResult",
    "SSTDSystemConfig",
]

#: Execution substrates: virtual-time simulation of the cluster, or
#: real OS processes (one Python interpreter per worker).
BACKENDS = ("simulated", "processes")

#: Refit cadence of the interval replay's streaming engine on every
#: backend, in grid ticks counted from the engine's first: every claim
#: with a report after its last refit is due on the same ticks, so a
#: scheduled tick is one round of shard tasks.  Small values track truth
#: flips promptly at higher compute cost.
STREAMING_RETRAIN_EVERY = 5


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
        control: Gains, sample period and trajectory path of the
            control loop (:class:`~repro.control.pid.ControlConfig`).
        control_enabled: Run the control loop, on every backend: job
            priorities and (elastic) pool size on the simulated cluster,
            admission of the interval replay's refits on a real
            executor.  A deferred claim skips its refit but keeps
            filtering on its model.  Off: static priorities, a fixed
            pool, and every due claim refits (the serial engine's
            answer).  Real batch runs are never controlled.
        deadline: Default soft deadline per TD job batch (seconds).
        max_workers: Elastic-pool ceiling (None = cluster capacity).
            The pool is elastic — the control loop may resize it — iff
            this is ``None`` or above ``n_workers``.
        seed: Seed of the simulated master's priority-weighted draw.
        backend: Execution substrate — ``"simulated"`` (virtual-time
            cluster, default) or ``"processes"``
            (:class:`~repro.workqueue.process.ProcessWorkQueue`, real
            cores).  Both backends run one payload: the master
            publishes each claim's ACS sequence in one ``(N, T)`` stack
            (:mod:`repro.system.shm`; inline bytes without shared
            memory) and a task carries claim ids + row offsets + the
            handle (:func:`~repro.system.jobs.shm_shard_task_spec`).
            The process backend runs on wall time.
        claims_per_shard: How many claims each process-backend Work Queue
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
            process backend before the run aborts with ``TimeoutError``.
        observability: Record spans and metrics for the run (exposed on
            :attr:`DistributedSSTD.obs` afterwards, exportable with
            :func:`repro.obs.write_chrome_trace`).  ``True``/``False``
            force it; ``None`` (default) defers to the ``REPRO_TRACE``
            environment variable.  The simulated backend records on the
            virtual clock, the process backend on wall time.
    """

    n_workers: int = 4
    nodes: tuple[NodeSpec, ...] | None = None
    cost_model: CostModel = field(default_factory=CostModel)
    sstd: SSTDConfig = field(default_factory=SSTDConfig)
    control: ControlConfig = field(default_factory=ControlConfig)
    control_enabled: bool = True
    deadline: float = 10.0
    max_workers: int | None = None
    seed: int = 0
    backend: str = "simulated"
    drain_timeout: float = 600.0
    observability: bool | None = None
    claims_per_shard: int | None = None

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")
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

    On the process backend claims are dispatched in shards, so
    ``n_tasks`` (shards executed) can be smaller than ``n_jobs`` (claims
    decoded).  ``payload_bytes_per_task`` / ``result_bytes_per_task``
    average the serialized bytes each task actually shipped across the
    process boundary (``None`` on the simulated backend, which never
    serializes).  A task carries ids + row offsets + a handle, so the
    payload number does not move with the report volume; a tier-1 test
    holds it under a byte ceiling.  ``estimates`` are in
    ``(claim_id, timestamp)`` order.
    """

    estimates: Estimates
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
    """Outcome of an interval-replay run (Figure 6); ``estimates`` are
    in ``(claim_id, timestamp)`` order, empty unless asked for."""

    tracker: DeadlineTracker
    estimates: Estimates
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
        self, deadline: float
    ) -> tuple[Simulator, WorkQueueMaster, ElasticWorkerPool, Controller | None]:
        """The simulated cluster, with its control loop armed when enabled.

        The simulated substrate and the controller are imported here,
        not with the module: a process-backend or serial run never loads
        the one, a run with control disabled never loads the other.
        """
        from repro.cluster.condor import CondorPool
        from repro.cluster.node import uniform_pool
        from repro.cluster.simulation import Simulator
        from repro.control.controller import Controller
        from repro.control.wcet import WCETModel
        from repro.workqueue.master import WorkQueueMaster
        from repro.workqueue.pool import ElasticWorkerPool

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
        )
        pool.scale_to(config.n_workers)
        if not config.control_enabled:
            return simulator, master, pool, None
        cost = config.cost_model
        controller = Controller(deadline, config.control, obs=self.obs)
        controller.start(
            master,
            pool,
            WCETModel(theta2=cost.unit_cost + cost.transfer_cost),
            elastic=config.max_workers is None
            or config.max_workers > config.n_workers,
        )
        return simulator, master, pool, controller

    # ------------------------------------------------------------------
    # Batch mode
    # ------------------------------------------------------------------
    def run_batch(
        self,
        reports: Sequence[Report],
        start: float | None = None,
        end: float | None = None,
    ) -> BatchRunResult:
        """Process a full trace in one round of shard tasks; estimates
        match the serial engine exactly.

        One path on both backends (:meth:`_decode_shards`).  On the
        simulated cluster each shard is one claim's job, sized by its
        report count, under the control loop when it is enabled; on
        processes a shard holds ``claims_per_shard`` claims (auto = one
        shard per usable execution lane), so its claims share one
        batched kernel invocation and one round of pickle/dispatch
        overhead, and the run is never controlled.
        """
        config = self.config
        table = ReportTable.from_reports(reports, config.sstd.acs.weights)
        sizes = dict(zip(table.claim_ids, np.diff(table.offsets).tolist()))
        if config.backend == "simulated":
            _, master, pool, controller = self._build(config.deadline)
            with controller or contextlib.nullcontext():
                clock_start = self.obs.clock.now()
                decoded = self._decode_shards(
                    master,
                    claim_sequences(table.by_claim(), config.sstd, start, end),
                    config.sstd,
                    sizes,
                )
            sampled = controller.pool_sizes if controller else []
            worker_count = pool.size
            peak = max([config.n_workers, pool.size, *sampled])
        else:
            worker_count = peak = min(
                config.n_workers, len(self._shards(table.claim_ids)) or 1
            )
            executor = self._make_executor(worker_count)
            try:
                clock_start = self.obs.clock.now()
                decoded = self._decode_shards(
                    executor,
                    claim_sequences(table.by_claim(), config.sstd, start, end),
                    config.sstd,
                    sizes,
                )
            finally:
                executor.shutdown()
        makespan = self.obs.clock.now() - clock_start
        results = [result for result, _ in decoded]
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
        estimates = Estimates.concat(
            claim.estimates for _, claims in decoded for claim in claims
        )
        return BatchRunResult(
            estimates=estimates.sorted(),
            makespan=makespan,
            n_jobs=len(table.claim_ids),
            n_tasks=len(results),
            total_busy_time=sum(r.wall_time for r in results),
            worker_count=worker_count,
            peak_worker_count=peak,
            payload_bytes_per_task=self._mean_bytes(
                [r.payload_bytes for r in results]
            ),
            result_bytes_per_task=self._mean_bytes(
                [r.result_bytes for r in results]
            ),
        )

    # ------------------------------------------------------------------
    # Process backend
    # ------------------------------------------------------------------
    def _make_executor(self, n_workers: int | None = None) -> ProcessWorkQueue:
        """The wall-time executor of the process backend.

        ``n_workers`` caps the pool below the configured size when the
        run has fewer tasks than workers — a worker that can never
        receive a task only costs spawn time.
        """
        self.obs = Observability.resolve(self.config.observability)
        if n_workers is None:
            n_workers = self.config.n_workers
        return ProcessWorkQueue(n_workers=n_workers, obs=self.obs)

    @staticmethod
    def _check_failures(results: Sequence) -> None:
        """Raise when any TD task failed (failures come back as data)."""
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
        """The round's shards of sorted claims, by stable Work Queue job id.

        On the simulated cluster a shard is one claim: jobs are the unit
        its control loop steers.
        """
        per_shard = (
            1
            if self.config.backend == "simulated"
            else self._claims_per_shard(len(claim_ids))
        )
        shards = self._make_shards(claim_ids, per_shard)
        return {s[0] if len(s) == 1 else f"{s[0]}..{s[-1]}": s for s in shards}

    def _decode_shards(
        self,
        executor: WorkQueueMaster | ProcessWorkQueue,
        items: Sequence[tuple[str, np.ndarray, np.ndarray]],
        sstd_config: SSTDConfig,
        sizes: Mapping[str, int],
    ) -> list[tuple[TaskResult, list[ClaimDecodeResult]]]:
        """Decode ``items`` on ``executor`` in one round of shard tasks.

        Packs the ``(claim_id, times, values)`` items, sorted by claim,
        into one claim stack and publishes it, submits one task per
        shard (its ``data_size`` the ``sizes`` of its claims), drains,
        and releases the segment whether or not the drain was clean; a
        failed task, a lost one included, raises.  Returns each shard's
        result, in shard order, with the
        :func:`~repro.core.sstd.batch_fit_decode` results of its claims.
        A round without claims submits nothing.
        """
        if not items:
            return []
        shards = self._shards([claim_id for claim_id, _, _ in items])
        clock_start = self.obs.clock.now()
        with using(self.obs):
            stack = build_claim_stack(items)
            owner = stack.publish()
            try:
                for job_id, shard in shards.items():
                    size = sum(sizes.get(claim_id, 0) for claim_id in shard)
                    executor.submit(
                        Task(
                            job_id=job_id,
                            data_size=float(size),
                            fn=shm_shard_task_spec(
                                stack, shard, owner.handle, sstd_config
                            ),
                        )
                    )
                submitted_at = self.obs.clock.now()
                results = (
                    executor.drain(timeout=self.config.drain_timeout)
                    if isinstance(executor, ProcessWorkQueue)
                    else executor.drain()
                )
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
        by_job = {result.job_id: result for result in results}
        in_order = [by_job[job_id] for job_id in shards]
        return [
            (result, expand_shard_result(stack, shard, *result.output))
            for result, shard in zip(in_order, shards.values())
        ]

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

        One loop on every backend.  Interval ``i`` takes the reports and
        the trace's batch-grid points (``trace.start + k * step``) from
        its start on, the last one through the grid's closing point.
        At each grid point ``g`` the reports with ``timestamp <= g`` go
        into one :class:`~repro.core.sstd.StreamingSSTD`, which then
        ticks at ``g``; with ``compute_estimates`` the ticks' estimates
        are returned, the serial engine's on every backend.  The
        execution time is the virtual time the simulated cluster takes
        to drain the interval's per-claim TD tasks (which only size the
        work; the control loop learns the traffic shape across
        intervals, the mechanism behind SSTD's Figure 6 advantage), or
        the wall time of the interval's ticks, whose refits run on a
        real executor.
        """
        if n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        config = self.config
        if deadline is None:
            deadline = config.deadline
        span = trace.end - trace.start
        if span <= 0:
            raise ValueError("trace must span a positive duration")
        starts = trace.start + (span / n_intervals) * np.arange(n_intervals)
        times = trace.reports.columns.times
        grid = config.sstd.acs.grid(trace.start, trace.end)
        report_cuts = [*np.searchsorted(times, starts).tolist(), times.size]
        grid_cuts = [*np.searchsorted(grid, starts).tolist(), grid.size]

        tracker = DeadlineTracker(deadline=deadline)
        ticks: list[Estimates] = []
        backend: _SimulatedBackend | _ExecutorBackend = (
            _SimulatedBackend(self, deadline, compute_estimates)
            if config.backend == "simulated"
            else _ExecutorBackend(self, deadline)
        )
        try:
            for index in range(n_intervals):
                first, last = report_cuts[index], report_cuts[index + 1]
                batch = trace.reports[first:last]
                interval_start = self.obs.clock.now()
                with using(self.obs):
                    interval = backend.run(
                        batch, grid[grid_cuts[index] : grid_cuts[index + 1]]
                    )
                if compute_estimates:
                    ticks.extend(interval)
                execution_time = self.obs.clock.now() - interval_start
                if self.obs.enabled:
                    self.obs.tracer.record_span(
                        "system.interval",
                        start=interval_start,
                        end=interval_start + execution_time,
                        track="system",
                        index=index,
                        n_reports=len(batch),
                    )
                counts = backend.settle(execution_time)
                tracker.record(index, len(batch), execution_time, *counts)
        finally:
            backend.close()
        return IntervalRunResult(
            tracker=tracker,
            estimates=Estimates.concat(ticks).sorted(),
            final_worker_count=backend.worker_count,
        )


def _replay_interval(
    engine: StreamingSSTD, reports: Sequence[Report], grid: np.ndarray
) -> list[Estimates]:
    """Push ``reports`` into ``engine`` and tick it at each grid point;
    returns each tick's estimates."""
    ticks: list[Estimates] = []
    cursor = 0
    for now in grid.tolist():
        while cursor < len(reports) and reports[cursor].timestamp <= now:
            engine.push(reports[cursor])
            cursor += 1
        ticks.append(engine.tick(now))
    for report in reports[cursor:]:
        engine.push(report)
    return ticks


class _SimulatedBackend:
    """The virtual-time cluster's side of the interval replay.

    An interval's reports become TD tasks of their claims' jobs, which
    the control loop steers across intervals; they only size the work.
    The engine, which refits on the master, runs only when the
    estimates are asked for: it takes no virtual time.
    """

    def __init__(
        self, system: DistributedSSTD, deadline: float, compute_estimates: bool
    ) -> None:
        self.simulator, self.master, self.pool, self.controller = (
            system._build(deadline)
        )
        self.engine: StreamingSSTD | None = None
        if compute_estimates:
            self.engine = StreamingSSTD(
                system.config.sstd, STREAMING_RETRAIN_EVERY
            )

    @property
    def worker_count(self) -> int:
        return self.pool.size

    def run(
        self, reports: Sequence[Report], grid: np.ndarray
    ) -> list[Estimates]:
        """Drain one interval's TD tasks on the cluster, then replay it."""
        counts = collections.Counter(report.claim_id for report in reports)
        for claim_id in sorted(counts):
            self.master.submit(
                Task(job_id=claim_id, data_size=float(counts[claim_id]))
            )
        self.master.drain()
        if self.engine is None:
            return []
        return _replay_interval(self.engine, reports, grid)

    def settle(self, execution_time: float) -> tuple[int, int]:
        """End an interval; returns its ``(n_deferred, n_shed)``."""
        return 0, 0

    def close(self) -> None:
        if self.controller is not None:
            self.controller.close()


class _ExecutorBackend:
    """A real executor's side of the interval replay: it runs the refits.

    The engine always runs: its work is what an interval's wall time
    measures.  :meth:`refit` is its refit seam: the due claims pass
    admission when control is enabled, and the admitted ones are
    decoded as shards of one published stack.  Costs and admission
    counts add up over an interval and feed the controller when it
    ends.
    """

    def __init__(self, system: DistributedSSTD, deadline: float) -> None:
        self.system = system
        self.worker_count = system.config.n_workers
        self.engine: StreamingSSTD | None = StreamingSSTD(
            system.config.sstd, STREAMING_RETRAIN_EVERY, refit=self.refit
        )
        self.controller: Controller | None = None
        self.executor = system._make_executor()  # shut down in close()
        if system.config.control_enabled:
            from repro.control.controller import Controller

            try:  # after the executor, which installs the run's recorder
                self.controller = Controller(
                    deadline, system.config.control, obs=system.obs
                )
            except BaseException:
                self.executor.shutdown()
                raise
        self._costs: list[float] = []
        self._busy_time = 0.0
        self._deferred = self._shed = 0

    def run(
        self, reports: Sequence[Report], grid: np.ndarray
    ) -> list[Estimates]:
        """Replay one interval; its ticks' refits run on the executor."""
        return _replay_interval(self.engine, reports, grid)

    def refit(
        self,
        items: Sequence[tuple[str, np.ndarray, np.ndarray]],
        config: SSTDConfig,
    ) -> list[ClaimDecodeResult | SkippedRefit]:
        """Refit one tick's due claims on the executor."""
        skipped: dict[str, SkippedRefit] = {}
        if self.controller is not None:
            decision = self.controller.admit(
                [claim_id for claim_id, _, _ in items], self.worker_count
            )
            skipped = dict.fromkeys(decision.deferred, SkippedRefit.DEFERRED)
            skipped.update(dict.fromkeys(decision.shed, SkippedRefit.SHED))
            self._deferred += len(decision.deferred)
            self._shed += len(decision.shed)
        decoded: dict[str, ClaimDecodeResult] = {}
        for result, claims in self.system._decode_shards(
            self.executor,
            [item for item in items if item[0] not in skipped],
            config,
            {},
        ):
            # Per-claim cost: the shard's wall time over its width.
            self._costs.append(result.wall_time / len(claims))
            self._busy_time += result.wall_time
            decoded.update((claim.claim_id, claim) for claim in claims)
        return [skipped.get(c) or decoded[c] for c, _, _ in items]

    def settle(self, execution_time: float) -> tuple[int, int]:
        """End an interval; returns its ``(n_deferred, n_shed)``."""
        if self.controller is not None:
            self.controller.settle(execution_time, self._costs, self._busy_time)
        counts = (self._deferred, self._shed)
        self._costs, self._busy_time = [], 0.0
        self._deferred = self._shed = 0
        return counts

    def close(self) -> None:
        self.engine = None  # engine -> refit -> self: free buffers now
        self.executor.shutdown()
        if self.controller is not None:
            self.controller.close()
