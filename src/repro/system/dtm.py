"""Dynamic Task Manager: the control plane of SSTD (Section IV-B/C).

The DTM closes the feedback loop of Figure 3 in the paper:

1. every ``sample_period`` (virtual) seconds it *measures* each active
   TD job's execution time and projects its finish time with the WCET
   model;
2. a per-job PID controller turns (deadline - projection) into a control
   signal;
3. the Local Control Knob maps each signal to a new job priority on the
   Work Queue master;
4. the Global Control Knob aggregates all signals into a worker-pool
   size target for the elastic pool.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.simulation import PeriodicTask, Simulator
from repro.control.knobs import GlobalControlKnob, LocalControlKnob
from repro.control.pid import PAPER_GAINS, PIDController, PIDGains
from repro.control.wcet import WCETModel
from repro.obs import Observability
from repro.system.jobs import TDJob
from repro.workqueue.master import WorkQueueMaster
from repro.workqueue.pool import ElasticWorkerPool

__all__ = [
    "DTMConfig",
    "DynamicTaskManager",
]


@dataclass(frozen=True, slots=True)
class DTMConfig:
    """Control-plane configuration.

    Attributes:
        sample_period: Controller sampling period (paper uses 1 second).
        pid_gains: Per-job PID coefficients.
        elastic: Allow the GCK to resize the worker pool; when False the
            pool size is fixed and only priorities adapt.
    """

    sample_period: float = 1.0
    pid_gains: PIDGains = PAPER_GAINS
    elastic: bool = True

    def __post_init__(self) -> None:
        if self.sample_period <= 0:
            raise ValueError("sample_period must be > 0")


class DynamicTaskManager:
    """Deadline-driven controller wired to a Work Queue master."""

    def __init__(
        self,
        simulator: Simulator,
        master: WorkQueueMaster,
        pool: ElasticWorkerPool,
        wcet: WCETModel,
        config: DTMConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.simulator = simulator
        self.master = master
        self.pool = pool
        self.wcet = wcet
        self.config = config or DTMConfig()
        # Control plane and data plane share one recorder by default, so
        # controller samples land on the same (virtual) clockline as
        # dispatch events.
        self.obs = obs if obs is not None else master.obs
        self.jobs: dict[str, TDJob] = {}
        self.controllers: dict[str, PIDController] = {}
        self.lcks: dict[str, LocalControlKnob] = {}
        self.gck = GlobalControlKnob()
        self.signal_log: list[dict[str, float]] = []
        self.pool_size_log: list[tuple[float, int]] = []
        self._sampler: PeriodicTask | None = None

    # ------------------------------------------------------------------
    # Job registration
    # ------------------------------------------------------------------
    def register_job(self, job: TDJob) -> None:
        if job.job_id in self.jobs:
            raise ValueError(f"job {job.job_id!r} already registered")
        self.jobs[job.job_id] = job
        self.controllers[job.job_id] = PIDController(
            gains=self.config.pid_gains,
            sample_time=self.config.sample_period,
            obs=self.obs,
            name=f"pid:{job.job_id}",
        )
        self.lcks[job.job_id] = LocalControlKnob(job.job_id)

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic sampler (idempotent)."""
        if self._sampler is None:
            self._sampler = PeriodicTask(
                self.simulator, self.config.sample_period, self.sample_once
            )

    def stop(self) -> None:
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None

    def _projected_time(self, job: TDJob) -> float:
        """Elapsed time so far plus the WCET prediction for the remaining
        work."""
        account = self.master.jobs.get(job.job_id)
        if account is None:
            return 0.0
        elapsed = self.master.job_elapsed(job.job_id)
        if account.pending == 0:
            return elapsed
        priority_share = self._priority_share(job.job_id)
        workers = max(1, self.pool.size)
        remaining_data = sum(
            task.data_size
            for task in self.master.pending
            if task.job_id == job.job_id
        )
        remaining = self.wcet.job_wcet_simplified(
            max(remaining_data, 1.0), priority_share, workers
        )
        return elapsed + remaining

    def _priority_share(self, job_id: str) -> float:
        total = sum(
            self.master.priority_of(other) for other in self.jobs
        )
        if total <= 0:
            return 1.0 / max(1, len(self.jobs))
        share = self.master.priority_of(job_id) / total
        return min(max(share, 1e-6), 1.0)

    def sample_once(self) -> None:
        """One controller sample: measure, PID, actuate both knobs."""
        signals: dict[str, float] = {}
        for job_id, job in self.jobs.items():
            account = self.master.jobs.get(job_id)
            if account is None or account.pending == 0:
                continue
            projected = self._projected_time(job)
            error = job.deadline - projected
            signal = self.controllers[job_id].update(
                error, dt=self.config.sample_period
            )
            signals[job_id] = signal
            priority = self.lcks[job_id].apply(signal, reference=job.deadline)
            self.master.set_priority(job_id, priority)

        if signals:
            self.signal_log.append(dict(signals))
            if self.config.elastic:
                reference = min(job.deadline for job in self.jobs.values())
                target = self.gck.target_size(
                    self.pool.size, signals, reference=reference
                )
                if target != self.pool.size:
                    self.pool.scale_to(target)
                    if self.obs.enabled:
                        self.obs.tracer.instant(
                            "control.scale",
                            track="control",
                            target=target,
                        )
            self.pool_size_log.append((self.simulator.now, self.pool.size))
        if self.obs.enabled:
            self.obs.metrics.inc("control.samples")
            self.obs.metrics.set_gauge("control.pool_size", float(self.pool.size))
            self.obs.tracer.instant(
                "control.update",
                track="control",
                jobs=len(signals),
                pool_size=self.pool.size,
            )
