"""The SSTD control loop, on either clock (paper Section IV-C).

One :class:`Controller` per run closes the loop of the paper's Figure 3.
It holds one PID controller (Eq. 9) per key on ``deadline - time``:

- on the simulated clock the key is a claim's TD job and the time its
  WCET-projected execution time (Eq. 12), sampled every
  ``sample_period`` virtual seconds (:meth:`Controller.start`);
- on a real executor the key is the interval and the time its measured
  wall time (:meth:`Controller.settle`).

The PID outputs drive three actuators:

- the Local Control Knob (LCK, :func:`local_knob`): a job's priority on
  the Work Queue master.  Its only state is the master's own priority
  table;
- the Global Control Knob (GCK): the worker-pool size target of an
  elastic pool;
- admission (:class:`Admission`): which of a refit round's due claims
  run now, which wait for the next tick and which are shed to their
  next scheduled refit.  "Process now or defer" is one more decision of
  the same controlled-sensing loop (Bhatt & Krishnamurthy).

Every PID update can be recorded (:class:`TrajectoryRecorder`) and
replayed offline (:func:`replay_trajectory`).
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Sequence

from repro.control.pid import ControlConfig, PIDController, PIDGains
from repro.control.wcet import WCETModel
from repro.obs import Observability, percentile

if TYPE_CHECKING:
    from repro.cluster.simulation import PeriodicTask
    from repro.workqueue.master import WorkQueueMaster
    from repro.workqueue.pool import ElasticWorkerPool

__all__ = [
    "Admission",
    "AdmissionDecision",
    "ControlConfig",
    "Controller",
    "ReplayStep",
    "SHED_AFTER",
    "TrajectoryRecorder",
    "TrajectorySample",
    "load_trajectory",
    "local_knob",
    "replay_trajectory",
]

# ----------------------------------------------------------------------
# Knob constants (the paper's theta_3 and theta_4 are 2 and 1.5)
# ----------------------------------------------------------------------
#: LCK gain: how strongly a control signal scales priority.
THETA3 = 2.0

#: GCK gain: how strongly aggregate lateness adds workers.
THETA4 = 1.5

#: Priority floor, so starved jobs keep making progress.
MIN_PRIORITY = 0.05

#: Priority ceiling, so one job cannot monopolize dispatch.
MAX_PRIORITY = 100.0

#: Consecutive all-comfortable samples before the GCK sheds a worker.
SHRINK_PATIENCE = 5

# ----------------------------------------------------------------------
# Admission constants
# ----------------------------------------------------------------------
#: Consecutive deferrals after which an over-budget claim is shed: its
#: refit waits for its next scheduled one.
SHED_AFTER = 3

#: Floor on the per-interval admission budget; keeps the pipeline moving
#: even when the cost estimate explodes.
MIN_ADMIT = 1

#: Fraction of ``workers x deadline`` treated as usable capacity.  The
#: margin absorbs dispatch overhead and cost-estimate error; budgeting at
#: 1.0 steers execution onto the deadline and loses the coin-flip
#: intervals.
UTILIZATION_TARGET = 0.7

#: Clamps on the PID-driven budget multiplier.  ``UTILIZATION_TARGET *
#: SCALE_CEILING <= 1``, so positive headroom never lets the budget plan
#: past the deadline.
SCALE_FLOOR = 0.25
SCALE_CEILING = 1.25

#: Recent per-claim cost samples kept for the p95 estimate.
COST_WINDOW = 256


def local_knob(priority: float, signal: float, reference: float) -> float:
    """The LCK: a job's next priority from its current one and a signal.

    A *negative* PID signal means the job is projected to miss its
    deadline, so its priority rises; a positive one relaxes it.  The
    step is multiplicative in the signal normalized by ``reference``
    (the deadline), clamped into ``[MIN_PRIORITY, MAX_PRIORITY]``.  A
    priority can shrink at most 50 % per update but grow by the full
    theta_3-scaled pressure: reacting to lateness fast matters more than
    decaying politely.
    """
    pressure = -signal / reference  # > 0 when late
    factor = max(1.0 + THETA3 * pressure, 0.5)
    return float(min(max(priority * factor, MIN_PRIORITY), MAX_PRIORITY))


# ----------------------------------------------------------------------
# Trajectory recording and replay
# ----------------------------------------------------------------------
class TrajectoryRecorder:
    """Appends one JSONL line per PID update to a trajectory file.

    Values are serialized at full precision (``json`` round-trips Python
    floats exactly), because the replay contract is *bit-identical*
    outputs at the recorded gains — the rounded values in the trace
    instants are for humans, these are for the replayer.

    Use as a context manager, or :meth:`close` explicitly.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = self.path.open("w", encoding="utf-8")
        self.recorded = 0

    def record(
        self,
        controller: PIDController,
        error: float,
        output: float,
        dt: float,
    ) -> None:
        """Append one sample; no-op after :meth:`close`."""
        if self._handle is None:
            return
        sample = {
            "controller": controller.name,
            "error": error,
            "dt": dt,
            "output": output,
            "integral": controller.integral,
            "gains": dataclasses.asdict(controller.gains),
            "sample_time": controller.sample_time,
        }
        self._handle.write(
            json.dumps(sample, sort_keys=True, separators=(",", ":")) + "\n"
        )
        self.recorded += 1

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TrajectoryRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclasses.dataclass(frozen=True, slots=True)
class TrajectorySample:
    """One recorded PID update with its controller configuration."""

    controller: str
    error: float
    dt: float
    output: float
    integral: float
    gains: PIDGains
    sample_time: float


def load_trajectory(path: Path | str) -> list[TrajectorySample]:
    """Parse a recorded trajectory JSONL file, preserving order."""
    samples: list[TrajectorySample] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                raw["gains"] = PIDGains(**raw["gains"])
                samples.append(TrajectorySample(**raw))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{line_no}: malformed trajectory sample: {exc}"
                ) from exc
    return samples


@dataclasses.dataclass(frozen=True, slots=True)
class ReplayStep:
    """One replayed sample: recorded output next to the replayed one."""

    controller: str
    index: int
    error: float
    dt: float
    recorded_output: float
    replayed_output: float

    @property
    def matches(self) -> bool:
        """Exact (bitwise) equality of recorded and replayed output."""
        return self.recorded_output == self.replayed_output

    @property
    def divergence(self) -> float:
        return abs(self.replayed_output - self.recorded_output)


def replay_trajectory(
    samples: Sequence[TrajectorySample], gains: PIDGains | None = None
) -> list[ReplayStep]:
    """Re-run a recorded error sequence through fresh controllers.

    One controller is rebuilt per distinct ``controller`` name, seeded
    with the recorded configuration unless ``gains`` overrides its
    gains.  Without the override the replayed outputs are bit-identical
    to the recording; with it the divergence *is* the answer to "what
    would this tuning have done?".
    """
    controllers: dict[str, PIDController] = {}
    steps: list[ReplayStep] = []
    for index, sample in enumerate(samples):
        pid = controllers.get(sample.controller)
        if pid is None:
            pid = PIDController(
                gains=gains if gains is not None else sample.gains,
                sample_time=sample.sample_time,
            )
            controllers[sample.controller] = pid
        replayed = pid.update(sample.error, dt=sample.dt)
        steps.append(
            ReplayStep(
                controller=sample.controller,
                index=index,
                error=sample.error,
                dt=sample.dt,
                recorded_output=sample.output,
                replayed_output=replayed,
            )
        )
    return steps


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Partition of one refit round's due claims."""

    admitted: tuple[str, ...]
    deferred: tuple[str, ...]
    shed: tuple[str, ...]
    budget: int
    scale: float


class Admission:
    """Chooses which due claims refit now, per refit round.

    The capacity budget is ``lanes x deadline x UTILIZATION_TARGET x
    scale / p95_claim_cost`` claims per interval, which the interval's
    refit rounds share.  ``scale`` is the PID headroom signal normalized
    by the deadline (positive headroom — the last interval finished
    under deadline — loosens the budget; lateness tightens it).
    ``lanes`` is the *measured* parallelism, ``busy_time /
    execution_time`` smoothed over intervals and capped at the nominal
    worker count: on an oversubscribed box two workers sharing one core
    deliver about one lane, and budgeting for two would admit twice what
    the deadline can absorb.  The p95 is exact (sample-level,
    nearest-rank) over the last :data:`COST_WINDOW` per-claim costs.

    Oldest deferred claims are admitted first.  Overflow that has been
    deferred :data:`SHED_AFTER` times is shed instead: under sustained
    overload, forcing stale work back in would only re-blow the
    deadline, so loss bounds latency and the budget is never exceeded.
    """

    def __init__(self, deadline: float, obs: Observability) -> None:
        self.deadline = deadline
        self.obs = obs
        self.lanes = 0.0  # 0 until the first interval is measured
        self._ages: dict[str, int] = {}  # consecutive deferrals per claim
        self._costs: deque = deque(maxlen=COST_WINDOW)
        #: Claims admitted in the current interval's rounds so far.
        self._spent = 0

    def p95_claim_cost(self) -> float:
        """Exact nearest-rank p95 of recent per-claim costs (0.0 empty)."""
        return percentile(list(self._costs), 95.0)

    def plan(
        self, claim_ids: Sequence[str], n_workers: int, headroom: float
    ) -> AdmissionDecision:
        """Partition ``claim_ids`` into admit/defer/shed for this round.

        Without cost samples yet, everything is admitted.
        """
        lanes = float(max(1, n_workers))
        if self.lanes > 0:
            lanes = min(lanes, max(1.0, self.lanes))
        cost = self.p95_claim_cost()
        scale = 1.0
        if cost <= 0:
            budget = self._spent + len(claim_ids)
        else:
            scale = min(
                max(1.0 + headroom / self.deadline, SCALE_FLOOR),
                SCALE_CEILING,
            )
            capacity = (
                lanes * self.deadline * UTILIZATION_TARGET * scale / cost
            )
            budget = max(MIN_ADMIT, int(capacity))

        # Oldest deferred claims first, then arrival order; ties broken
        # by claim id for determinism.
        ordered = sorted(claim_ids, key=lambda c: (-self._ages.get(c, 0), c))
        room = max(0, budget - self._spent)
        admitted, overflow = ordered[:room], ordered[room:]
        shed = [c for c in overflow if self._ages.get(c, 0) >= SHED_AFTER]
        deferred = [c for c in overflow if self._ages.get(c, 0) < SHED_AFTER]

        for claim_id in admitted + shed:
            self._ages.pop(claim_id, None)
        for claim_id in deferred:
            self._ages[claim_id] = self._ages.get(claim_id, 0) + 1
        self._spent += len(admitted)

        if self.obs.enabled:
            self.obs.metrics.inc("admission.admitted", len(admitted))
            if deferred:
                self.obs.metrics.inc("admission.deferred", len(deferred))
            if shed:
                self.obs.metrics.inc("admission.shed", len(shed))
            if deferred or shed:
                self.obs.tracer.instant(
                    "admission.defer",
                    track="control",
                    n_admitted=len(admitted),
                    n_deferred=len(deferred),
                    n_shed=len(shed),
                    budget=budget,
                    scale=round(scale, 6),
                )
        return AdmissionDecision(
            admitted=tuple(admitted),
            deferred=tuple(deferred),
            shed=tuple(shed),
            budget=budget,
            scale=scale,
        )

    def observe(
        self,
        execution_time: float,
        claim_costs: Iterable[float],
        busy_time: float,
    ) -> None:
        """Take one interval's measurements and open the next budget."""
        for cost in claim_costs:
            if cost >= 0:
                self._costs.append(float(cost))
        if busy_time > 0 and execution_time > 0:
            lanes = busy_time / execution_time
            if self.lanes > 0:
                lanes = 0.5 * self.lanes + 0.5 * lanes
            self.lanes = lanes
        self._spent = 0


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------
class Controller:
    """One run's control loop: the PIDs, the three actuators, the record.

    On the simulated clock :meth:`start` arms a sampler that runs
    :meth:`sample` every ``sample_period`` virtual seconds.  On a real
    executor the interval replay asks :meth:`admit` before each refit
    round and calls :meth:`settle` when an interval ends.  Owns the
    optional trajectory recorder; call :meth:`close` (or use ``with``)
    when the run ends.

    Args:
        deadline: Soft deadline of a TD job's batch (simulated clock) or
            of an interval (real clock), in seconds.
        config: Gains, sample period and trajectory path.
        obs: Recorder of the ``pid.*``, ``control.*`` and
            ``admission.*`` metrics and instants.
    """

    def __init__(
        self,
        deadline: float,
        config: ControlConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        if deadline <= 0:
            raise ValueError("deadline must be > 0")
        self.deadline = deadline
        self.config = config or ControlConfig()
        self.obs = obs if obs is not None else Observability.disabled()
        self.recorder = (  # closed in close()
            TrajectoryRecorder(self.config.trajectory_path)
            if self.config.trajectory_path
            else None
        )
        self.pids: dict[str, PIDController] = {}
        self.admission = Admission(deadline, self.obs)
        #: Latest interval PID output: seconds of slack, < 0 when late.
        self.headroom = 0.0
        #: Pool size after every sample that saw an active job.
        self.pool_sizes: list[int] = []
        self._shrink_streak = 0
        self._sampler: PeriodicTask | None = None

    def update(self, key: str, measured: float) -> float:
        """One PID step of ``key`` on ``deadline - measured``."""
        pid = self.pids.get(key)
        if pid is None:
            pid = PIDController(
                gains=self.config.gains,
                sample_time=self.config.sample_period,
                obs=self.obs,
                name=f"pid:{key}",
                recorder=self.recorder,
            )
            self.pids[key] = pid
        return pid.update(self.deadline - measured)

    # ------------------------------------------------------------------
    # Simulated clock: per-job PIDs on WCET projections
    # ------------------------------------------------------------------
    def start(
        self,
        master: WorkQueueMaster,
        pool: ElasticWorkerPool,
        wcet: WCETModel,
        elastic: bool,
    ) -> None:
        """Arm the sampler on the master's virtual clock.

        ``elastic`` lets the GCK resize the pool; otherwise only the
        priorities adapt.
        """
        from repro.cluster.simulation import PeriodicTask

        self._sampler = PeriodicTask(
            master.simulator,
            self.config.sample_period,
            lambda: self.sample(master, pool, wcet, elastic),
        )

    def stop(self) -> None:
        """Disarm the sampler, if armed."""
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None

    def sample(
        self,
        master: WorkQueueMaster,
        pool: ElasticWorkerPool,
        wcet: WCETModel,
        elastic: bool,
    ) -> None:
        """One sample: project, PID, and actuate the LCK and the GCK.

        Jobs are visited in submission order; each one's new priority is
        set before the next job's projection reads the priority shares.
        """
        signals: dict[str, float] = {}
        for job_id, account in master.tasks.jobs.items():
            if account.pending == 0:
                continue
            remaining = sum(
                task.data_size
                for task in master.tasks.pending
                if task.job_id == job_id
            )
            projected = master.job_elapsed(job_id) + wcet.job_wcet_simplified(
                max(remaining, 1.0),
                _priority_share(master, job_id),
                max(1, pool.size),
            )
            signal = self.update(job_id, projected)
            signals[job_id] = signal
            master.set_priority(
                job_id,
                local_knob(master.priority_of(job_id), signal, self.deadline),
            )

        if signals:
            if elastic:
                target = self.global_knob(pool.size, signals)
                if target != pool.size:
                    pool.scale_to(target)
                    if self.obs.enabled:
                        self.obs.tracer.instant(
                            "control.scale", track="control", target=target
                        )
            self.pool_sizes.append(pool.size)
        if self.obs.enabled:
            self.obs.metrics.inc("control.samples")
            self.obs.metrics.set_gauge("control.pool_size", float(pool.size))
            self.obs.tracer.instant(
                "control.update",
                track="control",
                jobs=len(signals),
                pool_size=pool.size,
            )

    def global_knob(self, current_size: int, signals: dict[str, float]) -> int:
        """The GCK: the pool-size target from every job's signal.

        Total projected lateness grows the pool proportionally
        (theta_4).  Shrinking is deliberately sluggish — one worker after
        :data:`SHRINK_PATIENCE` consecutive all-comfortable samples —
        because scaling up is urgent while scaling down too eagerly
        makes the pool thrash on bursty traffic.
        """
        lateness = sum(
            max(0.0, -signal) / self.deadline for signal in signals.values()
        )
        if lateness > 0:
            self._shrink_streak = 0
            return current_size + max(1, round(THETA4 * lateness))
        slack = min(signals.values()) / self.deadline
        if slack > 0.5 and current_size > 1:
            self._shrink_streak += 1
            if self._shrink_streak >= SHRINK_PATIENCE:
                self._shrink_streak = 0
                return current_size - 1
        else:
            self._shrink_streak = 0
        return current_size

    # ------------------------------------------------------------------
    # Real clock: one interval PID driving admission
    # ------------------------------------------------------------------
    def admit(
        self, claim_ids: Sequence[str], n_workers: int
    ) -> AdmissionDecision:
        """Admission decision for one refit round's due claims."""
        return self.admission.plan(claim_ids, n_workers, self.headroom)

    def settle(
        self,
        execution_time: float,
        claim_costs: Iterable[float] = (),
        busy_time: float = 0.0,
    ) -> float:
        """End an interval; returns the new headroom.

        Args:
            execution_time: Wall time the interval took.
            claim_costs: Per-claim refit cost samples in seconds.
            busy_time: Summed task wall time across all workers;
                ``busy_time / execution_time`` is the measured
                parallelism.
        """
        self.admission.observe(execution_time, claim_costs, busy_time)
        self.headroom = self.update("interval", execution_time)
        return self.headroom

    def close(self) -> None:
        """Stop sampling and release the trajectory recorder (idempotent)."""
        self.stop()
        if self.recorder is not None:
            self.recorder.close()

    def __enter__(self) -> "Controller":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _priority_share(master: WorkQueueMaster, job_id: str) -> float:
    """``job_id``'s share of the summed priorities of every job.

    Priorities are positive and the sum includes the job's own, so the
    share is in (0, 1]; the floor keeps Eq. (12) finite.
    """
    total = sum(master.priority_of(other) for other in master.tasks.jobs)
    return max(master.priority_of(job_id) / total, 1e-6)
