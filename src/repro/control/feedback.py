"""Closed-loop feedback: controller trajectories and admission control.

The paper's control loop (Section IV-C) is open-loop about its own
behaviour: the PID steers priorities and pool size, but nothing records
*what the controller saw and did*, so a bad gain choice can only be
diagnosed by re-running the whole system.  This module closes that gap
and adds the admission-control half of controlled sensing (Krishnamurthy
et al. — observing everything is not free, so choose what to process
now and what to defer):

- :class:`TrajectoryRecorder` writes every ``pid.update`` — error,
  ``dt``, output, integral state, and the full controller configuration
  — to a JSONL file at full float precision.
- :func:`replay_trajectory` re-runs a recorded trajectory through a
  fresh :class:`~repro.control.pid.PIDController` offline.  At the
  recorded gains the replayed outputs are *bit-identical* (the
  controller is a deterministic function of its error/dt sequence);
  with modified gains the divergence shows what the alternative tuning
  would have done against the exact same disturbance sequence —
  counterfactual tuning without touching the live system.
- :class:`AdmissionController` partitions each refit round's due claims
  into *admit* / *defer* / *shed* sets from a latency-derived capacity
  budget per interval, scaled by the PID's headroom signal.  Deferred
  claims age and are force-admitted after :data:`MAX_DEFER` rounds (no
  starvation); shedding is opt-in and bounded.
- :class:`IntervalFeedbackLoop` bundles the three for the real-backend
  interval replay in :mod:`repro.system.sstd_system`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence

from repro.control.pid import PIDController, PIDGains
from repro.obs import Observability, percentile

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "FeedbackConfig",
    "IntervalFeedbackLoop",
    "ReplayStep",
    "TrajectoryRecorder",
    "TrajectorySample",
    "load_trajectory",
    "replay_trajectory",
]


# ----------------------------------------------------------------------
# Trajectory recording
# ----------------------------------------------------------------------
class TrajectoryRecorder:
    """Appends one JSONL line per ``pid.update`` to a trajectory file.

    Values are serialized at full precision (``json`` round-trips Python
    floats exactly), because the replay contract is *bit-identical*
    outputs at the recorded gains — the rounded values in the trace
    instants are for humans, these are for the replayer.

    Use as a context manager, or :meth:`close` explicitly; the handle is
    covered by the SSTD014 resource-lifecycle lint rule.
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
            "gains": {
                "kp": controller.gains.kp,
                "ki": controller.gains.ki,
                "kd": controller.gains.kd,
            },
            "sample_time": controller.sample_time,
            "integral_limit": controller.integral_limit,
            "output_limit": controller.output_limit,
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


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    """One recorded ``pid.update`` with its controller configuration."""

    controller: str
    error: float
    dt: float
    output: float
    integral: float
    gains: PIDGains
    sample_time: float
    integral_limit: float
    output_limit: float


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
                samples.append(
                    TrajectorySample(
                        controller=raw["controller"],
                        error=raw["error"],
                        dt=raw["dt"],
                        output=raw["output"],
                        integral=raw["integral"],
                        gains=PIDGains(**raw["gains"]),
                        sample_time=raw["sample_time"],
                        integral_limit=raw["integral_limit"],
                        output_limit=raw["output_limit"],
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{line_no}: malformed trajectory sample: {exc}"
                ) from exc
    return samples


@dataclass(frozen=True, slots=True)
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
                integral_limit=sample.integral_limit,
                output_limit=sample.output_limit,
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
# Deadline-aware admission control
# ----------------------------------------------------------------------
#: Consecutive deferrals after which a claim is force-admitted regardless
#: of budget (starvation bound).  Only applies without ``shed_after``.
MAX_DEFER = 3

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


@dataclass(frozen=True, slots=True)
class AdmissionDecision:
    """Partition of one refit round's due claims."""

    admitted: tuple[str, ...]
    deferred: tuple[str, ...]
    shed: tuple[str, ...]
    budget: int
    scale: float


class AdmissionController:
    """Chooses what to process now versus defer, per refit round.

    The capacity budget is ``workers x deadline x UTILIZATION_TARGET /
    p95_claim_cost`` claims per interval, which its refit rounds share,
    scaled by the PID headroom signal (positive headroom — the last
    interval finished under deadline — loosens the budget; lateness
    tightens it).  Oldest deferred claims are admitted first, and
    overflow staleness is bounded one of two ways:

    - ``shed_after=None``: *latency bound without loss* — a claim
      deferred :data:`MAX_DEFER` times is admitted outside the budget,
      which under sustained overload re-blows the deadline every
      ``MAX_DEFER`` rounds;
    - ``shed_after=k``: *loss bounds latency* — overflow deferred ``k``
      times is shed, its refit skipped until its next scheduled one.
    """

    def __init__(
        self,
        deadline: float,
        shed_after: int | None = None,
        obs: Observability | None = None,
    ) -> None:
        if deadline <= 0:
            raise ValueError("deadline must be > 0")
        if shed_after is not None and shed_after < 1:
            raise ValueError("shed_after must be >= 1")
        self.deadline = deadline
        self.shed_after = shed_after
        self.obs = obs if obs is not None else Observability.disabled()
        self._ages: dict[str, int] = {}  # consecutive deferrals per claim

    def plan(
        self,
        claim_ids: Sequence[str],
        n_workers: float,
        p95_claim_cost: float,
        headroom: float,
        spent: int = 0,
    ) -> AdmissionDecision:
        """Partition ``claim_ids`` into admit/defer/shed for this round.

        Args:
            claim_ids: Due claims (scheduled or previously deferred).
            n_workers: Execution lanes available this round.  May be
                fractional — :class:`IntervalFeedbackLoop` passes the
                *measured* parallelism, not the nominal worker count,
                so an oversubscribed box does not inflate the budget.
            p95_claim_cost: Observed p95 per-claim decode cost in
                seconds; ``<= 0`` means no samples yet — admit all.
            headroom: Latest PID output (seconds of slack; negative
                when the previous interval overran its deadline).
            spent: Claims the interval's earlier rounds admitted.
        """
        scale = 1.0
        if p95_claim_cost <= 0:
            budget = spent + len(claim_ids)
        else:
            scale = min(
                max(1.0 + headroom / self.deadline, SCALE_FLOOR),
                SCALE_CEILING,
            )
            capacity = (
                max(1.0, n_workers)
                * self.deadline
                * UTILIZATION_TARGET
                * scale
                / p95_claim_cost
            )
            budget = max(MIN_ADMIT, int(capacity))

        # Oldest deferred claims first (bounded deferral), then arrival
        # order; ties broken by claim id for determinism.
        ordered = sorted(
            claim_ids, key=lambda c: (-self._ages.get(c, 0), c)
        )
        room = max(0, budget - spent)
        admitted = ordered[:room]
        overflow = ordered[room:]
        deferred: list[str] = []
        shed: list[str] = []
        if self.shed_after is None:
            # Latency bound without loss: overflow that has waited
            # MAX_DEFER rounds is admitted outside the budget.
            forced = [c for c in overflow if self._ages.get(c, 0) >= MAX_DEFER]
            admitted.extend(forced)
            deferred = [c for c in overflow if c not in forced]
        else:
            # Loss bounds latency: under sustained overload forcing
            # stale work back in just re-blows the deadline, so stale
            # overflow is dropped instead (it waits for its next
            # scheduled refit).
            for claim_id in overflow:
                if self._ages.get(claim_id, 0) + 1 > self.shed_after:
                    shed.append(claim_id)
                else:
                    deferred.append(claim_id)

        for claim_id in admitted:
            self._ages.pop(claim_id, None)
        for claim_id in shed:
            self._ages.pop(claim_id, None)
        for claim_id in deferred:
            self._ages[claim_id] = self._ages.get(claim_id, 0) + 1

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


# ----------------------------------------------------------------------
# The assembled loop
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class FeedbackConfig:
    """Configuration of the real-backend interval feedback loop.

    Attributes:
        shed_after: Consecutive deferrals after which a claim is shed
            (see :class:`AdmissionController`); ``None`` (default) never
            sheds and force-admits after :data:`MAX_DEFER` instead.
        trajectory_path: When set, every ``pid.update`` is recorded
            there for offline replay (``repro-cli replay-controller``).
    """

    shed_after: int | None = None
    trajectory_path: str | None = None

    def __post_init__(self) -> None:
        if self.shed_after is not None and self.shed_after < 1:
            raise ValueError("shed_after must be >= 1")


class IntervalFeedbackLoop:
    """PID + admission control over the real-backend interval replay.

    Per refit round the system asks :meth:`plan` which due claims to
    refit now, out of the interval's budget; per interval it calls
    :meth:`observe` with the measured execution time and per-claim cost
    samples, and opens a new budget.  The PID turns
    ``deadline - execution_time`` into the headroom signal the next
    :meth:`plan` uses; costs feed an exact (sample-level, not
    histogram-bucket) nearest-rank p95.

    Owns the optional trajectory recorder; call :meth:`close` (or use
    ``with``) when the run ends.
    """

    def __init__(
        self,
        deadline: float,
        config: FeedbackConfig | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.config = config or FeedbackConfig()
        self.obs = obs if obs is not None else Observability.disabled()
        self.recorder = (  # owns-resource: closed in close()
            TrajectoryRecorder(self.config.trajectory_path)
            if self.config.trajectory_path
            else None
        )
        # The paper's gains and 1 s sample (PIDController's defaults).
        self.pid = PIDController(
            obs=self.obs, name="pid:interval", recorder=self.recorder
        )
        self.admission = AdmissionController(
            deadline, self.config.shed_after, obs=self.obs
        )
        self.deadline = deadline
        self.headroom = 0.0
        self.effective_lanes = 0.0  # 0 until the first interval is measured
        self._costs: deque = deque(maxlen=COST_WINDOW)
        #: Claims admitted in the current interval's rounds so far.
        self._admitted = 0

    def p95_claim_cost(self) -> float:
        """Exact nearest-rank p95 of recent per-claim costs (0.0 empty)."""
        return percentile(list(self._costs), 95.0)

    def plan(self, claim_ids: Sequence[str], n_workers: int) -> AdmissionDecision:
        """Admission decision for this round's due claims.

        The capacity budget uses the *measured* parallelism from
        :meth:`observe` (capped at the nominal ``n_workers``) once it is
        available: on an oversubscribed box two workers sharing one core
        deliver ~1 lane of throughput, and budgeting for two would admit
        twice what the deadline can absorb.
        """
        lanes = float(max(1, n_workers))
        if self.effective_lanes > 0:
            lanes = min(lanes, max(1.0, self.effective_lanes))
        cost = self.p95_claim_cost()
        decision = self.admission.plan(
            claim_ids, lanes, cost, self.headroom, self._admitted
        )
        self._admitted += len(decision.admitted)
        return decision

    def observe(
        self,
        execution_time: float,
        claim_costs: Iterable[float] = (),
        busy_time: float | None = None,
    ) -> float:
        """Feed one interval's measurements; returns the new headroom.

        Args:
            execution_time: Wall time the interval took to drain.
            claim_costs: Per-claim decode cost samples in seconds.
            busy_time: Summed task wall time across all workers for the
                interval; ``busy_time / execution_time`` is the measured
                parallelism (smoothed over intervals with an EMA).
        """
        for cost in claim_costs:
            if cost >= 0:
                self._costs.append(float(cost))
        if busy_time is not None and busy_time > 0 and execution_time > 0:
            lanes = busy_time / execution_time
            if self.effective_lanes > 0:
                lanes = 0.5 * self.effective_lanes + 0.5 * lanes
            self.effective_lanes = lanes
        self.headroom = self.pid.update(self.deadline - execution_time)
        self._admitted = 0
        return self.headroom

    def close(self) -> None:
        """Release the trajectory recorder, if any (idempotent)."""
        if self.recorder is not None:
            self.recorder.close()

    def __enter__(self) -> "IntervalFeedbackLoop":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
