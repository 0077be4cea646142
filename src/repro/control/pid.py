"""PID feedback controller (paper Section IV-C3, Eq. (9)).

    y(k) = Kp * e(k) + Ki * sum(e) * dt + Kd * (e(k) - e(k-1)) / dt

The SSTD deployment runs one controller per TD job: the *setpoint* is
the job's deadline, the *process variable* is its (projected) execution
time, and the control signal drives the Local Control Knob (priority)
and, aggregated across jobs, the Global Control Knob (worker count).

The implementation adds the standard practical guard the paper's
production system would need anyway: an integral clamp (anti-windup).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import Observability

__all__ = [
    "ControlConfig",
    "INTEGRAL_LIMIT",
    "PAPER_GAINS",
    "PID_BUCKETS",
    "PIDController",
    "PIDGains",
]

#: Histogram bounds for controller error/output samples.  Symmetric
#: around zero: the sign of (deadline - projection) is the signal.
PID_BUCKETS = (-60.0, -10.0, -1.0, 0.0, 1.0, 10.0, 60.0)

#: Clamp on |integral| (anti-windup).
INTEGRAL_LIMIT = 100.0


@dataclass(frozen=True, slots=True)
class PIDGains:
    """Controller coefficients; the paper tunes these to (1.2, 0.3, 0.2)."""

    kp: float = 1.2
    ki: float = 0.3
    kd: float = 0.2

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("PID gains must be >= 0")


#: The coefficients the paper reports after its tuning sweep (Section V-A3).
PAPER_GAINS = PIDGains(kp=1.2, ki=0.3, kd=0.2)


@dataclass(frozen=True, slots=True)
class ControlConfig:
    """Configuration of the control loop, on every backend.

    It lives here, not with :class:`repro.control.controller.Controller`,
    so a run with control disabled never loads the controller.

    Attributes:
        gains: PID coefficients of every controller.
        sample_period: Controller sampling period in seconds (the paper
            samples at 1 Hz): the virtual-clock sampler's period and the
            ``dt`` of every PID update.
        trajectory_path: When set, every PID update is recorded there
            for offline replay (``repro-cli replay-controller``).
    """

    gains: PIDGains = PAPER_GAINS
    sample_period: float = 1.0
    trajectory_path: str | None = None

    def __post_init__(self) -> None:
        if self.sample_period <= 0:
            raise ValueError("sample_period must be > 0")


class PIDController:
    """Discrete PID controller with anti-windup.

    Args:
        gains: Proportional / integral / derivative coefficients.
        sample_time: Nominal spacing of updates in seconds (the paper
            samples at 1 Hz).
        obs: Tracing/metrics recorder; each update samples the error
            and output into ``pid.error`` / ``pid.output`` histograms.
            Defaults to a disabled recorder (standalone use).
        name: Label distinguishing this controller's trace events (the
            control loop runs one controller per job).
        recorder: Optional trajectory recorder
            (:class:`repro.control.controller.TrajectoryRecorder`); every
            update is appended at full float precision so the sequence
            can be replayed bit-identically offline.  Typed loosely to
            keep this module free of a controller import.
    """

    def __init__(
        self,
        gains: PIDGains = PAPER_GAINS,
        sample_time: float = 1.0,
        obs: Observability | None = None,
        name: str = "pid",
        recorder: object | None = None,
    ) -> None:
        if sample_time <= 0:
            raise ValueError("sample_time must be > 0")
        self.gains = gains
        self.sample_time = sample_time
        self.obs = obs if obs is not None else Observability.disabled()
        self.name = name
        self.recorder = recorder
        self.reset()

    def reset(self) -> None:
        self._integral = 0.0
        self._last_error: float | None = None
        self.last_output = 0.0

    def update(self, error: float, dt: float | None = None) -> float:
        """Advance the controller one sample; returns the control signal.

        Args:
            error: Setpoint minus measurement.  Positive means the
                measured execution time is still below the deadline.
            dt: Actual elapsed time since the previous sample; defaults
                to the nominal ``sample_time``.
        """
        if dt is None:
            dt = self.sample_time
        if dt <= 0:
            raise ValueError("dt must be > 0")

        self._integral = min(
            max(self._integral + error * dt, -INTEGRAL_LIMIT), INTEGRAL_LIMIT
        )

        derivative = 0.0
        if self._last_error is not None:
            derivative = (error - self._last_error) / dt
        self._last_error = error

        output = (
            self.gains.kp * error
            + self.gains.ki * self._integral
            + self.gains.kd * derivative
        )
        self.last_output = output
        if self.recorder is not None:
            self.recorder.record(self, error=error, output=output, dt=dt)
        if self.obs.enabled:
            self.obs.metrics.observe("pid.error", error, bounds=PID_BUCKETS)
            self.obs.metrics.observe("pid.output", output, bounds=PID_BUCKETS)
            self.obs.tracer.instant(
                "pid.update",
                track="control",
                controller=self.name,
                error=round(error, 6),
                output=round(output, 6),
            )
        return output

    @property
    def integral(self) -> float:
        return self._integral
