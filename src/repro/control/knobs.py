"""Control knobs: the actuators the PID signals drive (Section IV-C2).

- :class:`LocalControlKnob` (LCK): one per TD job; maps a control signal
  into a multiplicative priority adjustment, bounded so no job can
  starve the pool.
- :class:`GlobalControlKnob` (GCK): one per system; aggregates per-job
  pressure into a worker-pool size target.

The paper tunes the knob aggressiveness with heuristic constants
``theta_3`` and ``theta_4`` (reported as 2 and 1.5); they are the
module constants :data:`THETA3` and :data:`THETA4`.
"""

from __future__ import annotations

__all__ = [
    "GlobalControlKnob",
    "LocalControlKnob",
]

#: LCK gain: how strongly a control signal scales priority (paper 2).
THETA3 = 2.0

#: GCK gain: how strongly aggregate lateness adds workers (paper 1.5).
THETA4 = 1.5

#: Priority floor, so starved jobs keep making progress.
MIN_PRIORITY = 0.05

#: Priority ceiling, so one job cannot monopolize dispatch.
MAX_PRIORITY = 100.0

#: Consecutive all-comfortable samples before the GCK sheds a worker.
SHRINK_PATIENCE = 5


class LocalControlKnob:
    """Per-job priority actuator.

    A *negative* PID signal means the job is projected to miss its
    deadline (measured time above setpoint), so priority must increase;
    a positive signal relaxes it.  The update is multiplicative in the
    signal's magnitude, clamped into ``[MIN_PRIORITY, MAX_PRIORITY]``.
    """

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.priority = 1.0

    def apply(self, control_signal: float, reference: float = 1.0) -> float:
        """Update priority from a control signal; returns the new value.

        Args:
            control_signal: PID output, in seconds of (projected) slack
                (positive) or lateness (negative).
            reference: Time scale that normalizes the signal (typically
                the deadline), so tuning is deadline-independent.
        """
        if reference <= 0:
            raise ValueError("reference must be > 0")
        pressure = -control_signal / reference  # >0 when late
        factor = 1.0 + THETA3 * pressure
        # A job can shrink at most 50% per update but can grow by the
        # full theta3-scaled pressure (reacting to lateness fast matters
        # more than decaying politely).
        factor = max(factor, 0.5)
        self.priority = float(
            min(max(self.priority * factor, MIN_PRIORITY), MAX_PRIORITY)
        )
        return self.priority


class GlobalControlKnob:
    """Worker-pool size actuator.

    Aggregates the per-job pressures: when the total projected lateness
    across jobs is positive the pool grows proportionally (theta_4);
    shrinking is deliberately sluggish — only after ``SHRINK_PATIENCE``
    consecutive all-comfortable samples, one worker at a time — because
    scaling up is urgent while scaling down too eagerly makes the pool
    thrash on bursty traffic and miss the next spike's deadlines.
    """

    def __init__(self) -> None:
        self._comfortable_streak = 0

    def target_size(
        self,
        current_size: int,
        control_signals: dict[str, float],
        reference: float = 1.0,
    ) -> int:
        """Compute the new worker-pool target.

        Args:
            current_size: Current worker count.
            control_signals: PID output per job (negative = late).
            reference: Normalizing time scale (typical deadline).
        """
        if current_size < 0:
            raise ValueError("current_size must be >= 0")
        if reference <= 0:
            raise ValueError("reference must be > 0")
        if not control_signals:
            return current_size
        lateness = sum(
            max(0.0, -signal) / reference for signal in control_signals.values()
        )
        if lateness > 0:
            self._comfortable_streak = 0
            grow = max(1, round(THETA4 * lateness))
            return current_size + grow
        slack = min(control_signals.values()) / reference
        if slack > 0.5 and current_size > 1:
            self._comfortable_streak += 1
            if self._comfortable_streak >= SHRINK_PATIENCE:
                self._comfortable_streak = 0
                return current_size - 1
        else:
            self._comfortable_streak = 0
        return current_size
