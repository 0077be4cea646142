"""Feedback control: PID controller, WCET model, the one control loop."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.control.controller": (
            "Admission",
            "AdmissionDecision",
            "Controller",
            "ReplayStep",
            "TrajectoryRecorder",
            "TrajectorySample",
            "load_trajectory",
            "replay_trajectory",
        ),
        "repro.control.pid": (
            "ControlConfig",
            "PAPER_GAINS",
            "PIDController",
            "PIDGains",
        ),
        "repro.control.rto": ("Allocation", "JobDemand", "RTOAllocator"),
        "repro.control.wcet": ("WCETModel",),
    },
)
