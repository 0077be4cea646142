"""Feedback control: PID controller, WCET model, the one control loop."""

from repro.control.controller import (
    Admission,
    AdmissionDecision,
    ControlConfig,
    Controller,
    ReplayStep,
    TrajectoryRecorder,
    TrajectorySample,
    load_trajectory,
    replay_trajectory,
)
from repro.control.pid import PAPER_GAINS, PIDController, PIDGains
from repro.control.rto import Allocation, JobDemand, RTOAllocator
from repro.control.wcet import WCETModel

__all__ = [
    "Admission",
    "AdmissionDecision",
    "Allocation",
    "ControlConfig",
    "Controller",
    "JobDemand",
    "PAPER_GAINS",
    "PIDController",
    "PIDGains",
    "ReplayStep",
    "RTOAllocator",
    "TrajectoryRecorder",
    "TrajectorySample",
    "WCETModel",
    "load_trajectory",
    "replay_trajectory",
]
