"""Feedback control: PID controller, WCET model, control knobs, feedback loop."""

from repro.control.feedback import (
    AdmissionController,
    AdmissionDecision,
    FeedbackConfig,
    IntervalFeedbackLoop,
    ReplayStep,
    TrajectoryRecorder,
    TrajectorySample,
    load_trajectory,
    replay_trajectory,
)
from repro.control.knobs import GlobalControlKnob, LocalControlKnob
from repro.control.pid import PAPER_GAINS, PIDController, PIDGains
from repro.control.rto import Allocation, JobDemand, RTOAllocator
from repro.control.wcet import WCETModel

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "Allocation",
    "FeedbackConfig",
    "GlobalControlKnob",
    "IntervalFeedbackLoop",
    "JobDemand",
    "LocalControlKnob",
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
