"""Worst-Case Execution Time model (paper Section IV-C4, Eq. (10)-(12)).

The control loop predicts how long a TD job will take given its data
volume, its priority share, and the worker pool size:

    ET_task  = TI + D * theta_1                       (Eq. 10)
    WCET_job = TI * T_u + D * theta_2 * sum(T)/(WK * T_u)   (Eq. 11)
    WCET_job ~= D * theta_2 / (WK * P_u)              (Eq. 12, small T_u)

where ``D`` is the job's data in the interval, ``WK`` the number of
workers and ``P_u`` the job's priority share.  The control loop
(:mod:`repro.control.controller`) projects a job's finish time with the
simplified Eq. (12), so ``theta_2`` is the model's one parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "WCETModel",
]


@dataclass(frozen=True, slots=True)
class WCETModel:
    """Parameters of the execution-time prediction.

    Attributes:
        theta2: Per-data-unit cost in the aggregated WCET formula.
    """

    theta2: float = 1e-3

    def __post_init__(self) -> None:
        if self.theta2 < 0:
            raise ValueError("WCET parameters must be >= 0")

    def job_wcet_simplified(
        self, data_size: float, priority: float, n_workers: int
    ) -> float:
        """Eq. (12): WCET with initialization overhead dropped."""
        if not 0.0 < priority <= 1.0:
            raise ValueError(f"priority share must be in (0, 1], got {priority}")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        return data_size * self.theta2 / (n_workers * priority)
