"""Bursty arrival-time models for social sensing traffic.

The paper's third challenge is the *heterogeneity and unpredictability*
of streaming traffic: different events generate wildly different volume,
and volume spikes within an event (e.g. "a spike in the number of tweets
when there's a touchdown").  We model report arrival times as a
non-homogeneous Poisson process whose rate function is

    rate(t) = base(t) * (1 + sum of burst kernels)

where ``base`` carries a diurnal (day/night) cycle and each *burst* is an
exponentially decaying spike anchored at an exciting moment — in the
generator, the truth-transition times of the claims.

Sampling uses the standard thinning algorithm (Lewis & Shedler 1979).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "Burst",
    "TrafficModel",
    "bursts_at_transitions",
]

#: Length of the diurnal cycle in seconds (one day).
DIURNAL_PERIOD = 86_400.0
#: Points of the grid the normalized cumulative rate is sampled on.
RESOLUTION = 8192


@dataclass(frozen=True, slots=True)
class Burst:
    """One traffic spike: rate multiplier decaying exponentially."""

    at: float
    amplitude: float
    decay: float

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if self.decay <= 0:
            raise ValueError("decay must be > 0")

    def intensity(self, t: float) -> float:
        """Contribution of this burst to the rate multiplier at ``t``."""
        if t < self.at:
            return 0.0
        return self.amplitude * math.exp(-(t - self.at) / self.decay)


@dataclass(frozen=True, slots=True)
class TrafficModel:
    """Non-homogeneous Poisson traffic with diurnal cycle and bursts.

    Attributes:
        base_rate: Mean arrival rate in reports/second, before modulation.
        diurnal_amplitude: Strength of the day/night cycle in ``[0, 1)``;
            0 disables it.  The cycle is :data:`DIURNAL_PERIOD` long.
        bursts: Spikes layered on top of the base rate.
    """

    base_rate: float = 1.0
    diurnal_amplitude: float = 0.4
    bursts: tuple[Burst, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ValueError("base_rate must be > 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (reports/second)."""
        diurnal = 1.0 + self.diurnal_amplitude * math.sin(
            2.0 * math.pi * t / DIURNAL_PERIOD
        )
        burst = 1.0 + sum(b.intensity(t) for b in self.bursts)
        return self.base_rate * diurnal * burst

    def rate_bound(self) -> float:
        """Upper bound of :meth:`rate`."""
        peak_burst = 1.0 + sum(b.amplitude for b in self.bursts)
        return self.base_rate * (1.0 + self.diurnal_amplitude) * peak_burst

    def rate_array(self, times: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rate` over an array of timestamps."""
        times = np.asarray(times, dtype=float)
        diurnal = 1.0 + self.diurnal_amplitude * np.sin(
            2.0 * np.pi * times / DIURNAL_PERIOD
        )
        burst = np.ones_like(times)
        for b in self.bursts:
            dt = times - b.at
            burst += np.where(dt >= 0, b.amplitude * np.exp(-dt / b.decay), 0.0)
        return self.base_rate * diurnal * burst

    def _cdf_grid(
        self, start: float, end: float
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Grid, normalized cumulative rate, and total integral."""
        grid = np.linspace(start, end, RESOLUTION)
        rates = self.rate_array(grid)
        increments = np.concatenate(
            [[0.0], 0.5 * (rates[1:] + rates[:-1]) * np.diff(grid)]
        )
        cumulative = np.cumsum(increments)
        total = float(cumulative[-1])
        if total <= 0:
            raise ValueError("rate integrates to zero over the interval")
        return grid, cumulative / total, total

    def sample_times(
        self,
        start: float,
        end: float,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Arrival timestamps in ``[start, end)``.

        Draws the event count from Poisson(integral of the rate) and
        scatters arrivals by inverse-CDF sampling of the normalized rate
        on a fine grid — exact up to grid resolution, and O(n) instead of
        thinning's rejection overhead under spiky rates.
        """
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        grid, cdf, total = self._cdf_grid(start, end)
        count = int(rng.poisson(total))
        uniforms = rng.random(count)
        return np.sort(np.interp(uniforms, cdf, grid))

    def sample_times_exact(
        self,
        start: float,
        end: float,
        count: int,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Exactly ``count`` arrival times distributed like the process.

        Conditioned on the event count, a (non-homogeneous) Poisson
        process scatters points with density proportional to the rate;
        inverse-CDF sampling on a fine grid realizes that directly.
        Used when a benchmark needs a trace of an exact size (Table II).
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if count == 0:
            return np.array([])
        grid, cdf, _ = self._cdf_grid(start, end)
        uniforms = rng.random(count)
        return np.sort(np.interp(uniforms, cdf, grid))


def bursts_at_transitions(
    transition_times: Sequence[float],
    amplitude: float = 4.0,
    decay: float = 600.0,
) -> tuple[Burst, ...]:
    """Burst kernels anchored at truth-transition times.

    Models the empirical spike of attention when something *happens* —
    the touchdown, the arrest, the new explosion report.
    """
    return tuple(
        Burst(at=t, amplitude=amplitude, decay=decay) for t in transition_times
    )
