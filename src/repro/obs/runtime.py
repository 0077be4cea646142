"""The :class:`Observability` facade and the ambient current recorder.

One object bundles the three observability primitives — a clock, a span
tracer, and a metric registry — plus the master ``enabled`` switch.
Instrumentation sites guard on that attribute::

    if obs.enabled:
        obs.tracer.instant("worker.death", track=name)

so the disabled path costs one attribute check and a branch (verified
by the CI perf-smoke gate).  Tracing is enabled explicitly
(``SSTDSystemConfig.observability=True``) or ambiently via the
``REPRO_TRACE`` environment variable.

Deep engine code (Baum-Welch in :mod:`repro.hmm.batch`, claim decoding
in :mod:`repro.core.sstd`) cannot reasonably thread an ``obs`` handle
through every call signature, so this module also keeps a process-wide
*current* recorder: :func:`get_obs` returns it, :func:`using` installs
one for the duration of a run.  The default is a disabled instance, so
library code can always record unconditionally-guarded.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

from repro.obs.clock import Clock, WallClock
from repro.obs.metrics import MetricRegistry
from repro.obs.spans import SpanTracer
from repro.obs.stitch import ClockSync

__all__ = [
    "Observability",
    "env_enabled",
    "get_obs",
    "set_obs",
    "using",
]

#: Environment switch: any of these values turns ambient tracing on.
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_enabled(default: bool = False) -> bool:
    """Whether ``REPRO_TRACE`` asks for tracing (unset -> ``default``)."""
    raw = os.environ.get("REPRO_TRACE")
    if raw is None:
        return default
    return raw.strip().lower() in _TRUTHY


class Observability:
    """Clock + tracer + metrics behind one ``enabled`` switch.

    Args:
        clock: Time source shared by the tracer and all duration
            measurements; defaults to a :class:`~repro.obs.clock.WallClock`.
        enabled: Master switch checked by every instrumentation site.
        capacity: Span ring-buffer capacity.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        enabled: bool = True,
        capacity: int = 65536,
    ) -> None:
        self.clock: Clock = clock if clock is not None else WallClock()
        self.enabled = bool(enabled)
        self.tracer = SpanTracer(self.clock, capacity=capacity)
        self.metrics = MetricRegistry()
        # Per-worker clock syncs from the process backend's handshake;
        # populated by ProcessWorkQueue and read by exporters after the
        # queue itself is gone (see repro.obs.stitch).
        self.stitch: dict[str, ClockSync] = {}

    @classmethod
    def from_env(
        cls, clock: Clock | None = None, default: bool = False
    ) -> "Observability":
        """Instance whose ``enabled`` follows ``REPRO_TRACE``."""
        return cls(clock=clock, enabled=env_enabled(default))

    @classmethod
    def resolve(
        cls, flag: bool | None, clock: Clock | None = None
    ) -> "Observability":
        """Explicit flag wins; ``None`` defers to ``REPRO_TRACE``."""
        if flag is None:
            return cls.from_env(clock=clock)
        return cls(clock=clock, enabled=flag)

    @classmethod
    def disabled(cls, clock: Clock | None = None) -> "Observability":
        """A no-op recorder (minimal buffer, ``enabled`` False)."""
        return cls(clock=clock, enabled=False, capacity=1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Observability({state}, clock={self.clock.kind}, "
            f"events={self.tracer.recorded})"
        )


#: Process-wide current recorder; disabled until a run installs one.
_current: Observability = Observability.disabled()


def get_obs() -> Observability:
    """The ambient recorder engine code records through."""
    return _current


def set_obs(obs: Observability) -> Observability:
    """Install ``obs`` as the ambient recorder; returns the previous one."""
    global _current
    previous = _current
    _current = obs
    return previous


@contextlib.contextmanager
def using(obs: Observability) -> Iterator[Observability]:
    """Scope ``obs`` as the ambient recorder for a ``with`` block.

    The ambient recorder is process-global (not thread-local) by
    design: every thread of a run sees the run's recorder.
    Concurrent runs with different recorders in one process would race;
    the system layer runs one deployment at a time.
    """
    previous = set_obs(obs)
    try:
        yield obs
    finally:
        set_obs(previous)
