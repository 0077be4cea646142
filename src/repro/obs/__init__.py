"""``repro.obs`` — unified tracing + metrics for the SSTD system.

The paper's feedback controller exists because the system observes
itself (Section IV-C: execution times monitored at 1 Hz steer
priorities and pool size).  This package is that measurement channel as
a first-class, dependency-free substrate:

- :mod:`repro.obs.clock` — one ``Clock`` protocol over virtual
  (simulation) and wall time, enforced by lint rule SSTD011;
- :mod:`repro.obs.spans` — ring-buffered span tracer (nested timed
  spans + instant markers, one track per worker/job);
- :mod:`repro.obs.metrics` — thread-safe counters/gauges/histograms
  with picklable snapshots for cross-process merge;
- :mod:`repro.obs.export` — JSONL and Perfetto-loadable Chrome
  trace-event exporters;
- :mod:`repro.obs.runtime` — the :class:`Observability` facade and the
  ambient recorder used by deep engine code.

Enable via ``SSTDSystemConfig(observability=True)``, ``REPRO_TRACE=1``,
or ``repro-cli trace``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.obs.clock": ("Clock", "ManualClock", "VirtualClock", "WallClock"),
        "repro.obs.export": (
            "chrome_trace",
            "jsonl_lines",
            "write_chrome_trace",
            "write_jsonl",
        ),
        "repro.obs.metrics": (
            "BYTE_BUCKETS",
            "DEFAULT_BUCKETS",
            "HistogramSnapshot",
            "MetricRegistry",
            "MetricsSnapshot",
            "nearest_rank",
            "percentile",
        ),
        "repro.obs.runtime": (
            "Observability",
            "env_enabled",
            "get_obs",
            "set_obs",
            "using",
        ),
        "repro.obs.spans": ("SpanEvent", "SpanTracer"),
        "repro.obs.stitch": ("ClockSync", "rebase_events", "stitch_metadata"),
    },
)
