"""Synthetic social sensing streams: scenarios, generator, traffic, replay."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.streams.crawler": ("CrawlBatch", "SimulatedCrawler"),
        "repro.streams.events": (
            "SCENARIOS",
            "ScenarioSpec",
            "boston_bombing",
            "college_football",
            "osu_attack",
            "paris_shooting",
        ),
        "repro.streams.generator": ("GeneratorConfig", "generate_trace"),
        "repro.streams.replay": ("StreamBatch", "StreamReplayer"),
        "repro.streams.sources": ("PopulationConfig", "SourcePopulation"),
        "repro.streams.trace": ("Trace", "TraceStats", "merge_traces"),
        "repro.streams.traffic": ("Burst", "TrafficModel", "bursts_at_transitions"),
        "repro.streams.validation": (
            "ValidationIssue",
            "ValidationReport",
            "assert_valid",
            "validate_trace",
        ),
    },
)
