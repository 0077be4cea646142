"""Core truth-discovery layer: data model, scores, ACS, SSTD, metrics."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.core.acs": ("ACSConfig", "SlidingWindowACS", "acs_sequence"),
        "repro.core.columns": ("Estimates", "ReportColumns", "Reports"),
        "repro.core.dependencies": (
            "ClaimDependencyGraph",
            "CorrelatedSSTD",
            "CorrelationConfig",
        ),
        "repro.core.estimates_io": (
            "estimates_digest",
            "iter_estimates",
            "load_estimates",
            "save_estimates",
        ),
        "repro.core.metrics": (
            "ConfusionMatrix",
            "EvaluationResult",
            "evaluate_estimates",
            "evaluate_per_claim",
            "format_results_table",
            "hardest_claims",
        ),
        "repro.core.reliability": (
            "ReliabilityEstimator",
            "SourceReliability",
            "rank_spreaders",
            "reliability_histogram",
        ),
        "repro.core.scores": ("FULL_WEIGHTS", "ScoreWeights"),
        "repro.core.sstd": ("SSTD", "ClaimTruthModel", "SSTDConfig", "StreamingSSTD"),
        "repro.core.types": (
            "Attitude",
            "Claim",
            "Report",
            "Source",
            "TruthEstimate",
            "TruthLabel",
            "TruthTimeline",
            "TruthValue",
        ),
    },
)
