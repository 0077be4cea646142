"""Core truth-discovery layer: data model, scores, ACS, SSTD, metrics."""

from repro.core.acs import ACSConfig, SlidingWindowACS, acs_sequence
from repro.core.columns import Estimates, ReportColumns, Reports
from repro.core.dependencies import (
    ClaimDependencyGraph,
    CorrelatedSSTD,
    CorrelationConfig,
)
from repro.core.estimates_io import (
    estimates_digest,
    iter_estimates,
    load_estimates,
    save_estimates,
)
from repro.core.metrics import (
    ConfusionMatrix,
    EvaluationResult,
    evaluate_estimates,
    evaluate_per_claim,
    format_results_table,
    hardest_claims,
)
from repro.core.reliability import (
    ReliabilityEstimator,
    SourceReliability,
    rank_spreaders,
    reliability_histogram,
)
from repro.core.scores import FULL_WEIGHTS, ScoreWeights
from repro.core.sstd import SSTD, ClaimTruthModel, SSTDConfig, StreamingSSTD
from repro.core.types import (
    Attitude,
    Claim,
    Report,
    Source,
    TruthEstimate,
    TruthLabel,
    TruthTimeline,
    TruthValue,
)

__all__ = [
    "ACSConfig",
    "Attitude",
    "Claim",
    "ClaimDependencyGraph",
    "ClaimTruthModel",
    "CorrelatedSSTD",
    "CorrelationConfig",
    "ConfusionMatrix",
    "Estimates",
    "EvaluationResult",
    "FULL_WEIGHTS",
    "ReliabilityEstimator",
    "Report",
    "ReportColumns",
    "Reports",
    "SSTD",
    "SSTDConfig",
    "ScoreWeights",
    "SlidingWindowACS",
    "SourceReliability",
    "Source",
    "StreamingSSTD",
    "TruthEstimate",
    "TruthLabel",
    "TruthTimeline",
    "TruthValue",
    "acs_sequence",
    "estimates_digest",
    "evaluate_estimates",
    "evaluate_per_claim",
    "iter_estimates",
    "load_estimates",
    "rank_spreaders",
    "save_estimates",
    "reliability_histogram",
    "format_results_table",
    "hardest_claims",
]
