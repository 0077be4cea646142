"""Truth discovery baselines from the paper's evaluation (Section V-A1)."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "repro.baselines.base": (
            "BatchTruthDiscovery",
            "EvaluationGrid",
            "TruthDiscoveryAlgorithm",
            "Votes",
        ),
        "repro.baselines.catd": ("CATD",),
        "repro.baselines.dynatd": ("DynaTD",),
        "repro.baselines.invest": ("Invest", "PooledInvest"),
        "repro.baselines.registry": (
            "ALGORITHM_FACTORIES",
            "PAPER_TABLE_METHODS",
            "SSTDAlgorithm",
            "make_algorithm",
            "paper_comparison_set",
        ),
        "repro.baselines.rtd": ("RTD",),
        "repro.baselines.sliding_vote": ("SlidingVote",),
        "repro.baselines.three_estimates": ("ThreeEstimates",),
        "repro.baselines.truthfinder": ("TruthFinder",),
        "repro.baselines.voting": ("MajorityVote", "MedianVote"),
    },
)
