"""Truth discovery baselines from the paper's evaluation (Section V-A1)."""

from repro.baselines.base import (
    BatchTruthDiscovery,
    EvaluationGrid,
    TruthDiscoveryAlgorithm,
    Votes,
)
from repro.baselines.catd import CATD
from repro.baselines.dynatd import DynaTD
from repro.baselines.invest import Invest, PooledInvest
from repro.baselines.registry import (
    ALGORITHM_FACTORIES,
    PAPER_TABLE_METHODS,
    SSTDAlgorithm,
    make_algorithm,
    paper_comparison_set,
)
from repro.baselines.rtd import RTD
from repro.baselines.sliding_vote import SlidingVote
from repro.baselines.three_estimates import ThreeEstimates
from repro.baselines.truthfinder import TruthFinder
from repro.baselines.voting import MajorityVote, MedianVote

__all__ = [
    "ALGORITHM_FACTORIES",
    "BatchTruthDiscovery",
    "CATD",
    "DynaTD",
    "EvaluationGrid",
    "Invest",
    "MajorityVote",
    "MedianVote",
    "PAPER_TABLE_METHODS",
    "PooledInvest",
    "RTD",
    "SlidingVote",
    "SSTDAlgorithm",
    "ThreeEstimates",
    "TruthDiscoveryAlgorithm",
    "TruthFinder",
    "Votes",
    "make_algorithm",
    "paper_comparison_set",
]
