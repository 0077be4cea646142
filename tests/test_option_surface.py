"""The settable option surface, pinned name by name.

Every option doubles the configurations tests and benchmarks must
cover, so one is added only when two real callers need different
values.  A new field or keyword on any class below fails this test until
it is added here on purpose.  Two walks keep the pin exhaustive: every
dataclass named ``*Config`` in ``repro`` (outside ``repro.devtools``)
must be in :data:`CONFIG_FIELDS`, and every public class, function and
method of the :data:`CENSUS_MODULES` with a defaulted parameter must be
in :data:`KEYWORDS`.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

from repro.baselines import (
    CATD,
    RTD,
    DynaTD,
    EvaluationGrid,
    Invest,
    PooledInvest,
    SlidingVote,
    SSTDAlgorithm,
    ThreeEstimates,
    TruthFinder,
)
from repro.cluster import (
    CondorPool,
    NodeSpec,
    PeriodicTask,
    ResourceSpec,
    Simulator,
    heterogeneous_pool,
    uniform_pool,
)
from repro.control.controller import ControlConfig, Controller, replay_trajectory
from repro.core.acs import ACSConfig
from repro.core.dependencies import CorrelatedSSTD, CorrelationConfig
from repro.core.reliability import (
    ReliabilityEstimator,
    SourceReliability,
    evaluate_reliability_estimates,
    rank_spreaders,
    reliability_histogram,
)
from repro.core.sstd import SSTDConfig, StreamingSSTD
from repro.hmm.selection import select_n_states
from repro.report import bar_chart, side_by_side, sparkline, timeline_strip
from repro.streams import (
    GeneratorConfig,
    PopulationConfig,
    ScenarioSpec,
    SimulatedCrawler,
    SourcePopulation,
    StreamReplayer,
    Trace,
    TrafficModel,
    ValidationReport,
    bursts_at_transitions,
    generate_trace,
    validate_trace,
)
from repro.system.application import ApplicationConfig
from repro.system.sstd_system import SSTDSystemConfig
from repro.text import (
    AttitudeClassifier,
    Cluster,
    IndependenceScorer,
    KeywordFilter,
    NaiveBayesHedgeClassifier,
    OnlineClaimClusterer,
    PolarityAnalyzer,
    TweetPipeline,
)
from repro.workqueue import ProcessWorkQueue, TaskResult
from repro.workqueue.pool import ElasticWorkerPool

CONFIG_FIELDS = {
    SSTDConfig: ("acs", "em_max_iter", "min_observations", "sticky_prior"),
    ACSConfig: ("window", "step", "weights"),
    SSTDSystemConfig: (
        "n_workers",
        "nodes",
        "cost_model",
        "sstd",
        "control",
        "control_enabled",
        "deadline",
        "max_workers",
        "seed",
        "backend",
        "drain_timeout",
        "observability",
        "claims_per_shard",
    ),
    ControlConfig: ("gains", "sample_period", "trajectory_path"),
    ApplicationConfig: ("sstd", "deadline", "retrain_every"),
    GeneratorConfig: ("with_text",),
    PopulationConfig: (
        "n_sources",
        "zipf_exponent",
        "reliable_fraction",
        "reliable_range",
        "noisy_range",
        "spreader_fraction",
        "spreader_range",
        "retweet_propensity_range",
    ),
    CorrelationConfig: ("blend",),
}

#: Parameters with a default, i.e. the ones a caller may leave out.
#: An empty tuple pins a class or function whose options were retired.
KEYWORDS = {
    StreamingSSTD: ("config", "retrain_every", "max_buffer", "refit"),
    ElasticWorkerPool: ("max_workers",),
    Controller: ("config", "obs"),
    replay_trajectory: ("gains",),
    # repro.streams
    ScenarioSpec: (
        "mean_truth_flips",
        "initial_true_fraction",
        "claim_zipf_exponent",
        "population",
        "burst_amplitude",
        "burst_decay",
        "diurnal_amplitude",
        "keywords",
    ),
    generate_trace: ("seed", "config"),
    SimulatedCrawler: (),
    StreamReplayer: ("duration",),
    SourcePopulation: ("rng",),
    Trace: ("sources", "claims", "timelines"),
    TrafficModel: ("base_rate", "diurnal_amplitude", "bursts"),
    TrafficModel.sample_times: ("rng",),
    TrafficModel.sample_times_exact: ("rng",),
    bursts_at_transitions: ("amplitude", "decay"),
    ValidationReport: ("issues",),
    validate_trace: (),
    # repro.baselines
    EvaluationGrid: ("step",),
    SSTDAlgorithm: ("config",),
    TruthFinder: (),
    RTD: (),
    CATD: (),
    Invest: (),
    PooledInvest: (),
    ThreeEstimates: (),
    DynaTD: (),
    SlidingVote: (),
    # repro.text
    TweetPipeline: (),
    AttitudeClassifier: (),
    PolarityAnalyzer: (),
    OnlineClaimClusterer: (),
    Cluster: ("token_counts", "size", "sample_sets"),
    Cluster.centroid: (),
    Cluster.centroid_text: (),
    Cluster.add: (),
    IndependenceScorer: (),
    NaiveBayesHedgeClassifier: ("corpus",),
    KeywordFilter: (),
    # repro.core.dependencies, repro.core.reliability, repro.hmm.selection
    CorrelatedSSTD: ("config", "correlation"),
    CorrelatedSSTD.discover: (),
    SourceReliability: (),
    ReliabilityEstimator: (),
    rank_spreaders: ("top_k",),
    reliability_histogram: (),
    evaluate_reliability_estimates: (),
    select_n_states: (),
    # repro.cluster
    CondorPool.place: (),
    NodeSpec: ("capacity", "speed_factor"),
    ResourceSpec: ("cores", "memory_mb", "disk_mb"),
    heterogeneous_pool: ("rng",),
    uniform_pool: ("cores",),
    Simulator.run: ("until",),
    PeriodicTask: (),
    # repro.report
    sparkline: (),
    timeline_strip: (),
    side_by_side: (),
    bar_chart: (),
    # the real executor
    TaskResult: ("error", "metrics", "payload_bytes", "result_bytes"),
    ProcessWorkQueue: ("n_workers", "obs"),
    ProcessWorkQueue.drain: ("timeout",),
}

#: Modules whose every defaulted field and keyword is pinned above.
CENSUS_MODULES = (
    "repro.streams",
    "repro.baselines",
    "repro.text",
    "repro.core.dependencies",
    "repro.core.reliability",
    "repro.hmm.selection",
    "repro.cluster",
    "repro.report",
    "repro.workqueue.process",
)


def _modules(names):
    for name in names:
        module = importlib.import_module(name)
        yield module
        if hasattr(module, "__path__"):
            for info in pkgutil.walk_packages(module.__path__, f"{name}."):
                if not info.name.startswith("repro.devtools"):
                    yield importlib.import_module(info.name)


def _defined_in(module):
    """Public classes and functions ``module`` defines (not imports)."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield obj


def _defaulted(target):
    parameters = inspect.signature(target).parameters.values()
    return tuple(p.name for p in parameters if p.default is not p.empty)


def _census_targets():
    """Every public callable of the census modules with a defaulted
    parameter, methods included."""
    for module in _modules(CENSUS_MODULES):
        for obj in _defined_in(module):
            if obj in CONFIG_FIELDS or (
                inspect.isclass(obj) and issubclass(obj, BaseException)
            ):
                continue
            if not inspect.isclass(obj) or obj.__init__ is not object.__init__:
                if _defaulted(obj):
                    yield obj
            if inspect.isclass(obj):
                for name, member in vars(obj).items():
                    if name.startswith("_"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = getattr(obj, name)
                    elif not inspect.isfunction(member):
                        continue
                    if _defaulted(member):
                        yield member


@pytest.mark.parametrize(
    "config", CONFIG_FIELDS, ids=lambda cls: cls.__name__
)
def test_config_fields(config):
    names = tuple(f.name for f in dataclasses.fields(config) if f.init)
    assert names == CONFIG_FIELDS[config]


@pytest.mark.parametrize("target", KEYWORDS, ids=lambda obj: obj.__qualname__)
def test_keyword_parameters(target):
    assert _defaulted(target) == KEYWORDS[target]


def test_every_config_is_pinned():
    configs = {
        obj
        for module in _modules(["repro"])
        for obj in _defined_in(module)
        if inspect.isclass(obj)
        and dataclasses.is_dataclass(obj)
        and obj.__name__.endswith("Config")
    }
    assert configs, "the walk found no config dataclass"
    missing = sorted(cls.__qualname__ for cls in configs - set(CONFIG_FIELDS))
    assert not missing, f"unpinned config dataclasses: {missing}"


def test_every_census_keyword_is_pinned():
    targets = set(_census_targets())
    assert targets, "the walk found no defaulted parameter"
    missing = sorted(obj.__qualname__ for obj in targets - set(KEYWORDS))
    assert not missing, f"unpinned defaulted parameters: {missing}"
