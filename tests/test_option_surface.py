"""The settable option surface, pinned name by name.

Every option doubles the configurations tests and benchmarks must
cover, so one is added only when two real callers need different
values.  A new field or keyword on any class below fails this test until
it is added here on purpose.
"""

import dataclasses
import inspect

import pytest

from repro.control.controller import ControlConfig, Controller, replay_trajectory
from repro.core.acs import ACSConfig
from repro.core.sstd import SSTDConfig, StreamingSSTD
from repro.system.application import ApplicationConfig
from repro.system.sstd_system import SSTDSystemConfig
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
        "failures",
        "backend",
        "drain_timeout",
        "observability",
        "claims_per_shard",
    ),
    ControlConfig: ("gains", "sample_period", "trajectory_path"),
    ApplicationConfig: ("sstd", "deadline", "retrain_every"),
}

#: Parameters with a default, i.e. the ones a caller may leave out.
KEYWORDS = {
    StreamingSSTD: ("config", "retrain_every", "max_buffer", "refit"),
    ElasticWorkerPool: ("max_workers",),
    Controller: ("config", "obs"),
    replay_trajectory: ("gains",),
}


@pytest.mark.parametrize(
    "config", CONFIG_FIELDS, ids=lambda cls: cls.__name__
)
def test_config_fields(config):
    names = tuple(f.name for f in dataclasses.fields(config) if f.init)
    assert names == CONFIG_FIELDS[config]


@pytest.mark.parametrize("target", KEYWORDS, ids=lambda obj: obj.__name__)
def test_keyword_parameters(target):
    parameters = inspect.signature(target).parameters.values()
    names = tuple(p.name for p in parameters if p.default is not p.empty)
    assert names == KEYWORDS[target]
