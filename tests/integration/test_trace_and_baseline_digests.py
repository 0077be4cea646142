"""Pinned digests of generated traces and of every registered method.

The generator's noise values and every baseline's hyperparameters are
module constants.  These digests show that each constant holds the value
the old default had: one changed bit in a report, a timeline or an
estimate changes a digest.  A change that means to alter a trace or an
answer edits a literal here and says why.
"""

import hashlib
import importlib
import math
import pkgutil
from unittest import mock

import pytest

import repro.baselines
from benchmarks.e2e import workloads
from repro.baselines import ALGORITHM_FACTORIES, EvaluationGrid
from repro.core.estimates_io import estimates_digest
from repro.streams import SCENARIOS, GeneratorConfig, generate_trace

SEED = 1

#: Scenario volume for the pins: every code path of the generator runs,
#: at a size tier-1 can afford.
SCENARIO_FRACTION = 0.01

#: (scenario or "e2e", with_text) -> trace digest at seed 1.
TRACE_DIGESTS = {
    ("boston", False): "dd3b9d79ca21f105",
    ("boston", True): "a067020cb9b92780",
    ("paris", False): "a3a51d759c03c0a4",
    ("paris", True): "6149e83d9c7493c1",
    ("football", False): "9755f5e8b4dacb00",
    ("football", True): "f05030da5d7810e2",
    ("osu", False): "a8454d695996fcb3",
    ("osu", True): "57db297f1b5c92e5",
    ("e2e", False): "fa40ace71a1ae023",
    ("e2e", True): "d5daebc22bce439a",
}

#: method -> (estimate digest, estimate count) on ``baseline_trace()``.
BASELINE_DIGESTS = {
    "SSTD": ("945ebb7b551286b6", 768),
    "DynaTD": ("874544ef25363ffb", 759),
    "TruthFinder": ("1450c21503d77d79", 768),
    "RTD": ("b6a4a9c659156ac8", 768),
    "CATD": ("84764d2e22feb92f", 768),
    "Invest": ("a99d50de1b385a8c", 768),
    "3-Estimates": ("68f31bf4365e42e5", 768),
    "MajorityVote": ("329ca966bfb01fb6", 768),
    "Median": ("aff2e2ddaa4319db", 768),
    "PooledInvest": ("12cfbcfac8366fd1", 768),
    "SlidingVote": ("74111df266c9037e", 768),
}


def trace_digest(trace) -> str:
    """Bit-exact fingerprint of reports, timelines and sources."""
    h = hashlib.sha256()
    for r in trace.reports:
        h.update(
            repr(
                (
                    r.source_id,
                    r.claim_id,
                    r.timestamp.hex(),
                    int(r.attitude),
                    r.uncertainty.hex(),
                    r.independence.hex(),
                    r.text,
                    r.is_retweet,
                )
            ).encode()
        )
    for claim_id, timeline in trace.timelines.items():
        labels = [
            (lab.start.hex(), lab.end.hex(), int(lab.value)) for lab in timeline
        ]
        h.update(repr((claim_id, labels)).encode())
    for source_id in sorted(trace.sources):
        source = trace.sources[source_id]
        h.update(
            repr(
                (source_id, source.reliability.hex(), source.is_spreader)
            ).encode()
        )
    return h.hexdigest()[:16]


def e2e_spec():
    """The ``ScenarioSpec`` that ``workloads.make_trace`` generates from."""
    captured = []

    def capture(spec, seed, config):
        captured.append(spec)
        return None

    shape = workloads.WORKLOADS["batch_volume"].smoke_shape
    with mock.patch.object(workloads, "generate_trace", capture):
        workloads.make_trace(shape, SEED)
    (spec,) = captured
    return spec


def make_trace(name, with_text):
    if name == "e2e":
        spec = e2e_spec()
    else:
        spec = SCENARIOS[name]().scaled(SCENARIO_FRACTION)
    return generate_trace(
        spec, seed=SEED, config=GeneratorConfig(with_text=with_text)
    )


def baseline_trace():
    return generate_trace(SCENARIOS["osu"]().scaled(0.05), seed=SEED)


def test_e2e_trace_is_the_workload_input():
    shape = workloads.WORKLOADS["batch_volume"].smoke_shape
    expected = workloads.make_trace(shape, SEED)
    assert trace_digest(make_trace("e2e", False)) == trace_digest(expected)


@pytest.mark.parametrize(
    "key", sorted(TRACE_DIGESTS), ids=lambda key: f"{key[0]}-text-{key[1]}"
)
def test_trace_digest(key):
    assert trace_digest(make_trace(*key)) == TRACE_DIGESTS[key]


def test_every_scenario_is_pinned():
    assert {name for name, _ in TRACE_DIGESTS} == set(SCENARIOS) | {"e2e"}


def test_every_method_is_pinned():
    assert sorted(BASELINE_DIGESTS) == sorted(ALGORITHM_FACTORIES)


@pytest.mark.parametrize("name", sorted(BASELINE_DIGESTS))
def test_method_digest(name):
    trace = baseline_trace()
    grid = EvaluationGrid(trace.start, trace.end, step=1800.0)
    estimates = ALGORITHM_FACTORIES[name]().discover(trace.reports, grid)
    assert (estimates_digest(estimates), len(estimates)) == BASELINE_DIGESTS[name]


def compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` as CPython 3.12 computes it.

    Ints add exactly until the total turns float.  Exact floats then
    add with Neumaier's compensation, ints add as doubles without it,
    and the compensation joins the total at the end (or before the
    first item of any other type, which adds plainly from there on).
    """
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if type(total) is float:
            break
    if type(total) is not float:
        return total
    compensation = 0.0
    for item in items:
        if type(item) is float:
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
        elif isinstance(item, int):
            total += float(item)
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            total = total + item
            for rest in items:
                total = total + rest
            return total
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_matches_python_3_12():
    # The two examples of the CPython 3.12 changelog entry.
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert compensated_sum([1, 2, 3]) == 6
    assert compensated_sum([]) == 0


def baseline_modules():
    return [
        importlib.import_module(f"repro.baselines.{info.name}")
        for info in pkgutil.iter_modules(repro.baselines.__path__)
    ]


@pytest.mark.parametrize("name", sorted(BASELINE_DIGESTS))
def test_method_digest_under_compensated_sum(name, monkeypatch):
    """The pins hold whichever ``sum`` the interpreter has (3.10-3.12)."""
    for module in baseline_modules():
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    test_method_digest(name)
