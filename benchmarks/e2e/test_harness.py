"""Tests of the benchmark harness itself (not tier-1; run explicitly):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import pytest

from benchmarks.e2e import child, layers, run, timing
from benchmarks.e2e.timing import Span
from benchmarks.e2e.workloads import (
    WORKLOADS,
    Shape,
    check_estimates,
    claim_spans,
    make_trace,
)
from repro.core.sstd import SSTD

SPEC = json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {"setup_s", *child.END_TO_END}


# -- per-op floors ----------------------------------------------------------

def test_floors_take_each_op_from_its_fastest_pass():
    passes = [[1.0, 5.0, 3.0], [2.0, 4.0, 9.0], [3.0, 6.0, 2.0]]
    assert timing.op_floors(passes) == [1.0, 4.0, 2.0]


def test_floors_reject_passes_of_different_shape():
    with pytest.raises(ValueError):
        timing.op_floors([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        timing.op_floors([])


def test_wall_is_rebuilt_from_floors_plus_remainder_floor():
    ops = [[1.0, 5.0, 3.0], [2.0, 4.0, 9.0]]
    walls = [9.5, 15.25]  # remainders 0.5 and 0.25
    metrics = timing.time_metrics(walls, ops)
    assert timing.remainder_floor(walls, ops) == 0.25
    assert metrics.wall_s == (1.0 + 4.0 + 3.0) + 0.25
    assert metrics.op_p50_s == 3.0
    # No pass was this fast: the floor is not any single pass's wall.
    assert metrics.wall_s < min(walls)


def test_remainder_never_negative():
    assert timing.remainder_floor([1.0], [[0.6, 0.5]]) == 0.0


def test_tail_mean_averages_the_slowest_tenth():
    values = [1.0] * 90 + [10.0, 20.0, 30.0, 40.0, 50.0] * 2
    assert timing.tail_mean(values) == 30.0
    assert timing.tail_mean([3.0, 1.0, 2.0]) == 3.0  # at least one value
    # One op crossing the cliff moves the tail mean by a tenth of the
    # step; the p95 point would jump the whole step.
    bimodal = [1.0] * 150 + [100.0] * 10
    moved = [1.0] * 149 + [100.0] * 11
    assert timing.tail_mean(moved) - timing.tail_mean(bimodal) < 100.0 / 10


# -- span self time ---------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 7.0, 0),
        Span("b", 2.0, 5.0, 1),
        Span("a", 8.0, 9.0, 0),
    ]
    assert timing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert sum(timing.self_times(spans)) == spans[0].duration
    assert timing.self_by_name(spans) == {"root": 3.0, "a": 4.0, "b": 3.0}
    assert timing.inclusive_by_name(spans) == {"root": 10.0, "a": 7.0, "b": 3.0}


def test_recursive_span_counts_once_inclusive():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("fit", 1.0, 9.0, 0),
        Span("forward", 2.0, 4.0, 1),
        Span("fit", 4.0, 8.0, 1),  # recursion, via another name below too
        Span("forward", 5.0, 6.0, 3),
    ]
    inclusive = timing.inclusive_by_name(spans)
    assert inclusive["fit"] == 8.0
    assert inclusive["forward"] == 3.0
    assert sum(timing.self_by_name(spans).values()) == 10.0


# -- boundary wrappers ------------------------------------------------------

def _target(module_name, class_name, attribute):
    return vars(layers.target_holder(module_name, class_name))[attribute]


def test_wrappers_record_a_tree_and_are_restored():
    before = [_target(*target[1:]) for target in layers.TARGETS]
    trace = make_trace(Shape(400, 4, 1800.0, ops=1), seed=3)
    with layers.LayerTrace() as recorded:
        assert all(
            _target(*target[1:]) is not original
            for target, original in zip(layers.TARGETS, before)
        )
        root = recorded.begin(layers.ROOT)
        estimates = SSTD().discover(trace.reports)
        recorded.end(root)
    after = [_target(*target[1:]) for target in layers.TARGETS]
    assert all(now is original for now, original in zip(after, before))

    names = {span.name for span in recorded.spans}
    assert {"core.sstd.discover", "core.acs.acs_sequence", "hmm.batch.fit"} <= names
    own = timing.self_by_name(recorded.spans)
    assert sum(own.values()) == pytest.approx(recorded.spans[0].duration, rel=1e-9)
    metrics = layers.layer_metrics(recorded)
    assert set(metrics) < set(layers.PER_LAYER)
    assert metrics["core.sstd.estimates"] == len(estimates)
    assert metrics["core.acs.acs_sequence_calls"] == 4
    assert metrics["trace.coverage"] > 0.9


def test_wrappers_restored_when_the_pass_raises():
    before = [_target(*target[1:]) for target in layers.TARGETS]
    with pytest.raises(RuntimeError):
        with layers.LayerTrace():
            raise RuntimeError("pass failed")
    after = [_target(*target[1:]) for target in layers.TARGETS]
    assert all(now is original for now, original in zip(after, before))


# -- inputs and output checks ----------------------------------------------

def _assignment(trace):
    return [(report.claim_id, report.timestamp) for report in trace.reports]


def test_same_seed_same_input_other_seed_other_input():
    shape = Shape(600, 6, 1800.0, ops=1)
    first, again, other = (make_trace(shape, seed) for seed in (5, 5, 6))
    assert len(first.reports) == len(again.reports) == shape.n_reports
    assert _assignment(first) == _assignment(again)
    assert _assignment(first) != _assignment(other)


def test_output_check_accepts_real_output_and_catches_damage():
    trace = make_trace(Shape(600, 6, 1800.0, ops=1), seed=5)
    estimates = SSTD().discover(trace.reports)
    spans = claim_spans(trace)
    assert check_estimates(spans, estimates) == ""
    assert "gap" in check_estimates(spans, estimates[:3] + estimates[4:])
    assert "gap" in check_estimates(spans, estimates[:4] + estimates[3:])
    one_claim = [e for e in estimates if e.claim_id != estimates[0].claim_id]
    assert "claims" in check_estimates(spans, one_claim)
    claim = estimates[0].claim_id
    late = [e for e in estimates if e.claim_id != claim or e.timestamp > 900.0]
    assert "first report" in check_estimates(spans, late)


# -- contract ---------------------------------------------------------------

def test_benchmark_json_names_what_the_code_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["command"][1].startswith(SPEC["paths"][0])


def test_smoke_run_prints_every_metric_quickly():
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke"],
        cwd=run.REPO, stdout=subprocess.PIPE, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-2000:]
    assert elapsed < 20.0
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = END_TO_END | set(layers.PER_LAYER)
    for workload in run.WORKLOADS:
        printed = {
            name.split("/", 1)[1]
            for name in result["metrics"]
            if name.startswith(workload + "/")
        }
        assert printed == expected
