"""Estimates as columns: a sequence of ``TruthEstimate`` with no objects.

``SSTD.discover``, ``DistributedSSTD.run_batch`` / ``run_intervals`` and
``StreamingSSTD.tick`` return an :class:`Estimates`.  It must behave as
the list of estimates it replaces — length, indexing, slicing, equality,
pickling, the ``(claim_id, timestamp)`` order — while building a
``TruthEstimate`` only when a caller indexes or iterates.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columns import Estimates
from repro.core.estimates_io import estimates_digest, save_estimates
from repro.core.sstd import SSTD
from repro.core.types import TruthEstimate, TruthValue
from repro.streams.events import PopulationConfig, ScenarioSpec
from repro.streams.generator import GeneratorConfig, generate_trace
from repro.system.sstd_system import DistributedSSTD, SSTDSystemConfig

OBJECTS = [
    TruthEstimate("c-b", 0.0, TruthValue.TRUE, 0.75),
    TruthEstimate("c-a", 60.0, TruthValue.FALSE, 1.0),
    TruthEstimate("c-b", 60.0, TruthValue.FALSE, 0.0),
    TruthEstimate("c-a", 120.0, TruthValue.TRUE, 0.5),
]


def columns_of(objects):
    """``objects`` as columns, built without :meth:`Estimates.of`."""
    claim_ids = tuple(sorted({e.claim_id for e in objects}))
    return Estimates(
        claim_ids,
        np.array([claim_ids.index(e.claim_id) for e in objects], np.uint8),
        np.array([e.timestamp for e in objects]),
        np.array([int(e.value) for e in objects], np.int8),
        np.array([e.confidence for e in objects]),
    )


class TestSequence:
    def test_len_and_index(self):
        estimates = columns_of(OBJECTS)
        assert len(estimates) == 4
        assert estimates[0] == OBJECTS[0]
        assert estimates[-1] == OBJECTS[-1]
        assert estimates[-4] == OBJECTS[0]
        assert type(estimates[1].value) is TruthValue
        for index in (4, -5):
            with pytest.raises(IndexError):
                estimates[index]

    def test_slice_is_a_list(self):
        estimates = columns_of(OBJECTS)
        assert estimates[1:3] == OBJECTS[1:3]
        assert type(estimates[1:3]) is list
        assert estimates[::-1] == OBJECTS[::-1]
        assert estimates[:1] + estimates[2:] == OBJECTS[:1] + OBJECTS[2:]

    def test_equals_a_list_and_a_tuple(self):
        estimates = columns_of(OBJECTS)
        assert estimates == OBJECTS
        assert OBJECTS == estimates
        assert estimates == tuple(OBJECTS)
        assert tuple(OBJECTS) == estimates
        assert estimates == Estimates.of(OBJECTS)
        assert estimates != OBJECTS[:3]
        assert estimates != OBJECTS[::-1]
        assert estimates != set(OBJECTS)

    def test_iteration_builds_the_objects(self):
        assert list(columns_of(OBJECTS)) == OBJECTS
        assert OBJECTS[2] in columns_of(OBJECTS)

    def test_pickle_round_trip(self):
        estimates = columns_of(OBJECTS)
        again = pickle.loads(pickle.dumps(estimates))
        assert again == estimates
        assert again.claim_ids == estimates.claim_ids

    def test_empty(self):
        for empty in (Estimates.concat(()), Estimates.of([])):
            assert len(empty) == 0
            assert list(empty) == []
            assert empty == [] and empty == ()
            assert empty.sorted() == []
            assert pickle.loads(pickle.dumps(empty)) == []
            assert estimates_digest(empty) == estimates_digest([])

    def test_columns_are_read_only(self):
        times = np.array([0.0, 60.0])
        estimates = Estimates(
            ("c",), np.zeros(2, np.uint8), times, np.zeros(2), np.ones(2)
        )
        with pytest.raises(ValueError):
            estimates.times[0] = 1.0
        times[0] = 5.0  # the caller's array stays writable


class TestConstructionCheck:
    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_bad_confidence_raises_like_truth_estimate(self, bad):
        with pytest.raises(ValueError) as expected:
            TruthEstimate("c", 0.0, TruthValue.TRUE, bad)
        with pytest.raises(ValueError) as raised:
            Estimates(
                ("c",),
                np.zeros(3, np.uint8),
                np.arange(3.0),
                np.ones(3),
                np.array([1.0, bad, 0.5]),
            )
        assert str(raised.value) == str(expected.value)

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            Estimates(
                ("c",), np.zeros(2, np.uint8), np.arange(3.0), np.ones(3),
                np.ones(3),
            )


claim_strategy = st.sampled_from(["c-c", "c-a", "c-b", "c-d"])
objects_strategy = st.lists(
    st.builds(
        TruthEstimate,
        claim_strategy,
        # A coarse time grid makes (claim, timestamp) ties common.
        st.integers(min_value=0, max_value=8).map(lambda k: 60.0 * k),
        st.sampled_from(list(TruthValue)),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    max_size=40,
)


class TestOrder:
    @settings(max_examples=60, deadline=None)
    @given(objects=objects_strategy, cut=st.integers(0, 40))
    def test_lexsort_merge_matches_sorted(self, objects, cut):
        random.Random(len(objects)).shuffle(objects)
        parts = [Estimates.of(objects[:cut]), Estimates.of(objects[cut:])]
        merged = Estimates.concat(parts)
        assert merged == objects
        assert merged.sorted() == sorted(
            objects, key=lambda e: (e.claim_id, e.timestamp)
        )

    def test_concat_keeps_row_order_across_claim_tables(self):
        first = Estimates.of(OBJECTS[:2])
        extra = TruthEstimate("c-0", 1.0, TruthValue.TRUE)
        second = Estimates.of(OBJECTS[2:] + [extra])
        merged = Estimates.concat([first, second])
        assert merged.claim_ids == ("c-0", "c-a", "c-b")
        assert list(merged) == list(first) + list(second)


class TestColumnReaders:
    def test_digest_and_jsonl_read_columns_as_objects(self, tmp_path):
        estimates = SSTD().discover(small_trace().reports)
        assert isinstance(estimates, Estimates)
        objects = list(estimates)
        assert estimates_digest(estimates) == estimates_digest(objects)
        save_estimates(estimates, tmp_path / "columns.jsonl")
        save_estimates(objects, tmp_path / "objects.jsonl")
        assert (tmp_path / "columns.jsonl").read_bytes() == (
            tmp_path / "objects.jsonl"
        ).read_bytes()


def small_trace():
    spec = ScenarioSpec(
        name="estimates",
        duration=3600.0,
        n_reports=600,
        n_claims=5,
        claim_texts=("the bridge is closed",),
        topic="test",
        mean_truth_flips=1.0,
        population=PopulationConfig(n_sources=40),
    )
    return generate_trace(spec, seed=5, config=GeneratorConfig(with_text=False))


@pytest.fixture
def post_init_calls(monkeypatch):
    """How many ``TruthEstimate`` objects this process builds."""
    calls = [0]
    original = TruthEstimate.__post_init__

    def counting(self):
        calls[0] += 1
        original(self)

    monkeypatch.setattr(TruthEstimate, "__post_init__", counting)
    return calls


@pytest.mark.parametrize("backend", ["simulated", "processes"])
def test_output_paths_build_no_objects(post_init_calls, backend):
    trace = small_trace()
    discovered = SSTD().discover(trace.reports)
    system = DistributedSSTD(
        SSTDSystemConfig(backend=backend, n_workers=1, control_enabled=False)
    )
    batch = system.run_batch(trace.reports)
    intervals = system.run_intervals(
        trace, n_intervals=6, compute_estimates=True
    )
    assert post_init_calls[0] == 0
    assert len(discovered) == len(batch.estimates) > 0
    assert len(intervals.estimates) > 0
    # The objects appear where a caller iterates, and equal the serial ones.
    assert batch.estimates == discovered
    assert post_init_calls[0] == 2 * len(discovered)
