"""Acceptance: sharded batched dispatch decodes identical truth sequences.

The PR-5 hard constraint — claim-sharded, batch-kernel execution must
produce exactly the estimates of the per-claim serial engine, on every
backend and for every shard size.  Shard composition is a throughput
knob, never a semantics knob.
"""

import collections
import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.sstd import SSTD, SSTDConfig, batch_fit_decode
from repro.streams.events import PopulationConfig, ScenarioSpec
from repro.streams.generator import GeneratorConfig, generate_trace
from repro.system import shm, sstd_system
from repro.system.jobs import (
    build_claim_stack,
    claim_sequences,
    expand_shard_result,
    shm_shard_task_spec,
)
from repro.system.sstd_system import BACKENDS, DistributedSSTD, SSTDSystemConfig
from tests.streaming_replay import serial_stream_replay


def make_trace(n_reports):
    spec = ScenarioSpec(
        name="shard-parity",
        duration=3600.0,
        n_reports=n_reports,
        n_claims=7,
        claim_texts=("the road is flooded",),
        topic="test",
        mean_truth_flips=1.0,
        population=PopulationConfig(n_sources=60),
    )
    return generate_trace(spec, seed=11, config=GeneratorConfig(with_text=False))


@pytest.fixture(scope="module")
def trace():
    return make_trace(500)


@pytest.fixture(scope="module")
def serial_replay(trace):
    """The serial streaming replay every interval replay must equal."""
    return serial_stream_replay(trace.reports, trace.start, trace.end)


@pytest.fixture(scope="module")
def per_claim_serial(trace):
    # The reference semantics: the serial engine one claim at a time,
    # each through its own N = 1 kernel call.
    engine = SSTD(SSTDConfig())
    grouped = engine.group_reports(trace.reports)
    estimates = [
        estimate
        for claim_id in sorted(grouped)
        for estimate in engine.discover_claim(
            claim_id, grouped[claim_id]
        ).estimates
    ]
    estimates.sort(key=lambda e: (e.claim_id, e.timestamp))
    return estimates


class TestShardResolver:
    def test_explicit_value_wins(self):
        system = DistributedSSTD(
            SSTDSystemConfig(n_workers=4, claims_per_shard=5)
        )
        assert system._claims_per_shard(32) == 5

    def test_auto_targets_one_shard_per_lane(self, monkeypatch):
        monkeypatch.setattr(sstd_system, "_effective_cores", lambda: 4)
        system = DistributedSSTD(SSTDSystemConfig(n_workers=4))
        assert system._claims_per_shard(32) == 8  # 4 lanes -> 4 shards
        assert system._claims_per_shard(3) == 1
        assert system._claims_per_shard(0) == 1

    def test_auto_never_slices_finer_than_the_hardware(self, monkeypatch):
        # 8 configured workers on a 2-core host: 2 lanes, 2 shards —
        # extra shards would multiply kernel overhead with no extra
        # concurrency.
        monkeypatch.setattr(sstd_system, "_effective_cores", lambda: 2)
        system = DistributedSSTD(SSTDSystemConfig(n_workers=8))
        assert system._claims_per_shard(32) == 16

    def test_shard_slicing_covers_all_claims(self):
        shards = DistributedSSTD._make_shards(["a", "b", "c", "d", "e"], 2)
        assert shards == [["a", "b"], ["c", "d"], ["e"]]

    def test_config_rejects_nonpositive_shard(self):
        with pytest.raises(ValueError, match="claims_per_shard"):
            SSTDSystemConfig(claims_per_shard=0)


def serial_by_claim(per_claim_serial):
    by_claim = collections.defaultdict(list)
    for estimate in per_claim_serial:
        by_claim[estimate.claim_id].append(estimate)
    return {cid: tuple(estimates) for cid, estimates in by_claim.items()}


def trace_stack(trace, config):
    grouped = SSTD().group_reports(list(trace.reports))
    claims = [(cid, grouped[cid]) for cid in sorted(grouped)]
    return build_claim_stack(claim_sequences(claims, config))


def estimates_by_claim(results):
    return tuple((r.claim_id, r.estimates) for r in results)


def assert_same_results(actual, expected):
    """Every field of two ``ClaimDecodeResult`` lists, bit for bit."""
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert (got.claim_id, got.used_hmm) == (want.claim_id, want.used_hmm)
        for name in ("times", "codes", "confidences"):
            column, expected = getattr(got, name), getattr(want, name)
            assert column.dtype == expected.dtype
            np.testing.assert_array_equal(column, expected)
        if want.params is None:
            assert got.params is None and got.filter_state is None
            continue
        np.testing.assert_array_equal(got.filter_state, want.filter_state)
        for name in ("startprob", "transmat", "means", "variances"):
            np.testing.assert_array_equal(
                getattr(got.params, name), getattr(want.params, name)
            )


class TestShardPayload:
    def test_spec_survives_pickle(self, trace, per_claim_serial):
        config = SSTDConfig()
        stack = trace_stack(trace, config)
        shard = list(stack.claim_ids[:3])
        owner = stack.publish()
        try:
            spec = shm_shard_task_spec(stack, shard, owner.handle, config)
            clone = pickle.loads(pickle.dumps(spec))
            output = clone()
            original = spec()
        finally:
            owner.close_and_unlink()
        for cloned, column in zip(output, original, strict=True):
            np.testing.assert_array_equal(cloned, column)
        by_claim = serial_by_claim(per_claim_serial)
        assert estimates_by_claim(
            expand_shard_result(stack, shard, *output)
        ) == tuple((cid, by_claim[cid]) for cid in shard)

    def test_shard_output_concatenates_per_claim_payloads(
        self, trace, per_claim_serial
    ):
        config = SSTDConfig()
        stack = trace_stack(trace, config)
        shard = list(stack.claim_ids)
        output = decode_from_stack(stack, shard, config)
        singles = [decode_from_stack(stack, [cid], config) for cid in shard]
        for column, parts in zip(output, zip(*singles), strict=True):
            np.testing.assert_array_equal(column, np.concatenate(parts))
        by_claim = serial_by_claim(per_claim_serial)
        assert estimates_by_claim(
            expand_shard_result(stack, shard, *output)
        ) == tuple((cid, by_claim[cid]) for cid in shard)


class TestClaimStack:
    def test_row_lookup_and_compact_round_trip(self, trace, per_claim_serial):
        """Rows resolve through the id index, and a shard decoded from
        the published stack expands to the serial engine's estimates."""
        config = SSTDConfig()
        stack = trace_stack(trace, config)
        claim_ids = list(stack.claim_ids)
        assert [stack.row_of(cid) for cid in claim_ids] == list(
            range(len(claim_ids))
        )
        with pytest.raises(ValueError, match="not in the stack"):
            stack.row_of("no-such-claim")
        shard = claim_ids[::-2]  # any order, any subset
        output = decode_from_stack(stack, shard, config)
        by_claim = serial_by_claim(per_claim_serial)
        assert estimates_by_claim(
            expand_shard_result(stack, shard, *output)
        ) == tuple((cid, by_claim[cid]) for cid in shard)


def mixed_stack():
    """A hand-built stack: two claims that fit, one sign fallback (too
    few informative windows), one constant fallback and one empty claim."""
    rng = np.random.default_rng(3)
    rows = {
        "fit-long": np.concatenate(
            [rng.normal(-0.8, 0.2, 9), [np.nan] * 2, rng.normal(0.7, 0.2, 7)]
        ),
        "sparse": np.array([np.nan, 0.4, np.nan, -0.2]),
        "empty": np.array([]),
        "fit-short": np.concatenate(
            [rng.normal(0.6, 0.2, 5), rng.normal(-0.6, 0.2, 6)]
        ),
        "constant": np.full(8, 0.25),
    }
    return build_claim_stack(
        [
            (claim_id, 60.0 * np.arange(1, values.size + 1), values)
            for claim_id, values in rows.items()
        ]
    )


def decode_from_stack(stack, shard, config):
    owner = stack.publish()
    try:
        return shm_shard_task_spec(stack, shard, owner.handle, config)()
    finally:
        owner.close_and_unlink()


class TestColumnarResult:
    """Workers ship the decode result's own columns; objects are views."""

    def items(self, stack, shard):
        items = []
        for claim_id in shard:
            row = stack.row_of(claim_id)
            length = stack.lengths[row]
            times = stack.times[row, :length]
            items.append((claim_id, times, stack.values[row, :length]))
        return items

    def test_shard_columns_are_the_estimates_columns(self):
        stack, config = mixed_stack(), SSTDConfig()
        shard = ["constant", "fit-short", "empty", "sparse", "fit-long"]
        codes, confidences, fitted, models = decode_from_stack(
            stack, shard, config
        )
        results = batch_fit_decode(self.items(stack, shard), config)
        assert [r.used_hmm for r in results] == [
            False, True, False, False, True,
        ]  # fmt: skip
        estimates = [e for r in results for e in r.estimates]
        assert codes.dtype == np.int8 and confidences.dtype == np.float64
        assert codes.tolist() == [int(e.value) for e in estimates]
        assert confidences.tolist() == [e.confidence for e in estimates]
        assert any(0.0 < c < 1.0 for c in confidences.tolist())
        # One (K + 4, K) model block per claim that did not fall back.
        assert fitted.tolist() == [r.used_hmm for r in results]
        assert models.shape == (2, 6, 2) and not np.isnan(models).any()

    def test_expand_returns_what_batch_fit_decode_returned(self):
        stack, config = mixed_stack(), SSTDConfig()
        shard = ["constant", "fit-short", "empty", "sparse", "fit-long"]
        expanded = expand_shard_result(
            stack, shard, *decode_from_stack(stack, shard, config)
        )
        assert_same_results(
            expanded, batch_fit_decode(self.items(stack, shard), config)
        )
        assert [r.claim_id for r in expanded] == shard

    def test_shard_of_nothing_decodes_to_empty_columns(self):
        stack, config = mixed_stack(), SSTDConfig()
        for shard in ([], ["empty"]):
            codes, confidences, fitted, models = decode_from_stack(
                stack, shard, config
            )
            assert codes.dtype == np.int8 and codes.size == 0
            assert confidences.dtype == np.float64 and confidences.size == 0
            assert fitted.tolist() == [False] * len(shard) and models.size == 0

    def test_object_views_are_built_once(self):
        stack, config = mixed_stack(), SSTDConfig()
        fitted, sparse, empty = batch_fit_decode(
            self.items(stack, ["fit-long", "sparse", "empty"]), config
        )
        for result in (fitted, sparse, empty):
            assert result.estimates is result.estimates
            assert result.values is result.values
            assert tuple(e.value for e in result.estimates) == result.values
            assert all(
                result.estimate(i) == e for i, e in enumerate(result.estimates)
            )
        assert fitted.estimate(-1) == fitted.estimates[-1]
        assert sparse.params is None and empty.params is None
        assert empty.estimates == () and empty.values == ()
        assert fitted.params.transmat.shape == (2, 2)
        assert fitted.params.means.shape == fitted.params.variances.shape
        assert fitted.params.startprob.sum() == pytest.approx(1.0)

    def test_expand_still_rejects_a_result_of_the_wrong_size(self):
        stack, config = mixed_stack(), SSTDConfig()
        shard = ["fit-long", "sparse"]
        codes, confidences, fitted, models = decode_from_stack(
            stack, shard, config
        )
        with pytest.raises(ValueError, match="expected 22"):
            expand_shard_result(
                stack, shard, codes[:-1], confidences[:-1], fitted, models
            )


class TestShardParityAcrossBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("claims_per_shard", [1, None])
    def test_matches_per_claim_serial_engine(
        self, backend, claims_per_shard, trace, per_claim_serial
    ):
        config = SSTDSystemConfig(
            n_workers=2,
            backend=backend,
            claims_per_shard=claims_per_shard,
            control_enabled=False,
        )
        outcome = DistributedSSTD(config).run_batch(list(trace.reports))
        assert list(outcome.estimates) == per_claim_serial

    @pytest.mark.parametrize("claims_per_shard", [2, 100])
    def test_shard_size_never_changes_estimates(
        self, claims_per_shard, trace, per_claim_serial
    ):
        config = SSTDSystemConfig(
            n_workers=2,
            backend="processes",
            claims_per_shard=claims_per_shard,
            control_enabled=False,
        )
        outcome = DistributedSSTD(config).run_batch(list(trace.reports))
        assert list(outcome.estimates) == per_claim_serial

    def test_sharded_interval_replay_matches_per_claim(self, trace):
        base = SSTDSystemConfig(
            n_workers=2,
            backend="processes",
            deadline=30.0,
            control_enabled=False,
        )
        sharded = DistributedSSTD(base).run_intervals(
            trace, n_intervals=3, compute_estimates=True
        )
        per_claim = DistributedSSTD(
            dataclasses.replace(base, claims_per_shard=1)
        ).run_intervals(trace, n_intervals=3, compute_estimates=True)
        assert sharded.estimates == per_claim.estimates
        seen = [(e.claim_id, e.timestamp) for e in sharded.estimates]
        assert len(seen) == len(set(seen))


class TestZeroCopyParity:
    """The shared-memory data plane is a transport, never a semantics knob."""

    @pytest.mark.parametrize("backend", ["processes"])
    def test_zero_copy_matches_per_claim_serial(
        self, backend, trace, per_claim_serial
    ):
        config = SSTDSystemConfig(
            n_workers=2, backend=backend, control_enabled=False
        )
        outcome = DistributedSSTD(config).run_batch(list(trace.reports))
        assert list(outcome.estimates) == per_claim_serial

    @pytest.mark.parametrize("claims_per_shard", [1, 3, 100])
    def test_zero_copy_shard_size_never_changes_estimates(
        self, claims_per_shard, trace, per_claim_serial
    ):
        config = SSTDSystemConfig(
            n_workers=2,
            backend="processes",
            claims_per_shard=claims_per_shard,
            control_enabled=False,
        )
        outcome = DistributedSSTD(config).run_batch(list(trace.reports))
        assert list(outcome.estimates) == per_claim_serial

    def test_bytes_fallback_matches_per_claim_serial(
        self, monkeypatch, trace, per_claim_serial
    ):
        monkeypatch.setenv("REPRO_SHM", "0")
        for backend in BACKENDS:
            for claims_per_shard in (1, None):
                config = SSTDSystemConfig(
                    n_workers=2,
                    backend=backend,
                    claims_per_shard=claims_per_shard,
                    control_enabled=False,
                )
                outcome = DistributedSSTD(config).run_batch(list(trace.reports))
                assert list(outcome.estimates) == per_claim_serial, (
                    backend,
                    claims_per_shard,
                )

    def test_the_switch_is_gone(self):
        with pytest.raises(TypeError):
            SSTDSystemConfig(zero_copy=True)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_backend_ships_the_compact_stack_result(
        self, backend, monkeypatch, trace
    ):
        # What a task returned is what the master hands to the merge.
        outputs = []

        def recording(stack, claim_ids, codes, confidences, *models):
            outputs.append((codes, confidences))
            return expand_shard_result(
                stack, claim_ids, codes, confidences, *models
            )

        monkeypatch.setattr(sstd_system, "expand_shard_result", recording)
        config = SSTDSystemConfig(
            n_workers=2, backend=backend, claims_per_shard=1
        )
        outcome = DistributedSSTD(config).run_batch(list(trace.reports))
        assert len(outputs) == outcome.n_jobs == 7
        for codes, confidences in outputs:
            assert codes.dtype == np.int8 and confidences.dtype == np.float64
            assert codes.shape == confidences.shape and codes.ndim == 1
        assert sum(codes.size for codes, _ in outputs) == len(outcome.estimates)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interval_replay_matches_serial(
        self, backend, monkeypatch, trace, serial_replay
    ):
        # One interval semantics: every backend, shard size and data
        # plane replays the intervals as the serial streaming engine,
        # estimates equal field for field (confidence included).
        for claims_per_shard in (1, None):
            for shm_env in (None, "0"):
                if shm_env is None:
                    monkeypatch.delenv("REPRO_SHM", raising=False)
                else:
                    monkeypatch.setenv("REPRO_SHM", shm_env)
                config = SSTDSystemConfig(
                    n_workers=2,
                    backend=backend,
                    claims_per_shard=claims_per_shard,
                    deadline=30.0,
                    control_enabled=False,
                )
                replay = DistributedSSTD(config).run_intervals(
                    trace, n_intervals=3, compute_estimates=True
                )
                case = (claims_per_shard, shm_env)
                assert list(replay.estimates) == serial_replay, case
                seen = {(e.claim_id, e.timestamp) for e in replay.estimates}
                assert len(seen) == len(replay.estimates), case

    def test_the_interval_reference_refits(self, serial_replay):
        # Not a vacuous reference: refits (their estimates carry a
        # smoothed confidence below 1) happen, on a minority of ticks.
        refitted = sum(1 for e in serial_replay if e.confidence < 1.0)
        assert 0 < refitted < len(serial_replay) / 4

    def test_payload_size_is_independent_of_report_volume(self, trace):
        # A task carries ids + row offsets + a handle, so ten times the
        # reports over the same claims and grid pickle to the same
        # bytes; the result is two columns over the grid and one model
        # row per claim.  (In bytes
        # mode the stack rides in the handle: still one size per grid.)
        config = SSTDSystemConfig(
            n_workers=2, backend="processes", claims_per_shard=4
        )

        def sizes(reports, end):
            outcome = DistributedSSTD(config).run_batch(
                reports, start=0.0, end=end
            )
            assert outcome.n_tasks == 2
            return outcome.payload_bytes_per_task, outcome.result_bytes_per_task

        small = sizes(list(trace.reports), 3600.0)
        large = sizes(list(make_trace(5000).reports), 3600.0)
        assert None not in small
        assert large == small
        longer = sizes(list(trace.reports), 7200.0)
        assert longer[1] > small[1]
        if shm.shm_available():
            assert longer[0] == small[0]
