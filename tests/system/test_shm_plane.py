"""Tests for the zero-copy shared-memory data plane (repro.system.shm).

Lifecycle is the whole point: a segment must exist exactly from
``publish_arrays`` to ``close_and_unlink``, across worker attachments,
worker deaths, and interrupted runs.  A leaked ``/dev/shm`` entry
outlives the interpreter, so every test here checks the filesystem, not
just Python-side state.
"""

import os

import numpy as np
import pytest

from repro.system import shm
from repro.system.shm import (
    SEGMENT_PREFIX,
    SegmentHandle,
    attach,
    publish_arrays,
    shm_available,
)
from repro.workqueue.process import ProcessWorkQueue
from repro.workqueue.task import PayloadSpec, Task

SHM_DIR = "/dev/shm"

#: Tests that look for a real ``/dev/shm`` entry; the inline-bytes
#: handle (``REPRO_SHM=0``, or a host without shared memory) has none.
needs_real_segment = pytest.mark.skipif(
    not shm_available(), reason="shared memory is off: no segment to find"
)


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join(SHM_DIR, name))


def _sample_arrays() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(3)
    return {
        "times": rng.normal(size=(4, 9)),
        "values": rng.normal(size=(4, 9)),
        "lengths": np.array([9, 3, 0, 7], dtype=np.int64),
    }


# ---------------------------------------------------------------------------
# Module-level payloads (PayloadSpec discipline).
# ---------------------------------------------------------------------------
def read_row_sum(handle, key, row):
    with attach(handle) as segment:
        value = float(np.nansum(segment.array(key)[row]))
    return value


def attach_then_die(handle, marker):
    """Attach to the segment, then kill the worker hard on first run."""
    with attach(handle) as segment:
        total = float(np.nansum(segment.array("times")))
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8"):
                pass
            os._exit(17)
    return total


class TestPublishAttachRoundTrip:
    @needs_real_segment
    def test_shm_round_trip(self):
        arrays = _sample_arrays()
        owner = publish_arrays(arrays)
        try:
            assert owner.handle.kind == "shm"
            assert owner.handle.name.startswith(SEGMENT_PREFIX)
            assert _segment_exists(owner.handle.name)
            with attach(owner.handle) as segment:
                for key, expected in arrays.items():
                    got = segment.array(key)
                    assert got.dtype == expected.dtype
                    np.testing.assert_array_equal(got, expected)
        finally:
            owner.close_and_unlink()

    def test_views_are_read_only(self):
        owner = publish_arrays(_sample_arrays())
        try:
            with attach(owner.handle) as segment:
                view = segment.array("times")
                with pytest.raises(ValueError):
                    view[0, 0] = 1.0
        finally:
            owner.close_and_unlink()

    @needs_real_segment
    def test_handle_is_compact_and_picklable(self):
        import pickle

        arrays = _sample_arrays()
        owner = publish_arrays(arrays)
        try:
            blob = pickle.dumps(owner.handle)
            # The handle must not smuggle the data: it is a name + specs.
            assert len(blob) < sum(a.nbytes for a in arrays.values())
            restored = pickle.loads(blob)
            with attach(restored) as segment:
                np.testing.assert_array_equal(
                    segment.array("lengths"), arrays["lengths"]
                )
        finally:
            owner.close_and_unlink()

    def test_unknown_key_raises(self):
        owner = publish_arrays(_sample_arrays())
        try:
            with attach(owner.handle) as segment:
                with pytest.raises(KeyError, match="nope"):
                    segment.array("nope")
        finally:
            owner.close_and_unlink()


class TestBytesFallback:
    def test_env_forces_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        assert not shm_available()
        arrays = _sample_arrays()
        owner = publish_arrays(arrays)
        owner.close_and_unlink()  # no OS resource; must still be callable
        assert owner.handle.kind == "bytes"
        assert owner.handle.payload is not None
        with attach(owner.handle) as segment:
            for key, expected in arrays.items():
                np.testing.assert_array_equal(segment.array(key), expected)

    def test_fallback_views_read_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        owner = publish_arrays(_sample_arrays())
        try:
            with attach(owner.handle) as segment:
                with pytest.raises(ValueError):
                    segment.array("values")[0, 0] = 1.0
        finally:
            owner.close_and_unlink()

    def test_handle_validation(self):
        with pytest.raises(ValueError, match="segment name"):
            SegmentHandle(kind="shm", name=None, size=1, specs=())
        with pytest.raises(ValueError, match="inline payload"):
            SegmentHandle(kind="bytes", name=None, size=1, specs=())
        with pytest.raises(ValueError, match="kind"):
            SegmentHandle(kind="mmap", name="x", size=1, specs=())


@needs_real_segment
class TestLifecycle:
    def test_unlink_removes_dev_shm_entry(self):
        owner = publish_arrays(_sample_arrays())
        name = owner.handle.name
        try:
            assert _segment_exists(name)
        finally:
            owner.close_and_unlink()
        assert not _segment_exists(name)

    def test_close_and_unlink_idempotent(self):
        owner = publish_arrays(_sample_arrays())
        owner.close_and_unlink()
        owner.close_and_unlink()
        assert not _segment_exists(owner.handle.name)

    def test_unlink_safe_while_attached(self):
        # POSIX semantics: the name goes away immediately; live mappings
        # keep reading valid data until they close.
        arrays = _sample_arrays()
        owner = publish_arrays(arrays)
        try:
            with attach(owner.handle) as segment:
                owner.close_and_unlink()
                assert not _segment_exists(owner.handle.name)
                np.testing.assert_array_equal(
                    segment.array("times"), arrays["times"]
                )
        finally:
            owner.close_and_unlink()  # idempotent

    def test_worker_attachment_round_trip(self):
        arrays = _sample_arrays()
        owner = publish_arrays(arrays)
        try:
            wq = ProcessWorkQueue(n_workers=1)
            try:
                wq.submit(
                    Task(
                        job_id="read",
                        fn=PayloadSpec(read_row_sum, (owner.handle, "times", 1)),
                    )
                )
                [result] = wq.drain(timeout=60.0)
            finally:
                wq.shutdown()
        finally:
            owner.close_and_unlink()
        assert result.ok
        assert result.output == pytest.approx(float(np.nansum(arrays["times"][1])))
        assert not _segment_exists(owner.handle.name)

    def test_foreign_attach_skips_tracker_registration(self, monkeypatch):
        # A worker forked before the master's resource tracker started
        # would lazily spawn its own tracker on attach-registration and
        # warn about phantom leaks at exit; foreign-pid attaches must
        # therefore never register (3.13 track=False semantics).
        from multiprocessing import resource_tracker, shared_memory

        # A segment whose name claims a pid that is not ours.
        foreign_name = f"{shm.SEGMENT_PREFIX}1_feedface"
        segment = shared_memory.SharedMemory(
            name=foreign_name, create=True, size=64
        )
        try:
            handle = shm.SegmentHandle(
                kind="shm", name=foreign_name, size=64, specs=()
            )
            own = publish_arrays(_sample_arrays())
            registered = []
            try:
                monkeypatch.setattr(
                    resource_tracker,
                    "register",
                    lambda name, rtype: registered.append((name, rtype)),
                )
                attach(handle).close()
                assert registered == []
                # Same-process attach keeps the normal (no-op
                # re-)registration.
                attach(own.handle).close()
                assert [rtype for _, rtype in registered] == ["shared_memory"]
            finally:
                own.close_and_unlink()
                monkeypatch.undo()
        finally:
            segment.close()
            segment.unlink()

    def test_cleanup_survives_worker_death(self, tmp_path):
        # A worker that dies mid-attachment must not pin or corrupt the
        # segment: the retry succeeds and the master's unlink still wins.
        arrays = _sample_arrays()
        owner = publish_arrays(arrays)
        marker = tmp_path / "attempted"
        try:
            wq = ProcessWorkQueue(n_workers=1)
            try:
                wq.submit(
                    Task(
                        job_id="fragile",
                        fn=PayloadSpec(
                            attach_then_die, (owner.handle, str(marker))
                        ),
                    )
                )
                [result] = wq.drain(timeout=60.0)
            finally:
                wq.shutdown()
        finally:
            owner.close_and_unlink()
        assert marker.exists()
        assert result.ok
        assert result.output == pytest.approx(float(np.nansum(arrays["times"])))
        assert not _segment_exists(owner.handle.name)


class _InterruptedExecutor:
    """Stub executor whose drain simulates a mid-run interrupt."""

    def submit(self, task):
        pass

    def drain(self, timeout=None):
        raise KeyboardInterrupt

    def shutdown(self):
        pass


def _repro_segments() -> set[str]:
    return {n for n in os.listdir(SHM_DIR) if n.startswith(SEGMENT_PREFIX)}


class TestRunScopeCleanup:
    @pytest.fixture()
    def reports(self):
        from repro.streams.events import PopulationConfig, ScenarioSpec
        from repro.streams.generator import GeneratorConfig, generate_trace

        spec = ScenarioSpec(
            name="interrupt",
            duration=600.0,
            n_reports=80,
            n_claims=3,
            claim_texts=("x",),
            topic="t",
            mean_truth_flips=1.0,
            population=PopulationConfig(n_sources=20),
        )
        trace = generate_trace(
            spec, seed=5, config=GeneratorConfig(with_text=False)
        )
        return trace.reports

    def test_interrupted_batch_unlinks_segment(self, monkeypatch, reports):
        from repro.system.sstd_system import DistributedSSTD, SSTDSystemConfig

        system = DistributedSSTD(
            SSTDSystemConfig(backend="processes", n_workers=2)
        )
        monkeypatch.setattr(
            system, "_make_executor", lambda *a, **k: _InterruptedExecutor()
        )
        before = _repro_segments()
        with pytest.raises(KeyboardInterrupt):
            system.run_batch(reports)
        assert _repro_segments() - before == set()

    def test_failed_simulated_batch_unlinks_segment(self, monkeypatch, reports):
        from repro.system import jobs
        from repro.system.sstd_system import DistributedSSTD, SSTDSystemConfig

        before = _repro_segments()
        live = []

        def failing_decode(items, config):
            live.append(_repro_segments() - before)
            raise RuntimeError("decode failed")

        monkeypatch.setattr(jobs, "batch_fit_decode", failing_decode)
        system = DistributedSSTD(
            SSTDSystemConfig(backend="simulated", n_workers=2)
        )
        with pytest.raises(RuntimeError, match="decode failed"):
            system.run_batch(reports)
        assert len(live) == 1
        if shm_available():
            assert len(live[0]) == 1  # the payload ran against a live segment
        assert _repro_segments() - before == set()
