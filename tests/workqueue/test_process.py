"""Tests for the multiprocessing-backed Work Queue executor."""

import os
import pickle
import time

import pytest

from repro.workqueue import PayloadSpec, ProcessWorkQueue, Task, TaskError


# ---------------------------------------------------------------------------
# Module-level payloads: process tasks must be picklable by reference.
# ---------------------------------------------------------------------------
def double(x):
    return x * 2


def boom():
    raise RuntimeError("kaput")


def die_unless_marker(path):
    """Kill the worker process hard on first run, succeed on retries."""
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8"):
            pass
        os._exit(17)
    return "survived"


def touch(path):
    with open(path, "w", encoding="utf-8"):
        pass
    return "touched"


def die_always():
    os._exit(1)


def sleep_forever():
    time.sleep(60.0)


def rendezvous(arrived, peer):
    """Mark ``arrived``, then wait for ``peer``: True only if both overlap."""
    with open(arrived, "w", encoding="utf-8"):
        pass
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if os.path.exists(peer):
            return True
        time.sleep(0.01)
    return False


@pytest.fixture
def wq():
    queue = ProcessWorkQueue(n_workers=2)
    yield queue
    queue.shutdown()


class TestPayloadSpec:
    def test_callable(self):
        assert PayloadSpec(double, (21,))() == 42

    def test_kwargs(self):
        assert PayloadSpec(int, ("ff",), {"base": 16})() == 255

    def test_rejects_lambda(self):
        with pytest.raises(ValueError, match="module-level"):
            PayloadSpec(lambda: 1)

    def test_rejects_closure(self):
        def local():
            return 1

        with pytest.raises(ValueError, match="module-level"):
            PayloadSpec(local)

    def test_round_trips_pickle(self):
        spec = PayloadSpec(double, (5,))
        assert pickle.loads(pickle.dumps(spec))() == 10


class TestTaskError:
    def test_from_exception(self):
        try:
            raise ValueError("bad input")
        except ValueError as exc:
            error = TaskError.from_exception(exc)
        assert error.type_name == "ValueError"
        assert "bad input" in str(error)
        assert "ValueError" in error.traceback

    def test_picklable(self):
        error = TaskError(type_name="RuntimeError", message="x", traceback="tb")
        assert pickle.loads(pickle.dumps(error)) == error


class TestProcessWorkQueue:
    def test_executes_payloads(self, wq):
        for k in range(5):
            wq.submit(Task(job_id="j", fn=PayloadSpec(double, (k,))))
        results = wq.drain(timeout=30.0)
        assert sorted(r.output for r in results) == [0, 2, 4, 6, 8]
        assert all(r.ok for r in results)

    def test_task_error_captured_not_raised(self, wq):
        wq.submit(Task(job_id="j", fn=PayloadSpec(boom)))
        (result,) = wq.drain(timeout=30.0)
        assert not result.ok
        assert isinstance(result.error, TaskError)
        assert "kaput" in str(result.error)
        assert "RuntimeError" in result.error.traceback

    def test_closure_payload_rejected_at_submit(self, wq):
        with pytest.raises(ValueError, match="process boundary"):
            wq.submit(Task(job_id="j", fn=lambda: 1))

    def test_payload_required(self, wq):
        with pytest.raises(ValueError, match="callable"):
            wq.submit(Task(job_id="j"))

    def test_drain_empty(self, wq):
        assert wq.drain(timeout=1.0) == []

    def test_concurrent_execution(self, wq, tmp_path):
        """Two tasks on two workers overlap in wall time."""
        a, b = tmp_path / "a", tmp_path / "b"
        wq.submit(Task(job_id="a", fn=PayloadSpec(rendezvous, (a, b))))
        wq.submit(Task(job_id="b", fn=PayloadSpec(rendezvous, (b, a))))
        results = wq.drain(timeout=30.0)
        assert [r.output for r in results] == [True, True]

    def test_dispatches_in_submission_order(self):
        wq = ProcessWorkQueue(n_workers=1)
        try:
            for k in range(6):
                wq.submit(Task(job_id=f"j{k}", fn=PayloadSpec(double, (k,))))
            outputs = [r.output for r in wq.drain(timeout=30.0)]
        finally:
            wq.shutdown()
        assert outputs == [2 * k for k in range(6)]

    def test_submit_after_shutdown_rejected(self):
        wq = ProcessWorkQueue(n_workers=1)
        wq.shutdown()
        with pytest.raises(RuntimeError):
            wq.submit(Task(job_id="j", fn=PayloadSpec(double, (1,))))

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            ProcessWorkQueue(n_workers=0).shutdown()

    def test_wall_time_recorded(self, wq):
        wq.submit(Task(job_id="j", fn=PayloadSpec(time.sleep, (0.05,))))
        (result,) = wq.drain(timeout=30.0)
        assert result.wall_time >= 0.05

    def test_submit_dispatches_to_an_idle_worker(self, wq, tmp_path):
        """``submit`` hands the task over at once: it runs before anyone
        calls ``drain``."""
        marker = tmp_path / "ran"
        wq.submit(Task(job_id="j", fn=PayloadSpec(touch, (str(marker),))))
        deadline = time.monotonic() + 10.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert marker.exists()
        (result,) = wq.drain(timeout=30.0)
        assert result.output == "touched"

    def test_results_round_trip_pickle(self, wq):
        """Results (including errors) survive serialization intact."""
        wq.submit(Task(job_id="ok", fn=PayloadSpec(double, (3,))))
        wq.submit(Task(job_id="bad", fn=PayloadSpec(boom)))
        results = wq.drain(timeout=30.0)
        restored = pickle.loads(pickle.dumps(results))
        assert {r.job_id: r.ok for r in restored} == {"ok": True, "bad": False}


class TestWorkerDeath:
    def test_task_retried_after_worker_death(self, wq, tmp_path):
        marker = tmp_path / "attempted"
        wq.submit(
            Task(job_id="fragile", fn=PayloadSpec(die_unless_marker, (str(marker),)))
        )
        (result,) = wq.drain(timeout=30.0)
        assert result.ok
        assert result.output == "survived"

    def test_retries_exhausted_reports_worker_lost(self):
        wq = ProcessWorkQueue(n_workers=1)
        try:
            wq.submit(Task(job_id="doomed", fn=PayloadSpec(die_always), max_retries=1))
            (result,) = wq.drain(timeout=30.0)
            assert not result.ok
            assert result.error.type_name == "WorkerLost"
            assert "2 attempt" in result.error.message
        finally:
            wq.shutdown()

    def test_pool_survives_death_for_later_tasks(self, wq, tmp_path):
        """A replacement worker is spawned, so the pool keeps serving."""
        marker = tmp_path / "attempted"
        wq.submit(
            Task(job_id="fragile", fn=PayloadSpec(die_unless_marker, (str(marker),)))
        )
        wq.drain(timeout=30.0)
        wq.submit(Task(job_id="after", fn=PayloadSpec(double, (8,))))
        (result,) = wq.drain(timeout=30.0)
        assert result.output == 16


class TestTimeouts:
    def test_task_timeout_enforced(self):
        wq = ProcessWorkQueue(n_workers=1)
        try:
            wq.submit(
                Task(
                    job_id="slow",
                    fn=PayloadSpec(sleep_forever),
                    timeout=0.3,
                    max_retries=0,
                )
            )
            start = time.monotonic()
            (result,) = wq.drain(timeout=30.0)
            assert time.monotonic() - start < 10.0
            assert not result.ok
            assert "timeout" in result.error.message
        finally:
            wq.shutdown()
