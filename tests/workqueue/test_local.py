"""Tests for the thread-backed local Work Queue executor."""

import pickle
import threading
import time

import pytest

from repro.workqueue import LocalWorkQueue, Task, TaskError


@pytest.fixture
def wq():
    queue = LocalWorkQueue(n_workers=2)
    yield queue
    queue.shutdown()


class TestLocalWorkQueue:
    def test_executes_payloads(self, wq):
        for k in range(5):
            wq.submit(Task(job_id="j", fn=lambda k=k: k * 2))
        results = wq.drain()
        assert sorted(r.output for r in results) == [0, 2, 4, 6, 8]
        assert all(r.ok for r in results)

    def test_concurrent_execution(self, wq):
        """Two sleeping tasks on two workers overlap in wall time."""
        barrier = threading.Barrier(2, timeout=5.0)

        def rendezvous():
            barrier.wait()  # deadlocks unless both run concurrently
            return True

        wq.submit(Task(job_id="a", fn=rendezvous))
        wq.submit(Task(job_id="b", fn=rendezvous))
        results = wq.drain(timeout=10.0)
        assert all(r.output for r in results)

    def test_task_error_captured_not_raised(self, wq):
        def boom():
            raise RuntimeError("kaput")

        wq.submit(Task(job_id="j", fn=boom))
        (result,) = wq.drain()
        assert not result.ok
        assert "kaput" in str(result.error)

    def test_error_is_picklable_task_error(self, wq):
        """Failures are TaskError data, identical across backends."""

        def boom():
            raise ValueError("serialization-safe")

        wq.submit(Task(job_id="j", fn=boom))
        (result,) = wq.drain()
        assert isinstance(result.error, TaskError)
        assert result.error.type_name == "ValueError"
        assert "boom" in result.error.traceback
        restored = pickle.loads(pickle.dumps(result))
        assert restored.error == result.error

    def test_payload_required(self, wq):
        with pytest.raises(ValueError, match="callable"):
            wq.submit(Task(job_id="j"))

    def test_drain_empty(self, wq):
        assert wq.drain(timeout=1.0) == []

    def test_dispatches_in_submission_order(self):
        wq = LocalWorkQueue(n_workers=1)
        try:
            for k in range(8):
                wq.submit(Task(job_id=f"j{k}", fn=lambda k=k: k))
            outputs = [r.output for r in wq.drain(timeout=10.0)]
        finally:
            wq.shutdown()
        assert outputs == list(range(8))

    def test_submit_after_shutdown_rejected(self):
        wq = LocalWorkQueue(n_workers=1)
        wq.shutdown()
        with pytest.raises(RuntimeError):
            wq.submit(Task(job_id="j", fn=lambda: 1))

    def test_wall_time_recorded(self, wq):
        wq.submit(Task(job_id="j", fn=lambda: time.sleep(0.05)))
        (result,) = wq.drain()
        assert result.wall_time >= 0.05

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            LocalWorkQueue(n_workers=0)
