"""Payload/result byte accounting on the process backend.

The zero-copy data plane's win is only provable if the executor reports
how many bytes each task actually shipped across the process boundary.
These tests pin the accounting channel itself: ``TaskResult`` fields
and the ``wq.payload_bytes`` / ``wq.result_bytes`` histograms.
"""

import pickle

from repro.obs import Observability
from repro.workqueue import PayloadSpec, ProcessWorkQueue, Task

from tests.workqueue.test_process import double


def _make_wq(n_workers: int = 1) -> ProcessWorkQueue:
    return ProcessWorkQueue(n_workers=n_workers, obs=Observability())


class TestProcessByteAccounting:
    def test_result_reports_serialized_sizes(self):
        wq = _make_wq()
        try:
            task = Task(job_id="j", fn=PayloadSpec(double, (21,)))
            # The executor pickles at the default protocol; mirror it.
            expected_payload = len(pickle.dumps(task.fn))
            wq.submit(task)
            (result,) = wq.drain(timeout=30.0)
        finally:
            wq.shutdown()
        assert result.ok and result.output == 42
        assert result.payload_bytes == expected_payload
        assert task.payload_bytes == expected_payload
        assert result.result_bytes == len(pickle.dumps(42))

    def test_histograms_record_every_task(self):
        n_tasks = 4
        wq = _make_wq(n_workers=2)
        try:
            for k in range(n_tasks):
                wq.submit(Task(job_id=f"j{k}", fn=PayloadSpec(double, (k,))))
            results = wq.drain(timeout=30.0)
        finally:
            wq.shutdown()
        assert len(results) == n_tasks
        metrics = wq.obs.metrics.snapshot()
        payload_hist = metrics.histogram("wq.payload_bytes")
        result_hist = metrics.histogram("wq.result_bytes")
        assert payload_hist.count == n_tasks
        assert result_hist.count == n_tasks
        assert payload_hist.total == sum(r.payload_bytes for r in results)
        assert result_hist.total == sum(r.result_bytes for r in results)

    def test_payload_sizes_scale_with_argument_size(self):
        wq = _make_wq()
        try:
            small = Task(job_id="small", fn=PayloadSpec(len, ("x",)))
            large = Task(job_id="large", fn=PayloadSpec(len, ("x" * 100_000,)))
            wq.submit(small)
            wq.submit(large)
            results = {r.job_id: r for r in wq.drain(timeout=30.0)}
        finally:
            wq.shutdown()
        assert results["large"].payload_bytes > 100_000
        assert results["small"].payload_bytes < 1_000

