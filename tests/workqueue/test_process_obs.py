"""Observability on the process backend: fault counters match injected faults.

The regression these tests pin down: worker-death retries are invisible
in results (a retried task still reports ``ok``), so the *only* record
of the fault path is the metric/event stream.  Each test injects a known
number of faults and asserts the counters agree exactly.
"""

from repro.obs import Observability
from repro.workqueue import PayloadSpec, ProcessWorkQueue, Task

from tests.workqueue.test_process import die_always, die_unless_marker, double


def _make_wq(n_workers: int = 2) -> ProcessWorkQueue:
    return ProcessWorkQueue(n_workers=n_workers, obs=Observability())


def _events(wq: ProcessWorkQueue, name: str) -> list:
    return [e for e in wq.obs.tracer.events() if e.name == name]


class TestWorkerDeathCounters:
    def test_one_injected_death_one_retry_one_respawn(self, tmp_path):
        wq = _make_wq()
        try:
            marker = tmp_path / "attempted"
            wq.submit(
                Task(
                    job_id="fragile",
                    fn=PayloadSpec(die_unless_marker, (str(marker),)),
                )
            )
            (result,) = wq.drain(timeout=30.0)
            assert result.ok and result.output == "survived"

            metrics = wq.obs.metrics.snapshot()
            assert metrics.counter("wq.worker_death") == 1.0
            assert metrics.counter("wq.worker_respawn") == 1.0
            assert metrics.counter("wq.requeued") == 1.0
            assert metrics.counter("wq.completed") == 1.0
            assert metrics.counter("wq.failed") == 0.0
            # Initial pool + one replacement.
            assert metrics.counter("wq.worker_spawned") == 3.0
            # Two dispatches reached workers: the fatal one and the retry.
            assert metrics.counter("wq.dispatched") == 2.0
        finally:
            wq.shutdown()

    def test_multiple_injected_deaths_counted_exactly(self, tmp_path):
        n_faults = 3
        wq = _make_wq()
        try:
            for k in range(n_faults):
                marker = tmp_path / f"attempted-{k}"
                wq.submit(
                    Task(
                        job_id=f"fragile-{k}",
                        fn=PayloadSpec(die_unless_marker, (str(marker),)),
                    )
                )
            results = wq.drain(timeout=30.0)
            assert sorted(r.output for r in results) == ["survived"] * n_faults

            metrics = wq.obs.metrics.snapshot()
            assert metrics.counter("wq.worker_death") == float(n_faults)
            assert metrics.counter("wq.worker_respawn") == float(n_faults)
            assert metrics.counter("wq.requeued") == float(n_faults)
            assert metrics.counter("wq.completed") == float(n_faults)
            assert metrics.counter("wq.failed") == 0.0

            death_events = _events(wq, "wq.worker_death")
            assert len(death_events) == n_faults
            assert all(
                e.attr_dict()["reason"] == "died" for e in death_events
            )
            requeues = _events(wq, "wq.requeue")
            assert len(requeues) == n_faults
            assert all(
                e.attr_dict()["reason"].startswith("worker ")
                for e in requeues
            )
        finally:
            wq.shutdown()

    def test_exhausted_retries_counted_as_failed(self):
        wq = _make_wq(n_workers=1)
        try:
            wq.submit(
                Task(job_id="doomed", fn=PayloadSpec(die_always), max_retries=1)
            )
            (result,) = wq.drain(timeout=30.0)
            assert not result.ok

            metrics = wq.obs.metrics.snapshot()
            # Two attempts: two deaths and respawns, one requeue (the
            # second death exhausts the budget and fails the task).
            assert metrics.counter("wq.worker_death") == 2.0
            assert metrics.counter("wq.worker_respawn") == 2.0
            assert metrics.counter("wq.requeued") == 1.0
            assert metrics.counter("wq.failed") == 1.0
            assert metrics.counter("wq.completed") == 0.0
            (failed,) = _events(wq, "wq.task_failed")
            assert failed.attr_dict()["attempts"] == 2
        finally:
            wq.shutdown()

    def test_clean_run_records_no_fault_counters(self):
        wq = _make_wq()
        try:
            for k in range(4):
                wq.submit(Task(job_id="j", fn=PayloadSpec(double, (k,))))
            results = wq.drain(timeout=30.0)
            assert len(results) == 4

            metrics = wq.obs.metrics.snapshot()
            assert metrics.counter("wq.worker_death") == 0.0
            assert metrics.counter("wq.worker_respawn") == 0.0
            assert metrics.counter("wq.requeued") == 0.0
            assert metrics.counter("wq.completed") == 4.0
            # Merged from worker snapshots across the process boundary.
            assert metrics.counter("worker.tasks") == 4.0
            assert metrics.counter("worker.task_errors") == 0.0
            assert len(_events(wq, "wq.task")) == 4
        finally:
            wq.shutdown()


class TestDisabledPath:
    def test_disabled_recorder_stays_empty(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        wq = ProcessWorkQueue(n_workers=1)
        try:
            assert not wq.obs.enabled
            wq.submit(Task(job_id="j", fn=PayloadSpec(double, (2,))))
            (result,) = wq.drain(timeout=30.0)
            assert result.output == 4
            assert result.metrics is None  # workers did not record
            assert wq.obs.tracer.events() == []
            assert wq.obs.metrics.snapshot().counters == {}
        finally:
            wq.shutdown()


class TestCrossProcessStitching:
    """Worker spans are rebased onto the master clockline (PR 9).

    The acceptance property: after the clock-offset handshake, every
    rebased ``worker.task`` span starts at or after the master's
    ``wq.dispatch`` instant for the same task — causality holds in the
    merged timeline even though the two processes run separate clocks.
    """

    def test_rebased_worker_spans_follow_dispatch(self):
        n_tasks = 6
        wq = _make_wq(n_workers=2)
        try:
            for k in range(n_tasks):
                wq.submit(Task(job_id=f"j{k}", fn=PayloadSpec(double, (k,))))
            results = wq.drain(timeout=30.0)
            assert sorted(r.output for r in results) == [
                2 * k for k in range(n_tasks)
            ]

            events = wq.obs.tracer.events()
            dispatches = {
                e.attr_dict()["task_id"]: e
                for e in events
                if e.name == "wq.dispatch"
            }
            worker_spans = [e for e in events if e.name == "worker.task"]
            assert len(dispatches) == n_tasks
            assert len(worker_spans) == n_tasks

            # Both workers were clock-synced at spawn...
            assert sorted(wq.obs.stitch) == ["proc-worker-0", "proc-worker-1"]
            for sync in wq.obs.stitch.values():
                assert sync.rtt >= 0
                assert sync.uncertainty >= 0
            # ...and every span was stitched (none arrived pre-sync).
            assert (
                wq.obs.metrics.snapshot().counter("wq.unstitched_spans")
                == 0.0
            )

            for span in worker_spans:
                task_id = span.attr_dict()["task_id"]
                dispatch = dispatches[task_id]
                # Rebased tracks carry the worker name, and the rebased
                # start never precedes the dispatch that caused it.
                assert span.track == dispatch.attr_dict()["worker"]
                assert span.start >= dispatch.start
        finally:
            wq.shutdown()

    def test_worker_tracks_merged_into_master_timeline(self):
        wq = _make_wq(n_workers=2)
        try:
            for k in range(4):
                wq.submit(Task(job_id=f"j{k}", fn=PayloadSpec(double, (k,))))
            wq.drain(timeout=30.0)
            tracks = {e.track for e in wq.obs.tracer.events()}
            assert {"proc-worker-0", "proc-worker-1"} <= tracks
        finally:
            wq.shutdown()
