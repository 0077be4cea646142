"""Process-backed Work Queue executor: real parallelism on real cores.

CPU-bound Truth Discovery work (Baum-Welch, Viterbi) holds the GIL, so
:class:`ProcessWorkQueue` executes payloads in worker *processes*, which
is what the paper's Work Queue deployment actually does (Section IV-A):
one master, N single-task workers, tasks shipped to whichever worker is
free.  It is the one real-core executor; the simulated
:class:`~repro.workqueue.master.WorkQueueMaster` models the cluster in
virtual time.

The master runs on the caller's thread.  Each worker talks to it over
its own duplex pipe and sends on its own main thread, so no lock is
shared between processes: a worker that dies mid-send can truncate only
its own pipe, never wedge a sibling's results.  ``submit`` hands a task
to an idle worker at once; ``drain`` is the master's loop — it waits on
every worker's pipe and process sentinel, reads results, reaps dead or
timed-out workers, and dispatches the backlog.  Nothing needs the
master between ``submit`` and ``drain`` (workers run on their own), so
the executor starts no thread.

Design points, mirroring Work Queue's fault model:

- **Picklable payloads.**  Tasks must carry a payload that survives a
  process boundary — a :class:`repro.workqueue.task.PayloadSpec`
  (module-level function + args) rather than a closure.  Closures are
  rejected at submit time with a pointed error.
- **Bounded in-flight dispatch.**  Each worker holds at most one task;
  the master keeps the backlog and feeds workers as they free up, in
  submission order.  No task data is serialized before a worker is
  ready for it.
- **Per-task timeout.**  A task that exceeds ``task.timeout`` has its
  worker terminated and is retried (Work Queue's straggler defense).
- **Retry on worker death.**  Death is read from the process sentinel.
  The dead worker's pipe is read once more, so a result sent just
  before death still counts; otherwise the task is re-queued (up to
  ``task.max_retries``) and a replacement worker is spawned, matching
  the re-queue semantics of the simulated master.

Failures are always reported as data: a task that exhausts its retries
yields a result whose ``error`` is a picklable
:class:`repro.workqueue.task.TaskError`, never a raised exception.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
from collections import deque
from typing import Any, Optional

from repro.obs import BYTE_BUCKETS, MetricsSnapshot, Observability, WallClock, using
from repro.obs.stitch import ClockSync, rebase_events
from repro.workqueue.task import Task, TaskError

__all__ = [
    "LocalResult",
    "ProcessWorkQueue",
]

#: Sentinel tag routing clock-offset handshake tuples through the same
#: pipe as tasks and results.  Probe (master -> worker): ``(_HANDSHAKE,
#: t0)``; reply (worker -> master): ``(_HANDSHAKE, name, t0, w1)``.  A
#: pipe is FIFO, so the probe precedes every dispatch and the reply
#: precedes every result: the master always holds a
#: :class:`~repro.obs.stitch.ClockSync` before it must rebase.
_HANDSHAKE = "__clock_sync__"


@dataclasses.dataclass(frozen=True, slots=True)
class LocalResult:
    """Completion record of a task run on a worker process.

    ``error`` is a picklable :class:`repro.workqueue.task.TaskError`
    (never a raw exception object).  ``metrics`` carries the worker-side
    :class:`repro.obs.MetricsSnapshot` for this task, the channel that
    ships engine metrics back to the master; ``None`` when tracing is
    off.  ``payload_bytes`` / ``result_bytes`` are the serialized sizes
    the task actually shipped across the process boundary (payload out,
    output back): ``payload_bytes`` is ``None`` for a payload that
    failed to pickle, ``result_bytes`` for a task that never came back.
    The parallel-backend benchmark and the ``wq.payload_bytes`` /
    ``wq.result_bytes`` histograms read the same numbers, so the bench
    and a live operator agree.
    """

    task_id: int
    job_id: str
    worker_name: str
    output: Any
    wall_time: float
    error: Optional[TaskError] = None
    metrics: Optional[MetricsSnapshot] = None
    payload_bytes: Optional[int] = None
    result_bytes: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _worker_main(conn: Any, worker_name: str, record_metrics: bool = False) -> None:
    """Worker process loop: run pickled payloads, report results.

    The payload arrives pre-pickled (the master controls serialization
    errors explicitly) and the output is pre-pickled on the way back, so
    an unpicklable output comes back as a task error, not a dead worker.

    With ``record_metrics`` the worker installs a fresh ambient
    :class:`~repro.obs.Observability` per task, so engine code running
    in the payload (Baum-Welch, decoding) records into it; the resulting
    :class:`~repro.obs.MetricsSnapshot` and the worker's span buffer
    travel back in the result tuple.  Spans are recorded against this
    process's own ``WallClock`` — the master rebases them onto its
    clockline using the spawn-time handshake (:mod:`repro.obs.stitch`).
    """
    clock = WallClock()
    while True:
        try:
            item = conn.recv()
        except EOFError:
            return
        if item is None:
            return
        if item[0] == _HANDSHAKE:
            _, master_sent = item
            conn.send((_HANDSHAKE, worker_name, master_sent, clock.now()))
            continue
        task_id, job_id, payload_bytes = item
        worker_obs = (
            Observability(clock=clock, capacity=256) if record_metrics else None
        )
        start = clock.now()
        output = None
        error: Optional[TaskError] = None
        try:
            payload = pickle.loads(payload_bytes)
            if worker_obs is not None:
                with using(worker_obs):
                    with worker_obs.tracer.span(
                        "worker.task", task_id=task_id, job_id=job_id
                    ):
                        output = payload() if payload is not None else None
            else:
                output = payload() if payload is not None else None
        except Exception as exc:  # deliberate: task errors are data
            error = TaskError.from_exception(exc)
        try:
            output_bytes = pickle.dumps(output)
        except Exception as exc:  # deliberate: unpicklable output is a task error
            error = TaskError.from_exception(exc)
            output_bytes = pickle.dumps(None)
        metrics: Optional[MetricsSnapshot] = None
        spans: Optional[tuple] = None
        if worker_obs is not None:
            worker_obs.metrics.inc("worker.tasks")
            if error is not None:
                worker_obs.metrics.inc("worker.task_errors")
            worker_obs.metrics.observe(
                "worker.task_seconds", clock.now() - start
            )
            metrics = worker_obs.metrics.snapshot()
            spans = (tuple(worker_obs.tracer.events()), worker_obs.tracer.dropped)
        conn.send(
            (
                task_id,
                job_id,
                output_bytes,
                clock.now() - start,
                error,
                metrics,
                len(payload_bytes),
                spans,
            )
        )


class _WorkerHandle:
    """Master-side record of one worker process and its end of the pipe."""

    __slots__ = ("process", "conn", "name", "current", "dispatched_at")

    def __init__(self, process: Any, conn: Any, name: str) -> None:
        self.process = process
        self.conn = conn
        self.name = name
        self.current: Optional[Task] = None
        self.dispatched_at: float = 0.0

    def deadline(self) -> float | None:
        """Master-clock instant the current task times out, if it can."""
        if self.current is None or self.current.timeout is None:
            return None
        return self.dispatched_at + self.current.timeout


class ProcessWorkQueue:
    """Multiprocessing executor with first-in, first-out bounded dispatch.

    Payloads must be picklable:

        >>> from repro.workqueue.task import PayloadSpec, Task
        >>> wq = ProcessWorkQueue(n_workers=2)        # doctest: +SKIP
        >>> wq.submit(Task(job_id="j", fn=PayloadSpec(pow, (2, 10))))
        ...                                           # doctest: +SKIP
        >>> [r.output for r in wq.drain()]            # doctest: +SKIP
        [1024]

    Single-threaded: the master's work happens inside :meth:`submit`
    (dispatch to an idle worker) and :meth:`drain` (the wait/read/reap/
    dispatch loop), on the caller's thread.  A worker that finishes
    while nobody drains just waits with its result in its pipe.

    The ``multiprocessing`` start method is ``REPRO_MP_START_METHOD``
    when set, else ``fork`` where available (cheap startup), else
    ``spawn``.

    Args:
        n_workers: Worker process count.
        obs: Tracing/metrics recorder (wall clock).  When enabled,
            workers additionally record per-task engine metrics and ship
            snapshots back for a master-side merge.
    """

    def __init__(
        self, n_workers: int = 2, obs: Observability | None = None
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.obs = obs if obs is not None else Observability.from_env()
        start_method = os.environ.get("REPRO_MP_START_METHOD") or None
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._pending: deque[Task] = deque()
        self._done: list[LocalResult] = []
        self._completed: set[int] = set()
        self._shutdown = False
        self._worker_serial = 0
        self._workers = [self._spawn_worker() for _ in range(n_workers)]

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Queue ``task`` and hand it to an idle worker if there is one.

        Raises:
            ValueError: When the task has no payload the backend can run.
            RuntimeError: After :meth:`shutdown`.
        """
        if task.fn is None:
            raise ValueError("process tasks need a callable payload (task.fn)")
        qualname = getattr(task.fn, "__qualname__", "")
        if "<lambda>" in qualname or "<locals>" in qualname:
            raise ValueError(
                f"task payload {qualname!r} is a lambda or closure and cannot "
                "cross a process boundary; wrap a module-level function in "
                "repro.workqueue.task.PayloadSpec instead"
            )
        if self._shutdown:
            raise RuntimeError("queue is shut down")
        self._pending.append(task)
        self._dispatch()

    def drain(self, timeout: float = 60.0) -> list[LocalResult]:
        """Run the master's loop until every submitted task has finished.

        Each pass waits — until the drain deadline or the earliest task
        timeout, whichever is nearer — for a worker's pipe or process
        sentinel, then reads results, reaps dead or timed-out workers
        and dispatches the backlog.

        Raises:
            TimeoutError: When tasks are still outstanding after
                ``timeout`` seconds.
        """
        # Imported here, not with the module: every process that imports
        # repro would otherwise carry multiprocessing.connection's
        # imports (~0.4 MB), executor or not.
        from multiprocessing.connection import wait

        deadline = self.obs.clock.now() + timeout
        while outstanding := len(self._pending) + sum(
            1 for w in self._workers if w.current is not None
        ):
            now = self.obs.clock.now()
            if now >= deadline:
                raise TimeoutError(f"{outstanding} tasks still outstanding")
            task_deadlines = [w.deadline() for w in self._workers]
            wake = min(
                [deadline, *(d for d in task_deadlines if d is not None)]
            )
            ready = wait(
                [w.conn for w in self._workers]
                + [w.process.sentinel for w in self._workers],
                timeout=max(wake - now, 0.0),
            )
            for worker in self._workers:
                if worker.conn in ready:
                    self._read(worker)
            self._reap()
            self._dispatch()
        results, self._done = self._done, []
        return results

    def shutdown(self) -> None:
        if self._shutdown:
            return
        self._shutdown = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except OSError:
                continue  # worker already gone; nothing to signal
            if self.obs.enabled:
                self.obs.tracer.instant(
                    "wq.poison_pill", track="master", worker=worker.name
                )
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            worker.conn.close()

    # ------------------------------------------------------------------
    # Master internals
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        """Start one worker process on a fresh duplex pipe."""
        name = f"proc-worker-{self._worker_serial}"
        self._worker_serial += 1
        conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, name, self.obs.enabled),
            name=name,
            daemon=True,
        )
        process.start()
        # Only the worker may hold the child's end: once it exits, that
        # end is closed everywhere and a read of ours cannot block.
        child_conn.close()
        if self.obs.enabled:
            # Clock-offset probe: first item down the pipe, so the reply
            # reaches the master before any result from this worker
            # ever needs rebasing.
            conn.send((_HANDSHAKE, self.obs.clock.now()))
            self.obs.metrics.inc("wq.worker_spawned")
            self.obs.tracer.instant(
                "wq.worker_spawned", track="master", worker=name
            )
        return _WorkerHandle(process, conn, name)

    def _dispatch(self) -> None:
        """Feed the oldest pending tasks to idle workers, in order."""
        for worker in self._workers:
            if not self._pending:
                return
            if worker.current is None:
                self._dispatch_one(worker, self._pending.popleft())

    def _dispatch_one(self, worker: _WorkerHandle, task: Task) -> None:
        try:
            payload_bytes = pickle.dumps(task.fn)
        except Exception as exc:  # deliberate: unpicklable payload fails the task
            self._done.append(
                LocalResult(
                    task_id=task.task_id,
                    job_id=task.job_id,
                    worker_name=worker.name,
                    output=None,
                    wall_time=0.0,
                    error=TaskError.from_exception(exc),
                )
            )
            return
        task.attempts += 1
        task.tried_workers.add(worker.name)
        task.payload_bytes = len(payload_bytes)
        worker.current = task
        worker.dispatched_at = self.obs.clock.now()
        try:
            worker.conn.send((task.task_id, task.job_id, payload_bytes))
        except OSError:
            pass  # the worker is dead: the next reap requeues the task
        if self.obs.enabled:
            self.obs.metrics.inc("wq.dispatched")
            self.obs.metrics.observe(
                "wq.payload_bytes", len(payload_bytes), bounds=BYTE_BUCKETS
            )
            # The master-side anchor of the happens-before relation the
            # stitch test asserts: every rebased worker span starts at
            # or after the dispatch instant that caused it.
            self.obs.tracer.instant(
                "wq.dispatch",
                track="master",
                worker=worker.name,
                job_id=task.job_id,
                task_id=task.task_id,
            )

    def _read(self, worker: _WorkerHandle) -> None:
        """Handle every complete message waiting in ``worker``'s pipe.

        A pipe at end-of-file, or holding a message cut short by its
        writer's death, just stops the read: the sentinel reports the
        death.
        """
        while True:
            try:
                if not worker.conn.poll():
                    return
                item = worker.conn.recv()
            except (EOFError, OSError):
                return
            self._handle(worker, item)

    def _handle(self, worker: _WorkerHandle, item: tuple) -> None:
        if item[0] == _HANDSHAKE:
            _, worker_name, master_sent, worker_reply = item
            self.obs.stitch[worker_name] = ClockSync(
                worker=worker_name,
                master_sent=master_sent,
                worker_reply=worker_reply,
                master_received=self.obs.clock.now(),
            )
            return
        (
            task_id,
            job_id,
            output_bytes,
            wall_time,
            error,
            metrics,
            payload_nbytes,
            span_payload,
        ) = item
        worker.current = None
        if task_id in self._completed:
            return  # duplicate from a retry whose first attempt landed
        self._completed.add(task_id)
        result_nbytes = len(output_bytes)
        if self.obs.enabled:
            self.obs.metrics.inc("wq.completed")
            self.obs.metrics.observe("wq.task_seconds", wall_time)
            self.obs.metrics.observe(
                "wq.result_bytes", result_nbytes, bounds=BYTE_BUCKETS
            )
            end = self.obs.clock.now()
            self.obs.tracer.record_span(
                "wq.task",
                start=end - wall_time,
                end=end,
                track=worker.name,
                job_id=job_id,
                task_id=task_id,
                ok=error is None,
            )
            if metrics is not None:
                self.obs.metrics.merge(metrics)
            if span_payload is not None:
                self._stitch_spans(worker.name, span_payload)
        self._done.append(
            LocalResult(
                task_id=task_id,
                job_id=job_id,
                worker_name=worker.name,
                output=pickle.loads(output_bytes),
                wall_time=wall_time,
                error=error,
                metrics=metrics,
                payload_bytes=payload_nbytes,
                result_bytes=result_nbytes,
            )
        )

    def _stitch_spans(self, worker_name: str, span_payload: tuple) -> None:
        """Rebase one worker's shipped spans onto the master timeline.

        Without a :class:`ClockSync` for the worker (tracing enabled
        mid-run, or a lost handshake reply) the spans are dropped and
        counted rather than recorded with meaningless timestamps.
        """
        events, worker_dropped = span_payload
        sync = self.obs.stitch.get(worker_name)
        if sync is None:
            self.obs.metrics.inc("wq.unstitched_spans", len(events))
            return
        if worker_dropped:
            sync = dataclasses.replace(
                sync, dropped_spans=sync.dropped_spans + worker_dropped
            )
            self.obs.stitch[worker_name] = sync
        for event in rebase_events(events, sync):
            if event.kind == "instant":
                self.obs.tracer.record_instant(
                    event.name, event.start, track=event.track,
                    **event.attr_dict(),
                )
            else:
                self.obs.tracer.record_span(
                    event.name, event.start, event.end, track=event.track,
                    **event.attr_dict(),
                )

    def _fail_or_requeue(self, task: Task, reason: str) -> None:
        """Retry a task lost to a dead/timed-out worker, or fail it."""
        if task.task_id in self._completed:
            return  # its result already came back; nothing was lost
        if task.attempts <= task.max_retries:
            self._pending.append(task)
            if self.obs.enabled:
                self.obs.metrics.inc("wq.requeued")
                self.obs.tracer.instant(
                    "wq.requeue",
                    track="master",
                    job_id=task.job_id,
                    task_id=task.task_id,
                    reason=reason,
                    attempt=task.attempts,
                )
            return
        self._completed.add(task.task_id)
        if self.obs.enabled:
            self.obs.metrics.inc("wq.failed")
            self.obs.tracer.instant(
                "wq.task_failed",
                track="master",
                job_id=task.job_id,
                task_id=task.task_id,
                reason=reason,
                attempts=task.attempts,
            )
        self._done.append(
            LocalResult(
                task_id=task.task_id,
                job_id=task.job_id,
                worker_name="<master>",
                output=None,
                wall_time=0.0,
                error=TaskError(
                    type_name="WorkerLost",
                    message=(
                        f"{reason} after {task.attempts} attempt(s) "
                        f"on workers {sorted(task.tried_workers)}"
                    ),
                ),
                payload_bytes=task.payload_bytes,
            )
        )

    def _reap(self) -> None:
        """Terminate stragglers, then replace every dead worker.

        A dead worker's pipe is read once more first: a result it sent
        just before dying counts, and only a task that never came back
        is requeued or failed.
        """
        now = self.obs.clock.now()
        survivors: list[_WorkerHandle] = []
        for worker in self._workers:
            deadline = worker.deadline()
            timed_out = deadline is not None and now > deadline
            if timed_out and worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                survivors.append(worker)
                continue
            self._read(worker)
            worker.conn.close()
            if self.obs.enabled:
                self.obs.metrics.inc("wq.timeouts" if timed_out else "wq.worker_death")
                self.obs.tracer.instant(
                    "wq.worker_death",
                    track="master",
                    worker=worker.name,
                    reason="timeout" if timed_out else "died",
                )
            if worker.current is not None:
                reason = (
                    f"task exceeded timeout={worker.current.timeout}s"
                    if timed_out
                    else f"worker {worker.name} died"
                )
                self._fail_or_requeue(worker.current, reason)
            if not self._shutdown:
                survivors.append(self._spawn_worker())
                if self.obs.enabled:
                    self.obs.metrics.inc("wq.worker_respawn")
        self._workers = survivors
