"""Process-backed Work Queue executor: real parallelism on real cores.

:class:`repro.workqueue.local.LocalWorkQueue` runs payloads on threads,
so CPU-bound Truth Discovery work (Baum-Welch, Viterbi) serializes on
the GIL.  :class:`ProcessWorkQueue` keeps the same submit / drain API
but executes payloads in worker *processes*, which is what the
paper's Work Queue deployment actually does (Section IV-A): one master,
N single-task workers, tasks shipped to whichever worker is free.

Design points, mirroring Work Queue's fault model:

- **Picklable payloads.**  Tasks must carry a payload that survives a
  process boundary — a :class:`repro.workqueue.task.PayloadSpec`
  (module-level function + args) rather than a closure.  Closures are
  rejected at submit time with a pointed error.
- **Bounded in-flight dispatch.**  Each worker holds at most one task;
  the master keeps the backlog and feeds workers as they free up, in
  submission order like the thread backend.  No task data is serialized
  before a worker is ready for it.
- **Per-task timeout.**  A task that exceeds ``task.timeout`` has its
  worker terminated and is retried (Work Queue's straggler defense).
- **Retry on worker death.**  When a worker process dies mid-task —
  injected fault, OOM kill, segfault in native code — the task is
  re-queued (up to ``task.max_retries``) and a replacement worker is
  spawned, matching the re-queue semantics of the simulated master.

Failures are always reported as data: a task that exhausts its retries
yields a result whose ``error`` is a picklable
:class:`repro.workqueue.task.TaskError`, never a raised exception.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import queue
import threading
from collections import deque
from typing import Any, Optional

from repro.obs import BYTE_BUCKETS, MetricsSnapshot, Observability, WallClock, using
from repro.obs.stitch import ClockSync, rebase_events
from repro.workqueue.local import LocalResult
from repro.workqueue.task import Task, TaskError

__all__ = [
    "ProcessWorkQueue",
]

#: Sentinel tag routing clock-offset handshake tuples through the same
#: inbox/outbox pair as tasks and results.  Probe (master -> worker):
#: ``(_HANDSHAKE, t0)``; reply (worker -> master): ``(_HANDSHAKE, name,
#: t0, w1)``.  FIFO queues guarantee the probe precedes every dispatch
#: and the reply precedes every result, so the master always holds a
#: :class:`~repro.obs.stitch.ClockSync` before it must rebase.
_HANDSHAKE = "__clock_sync__"

#: Sentinel tag of the ``(_WAKE,)`` token ``submit`` puts on the outbox
#: so the supervisor dispatches at once instead of at its next
#: ``poll_interval`` timeout; it carries nothing and is dropped on read.
_WAKE = "__wake__"

#: Supervisor wake-up period in seconds; bounds how fast deaths and
#: timeouts are detected (a submit wakes the supervisor itself, so
#: dispatch never waits for it).
POLL_INTERVAL = 0.02


def _worker_main(
    inbox: Any, outbox: Any, worker_name: str, record_metrics: bool = False
) -> None:
    """Worker process loop: run pickled payloads, report results.

    The payload arrives pre-pickled (the master controls serialization
    errors explicitly) and the output is pre-pickled on the way back for
    the same reason: a ``multiprocessing.Queue`` pickles in a background
    feeder thread, where failures would vanish silently.

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
        item = inbox.get()
        if item is None:
            return
        if item[0] == _HANDSHAKE:
            _, master_sent = item
            outbox.put((_HANDSHAKE, worker_name, master_sent, clock.now()))
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
        outbox.put(
            (
                worker_name,
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
    """Master-side record of one worker process."""

    __slots__ = ("process", "inbox", "name", "current", "dispatched_at")

    def __init__(self, process: Any, inbox: Any, name: str) -> None:
        self.process = process
        self.inbox = inbox
        self.name = name
        self.current: Optional[Task] = None
        self.dispatched_at: float = 0.0


class ProcessWorkQueue:
    """Multiprocessing executor with first-in, first-out bounded dispatch.

    Drop-in for :class:`~repro.workqueue.local.LocalWorkQueue` wherever
    payloads are picklable:

        >>> from repro.workqueue.task import PayloadSpec, Task
        >>> wq = ProcessWorkQueue(n_workers=2)        # doctest: +SKIP
        >>> wq.submit(Task(job_id="j", fn=PayloadSpec(pow, (2, 10))))
        ...                                           # doctest: +SKIP
        >>> [r.output for r in wq.drain()]            # doctest: +SKIP
        [1024]

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
        self._poll_interval = POLL_INTERVAL
        self._outbox = self._ctx.Queue()  # process-safe
        self._results: "queue.Queue[LocalResult]" = queue.Queue()  # thread-safe

        self._lock = threading.Lock()
        self._pending: deque[Task] = deque()  # guarded-by: _lock
        self._outstanding = 0  # guarded-by: _lock
        self._shutdown = False  # guarded-by: _lock
        self._workers: list[_WorkerHandle] = []  # guarded-by: _lock
        self._completed: set[int] = set()  # guarded-by: _lock
        self._worker_serial = 0  # guarded-by: _lock
        self._clock_sync: dict[str, ClockSync] = {}  # guarded-by: _lock

        # No other thread exists yet, so the initial spawn runs unlocked;
        # forking with the master lock held would stall the first submits.
        self._workers.extend(self._spawn_worker() for _ in range(n_workers))
        self._supervisor = threading.Thread(
            target=self._supervise, name="process-wq-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Public API (mirrors LocalWorkQueue)
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> None:
        """Queue ``task`` for the next free worker.

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
        with self._lock:
            if self._shutdown:
                raise RuntimeError("queue is shut down")
            self._pending.append(task)
            self._outstanding += 1
        self._outbox.put((_WAKE,))

    def drain(self, timeout: float = 60.0) -> list[LocalResult]:
        """Block until every submitted task has finished; return results.

        Raises:
            TimeoutError: When tasks are still outstanding after
                ``timeout`` seconds.
        """
        deadline = self.obs.clock.now() + timeout
        collected: list[LocalResult] = []
        while True:
            with self._lock:
                outstanding = self._outstanding
            if outstanding == 0:
                break
            remaining = deadline - self.obs.clock.now()
            if remaining <= 0:
                raise TimeoutError(f"{outstanding} tasks still outstanding")
            try:
                result = self._results.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            collected.append(result)
            with self._lock:
                self._outstanding -= 1
        # Pick up any results that raced the counter.
        while True:
            try:
                collected.append(self._results.get_nowait())
            except queue.Empty:
                break
        return collected

    def shutdown(self) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.inbox.put(None)
            except (OSError, ValueError):
                continue  # worker already gone; nothing to signal
            if self.obs.enabled:
                self.obs.tracer.instant(
                    "wq.poison_pill", track="master", worker=worker.name
                )
        self._supervisor.join(timeout=10.0)
        for worker in workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=2.0)

    # ------------------------------------------------------------------
    # Supervisor internals
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _WorkerHandle:
        """Start one worker process; the caller appends the handle.

        Never called with the master lock held: ``process.start()``
        blocks on the OS fork/spawn, and ``submit()``/``drain()`` must
        not stall behind it.  Only the serial counter needs the lock.
        """
        with self._lock:
            serial = self._worker_serial
            self._worker_serial += 1
        name = f"proc-worker-{serial}"
        inbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(inbox, self._outbox, name, self.obs.enabled),
            name=name,
            daemon=True,
        )
        process.start()
        if self.obs.enabled:
            # Clock-offset probe: first item through the inbox, so the
            # reply reaches the master before any result from this
            # worker ever needs rebasing.
            inbox.put((_HANDSHAKE, self.obs.clock.now()))
            self.obs.metrics.inc("wq.worker_spawned")
            self.obs.tracer.instant(
                "wq.worker_spawned", track="master", worker=name
            )
        return _WorkerHandle(process, inbox, name)

    def _dispatch_one(self, worker: _WorkerHandle) -> bool:  # holds-lock: _lock
        """Feed the oldest pending task to an idle worker; caller holds
        the lock."""
        if not self._pending:
            return False
        task = self._pending.popleft()
        try:
            payload_bytes = pickle.dumps(task.fn)
        except Exception as exc:  # deliberate: unpicklable payload fails the task
            self._results.put(
                LocalResult(
                    task_id=task.task_id,
                    job_id=task.job_id,
                    worker_name=worker.name,
                    output=None,
                    wall_time=0.0,
                    error=TaskError.from_exception(exc),
                )
            )
            return True
        task.attempts += 1
        task.tried_workers.add(worker.name)
        task.payload_bytes = len(payload_bytes)
        worker.current = task
        worker.dispatched_at = self.obs.clock.now()
        worker.inbox.put((task.task_id, task.job_id, payload_bytes))
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
        return True

    def _handle_result(self, item: tuple) -> None:
        if item[0] == _WAKE:
            return
        if item[0] == _HANDSHAKE:
            _, worker_name, master_sent, worker_reply = item
            sync = ClockSync(
                worker=worker_name,
                master_sent=master_sent,
                worker_reply=worker_reply,
                master_received=self.obs.clock.now(),
            )
            with self._lock:
                self._clock_sync[worker_name] = sync
            self.obs.stitch[worker_name] = sync
            return
        worker_name, task_id, job_id, output_bytes, wall_time, error = item[:6]
        with self._lock:
            if task_id in self._completed:
                return  # duplicate from a retry whose first attempt landed
            self._completed.add(task_id)
            for worker in self._workers:
                if worker.name == worker_name:
                    worker.current = None
        metrics = item[6] if len(item) > 6 else None
        payload_nbytes = item[7] if len(item) > 7 else None
        span_payload = item[8] if len(item) > 8 else None
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
                track=worker_name,
                job_id=job_id,
                task_id=task_id,
                ok=error is None,
            )
            if metrics is not None:
                self.obs.metrics.merge(metrics)
            if span_payload is not None:
                self._stitch_spans(worker_name, span_payload)
        self._results.put(
            LocalResult(
                task_id=task_id,
                job_id=job_id,
                worker_name=worker_name,
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

        Runs on the supervisor thread after a result lands.  Without a
        :class:`ClockSync` for the worker (tracing enabled mid-run, or a
        lost handshake reply) the spans are dropped and counted rather
        than recorded with meaningless timestamps.
        """
        events, worker_dropped = span_payload
        with self._lock:
            sync = self._clock_sync.get(worker_name)
            if sync is not None and worker_dropped:
                sync = dataclasses.replace(
                    sync, dropped_spans=sync.dropped_spans + worker_dropped
                )
                self._clock_sync[worker_name] = sync
        if sync is None:
            self.obs.metrics.inc("wq.unstitched_spans", len(events))
            return
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

    def _fail_or_requeue(self, task: Task, reason: str) -> None:  # holds-lock: _lock
        """Retry a task lost to a dead/timed-out worker; caller holds lock."""
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
        self._results.put(
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

    def _reap_and_dispatch(self) -> bool:
        """One supervisor pass; returns True when the loop should exit.

        Straggler termination, death detection, and replacement spawning
        all block on the OS, so they run with the master lock released:
        the pass snapshots the worker list under the lock, reaps
        unlocked, then reacquires the lock to requeue lost tasks,
        install the new worker list, and dispatch.  ``_workers`` is only
        reassigned on this (supervisor) thread — ``submit``/``shutdown``
        just read it — so the snapshot cannot lose a concurrent append,
        and ``worker.current`` is likewise supervisor-private.
        """
        now = self.obs.clock.now()
        with self._lock:
            workers = list(self._workers)
            shutting_down = self._shutdown
        survivors: list[_WorkerHandle] = []
        dead: list[tuple[_WorkerHandle, bool]] = []
        for worker in workers:
            timed_out = (
                worker.current is not None
                and worker.current.timeout is not None
                and now - worker.dispatched_at > worker.current.timeout
            )
            if timed_out and worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                survivors.append(worker)
            else:
                dead.append((worker, timed_out))
        if dead and self.obs.enabled:
            for worker, timed_out in dead:
                if timed_out:
                    self.obs.metrics.inc("wq.timeouts")
                else:
                    self.obs.metrics.inc("wq.worker_death")
                self.obs.tracer.instant(
                    "wq.worker_death",
                    track="master",
                    worker=worker.name,
                    reason="timeout" if timed_out else "died",
                )
        any_alive = bool(survivors)
        replacements: list[_WorkerHandle] = []
        if dead and not shutting_down:
            replacements = [self._spawn_worker() for _ in dead]
            any_alive = True
            if self.obs.enabled:
                self.obs.metrics.inc("wq.worker_respawn", len(replacements))
        with self._lock:
            for worker, timed_out in dead:
                if worker.current is not None:
                    reason = (
                        f"task exceeded timeout={worker.current.timeout}s"
                        if timed_out
                        else f"worker {worker.name} died"
                    )
                    self._fail_or_requeue(worker.current, reason)
                    worker.current = None
            self._workers = survivors + replacements
            shutting_down = self._shutdown
            if not shutting_down:
                for worker in self._workers:
                    if worker.current is None and not self._dispatch_one(worker):
                        break
        if shutting_down:
            # Replacements spawned while shutdown() was signalling missed
            # its poison pills; stop them here so the loop can converge.
            for worker in replacements:
                try:
                    worker.inbox.put(None)
                except (OSError, ValueError):
                    continue  # queue already closed; worker is exiting anyway
                if self.obs.enabled:
                    self.obs.tracer.instant(
                        "wq.poison_pill", track="master", worker=worker.name
                    )
        return shutting_down and not any_alive

    def _supervise(self) -> None:
        while True:
            try:
                item = self._outbox.get(timeout=self._poll_interval)
            except queue.Empty:
                item = None
            if item is not None:
                self._handle_result(item)
                # Drain whatever else is ready before the housekeeping pass.
                while True:
                    try:
                        self._handle_result(self._outbox.get_nowait())
                    except queue.Empty:
                        break
            if self._reap_and_dispatch():
                return
