"""Chaos cases for the process executor: every fault ends in a result or
a clean error, never a hang.

Each case is bounded by a ``drain`` timeout or a ``subprocess.run``
timeout, and checks that no ``(job_id, task_id)`` is lost or
duplicated and that the fault counters are exact.  The payloads are
module-level so a ``spawn`` worker can import them by reference.
"""

import errno
import gc
import multiprocessing.queues
import os
import signal
import subprocess
import sys
import textwrap
import time
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.control import AdmissionDecision, Controller
from repro.core import SSTD, StreamingSSTD
from repro.obs import Observability
from repro.streams import Trace
from repro.system import DistributedSSTD, SSTDSystemConfig, jobs, shm
from repro.workqueue import PayloadSpec, ProcessWorkQueue, Task

from tests.conftest import _repro_segments
from tests.system.test_fault_tolerant_system import (
    _DECODE,
    MARKER_DIR_ENV,
    SSTD_CONFIG,
    die_once_decode,
    reports_for,
)
from tests.workqueue.test_process import double

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Directory the SIGINT case's shard payloads write their pids into.
PID_DIR_ENV = "REPRO_TEST_PID_DIR"


def wedge_then_die(marker):
    """Hold every ``multiprocessing`` queue write lock, then die.

    On the first attempt the worker takes each queue lock it can find
    and exits without releasing them — the death that wedges every
    other writer of a queue shared across processes.  Retries succeed.
    """
    if os.path.exists(marker):
        return "survived"
    with open(marker, "w", encoding="utf-8"):
        pass
    for obj in gc.get_objects():
        if isinstance(obj, multiprocessing.queues.Queue):
            lock = getattr(obj, "_wlock", None)
            if lock is not None:
                lock.acquire(timeout=5.0)
    os._exit(17)


def sleep_unless_marker(pid_file):
    """First attempt: publish this worker's pid, then sleep; retries return."""
    if os.path.exists(pid_file):
        return "survived"
    partial = f"{pid_file}.partial"
    with open(partial, "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))
    os.replace(partial, pid_file)
    time.sleep(60.0)
    return "slept"


def record_pid_then_sleep(*args):
    """Shard payload of the SIGINT case: publish the pid, then stall."""
    pid_file = os.path.join(os.environ[PID_DIR_ENV], str(os.getpid()))
    with open(pid_file, "w", encoding="utf-8"):
        pass
    time.sleep(60.0)


#: The real attach, captured at import so the die-once wrapper can
#: delegate to it whatever ``shm.attach`` is patched to.
_ATTACH = shm.attach


def die_once_in_attach(handle):
    """Attach — except that the first attach of the run dies inside it.

    The segment is mapped when the worker is SIGKILLed, so the death
    holds a live attachment.  The marker file is created exclusively,
    so exactly one attach in the whole run dies.
    """
    segment = _ATTACH(handle)
    marker = os.path.join(os.environ[MARKER_DIR_ENV], "killed")
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return segment
    os.kill(os.getpid(), signal.SIGKILL)


def decode_dying_in_attach(*args):
    """The shard payload, with this worker's ``shm.attach`` dying once.

    The wrapper is patched over ``repro.system.shm.attach`` inside the
    worker: a patch made in the master does not reach a ``spawn``
    worker.
    """
    shm.attach = die_once_in_attach
    return _DECODE(*args)


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _running(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def _ids(tasks):
    return sorted((task.job_id, task.task_id) for task in tasks)


def _result_ids(results):
    return sorted((result.job_id, result.task_id) for result in results)


def _recording_executor(monkeypatch):
    """Record every task submitted to and result drained from any
    ``ProcessWorkQueue``; returns the two lists."""
    submitted, drained = [], []
    real_submit, real_drain = ProcessWorkQueue.submit, ProcessWorkQueue.drain

    def submit(wq, task):
        submitted.append(task)
        return real_submit(wq, task)

    def drain(wq, timeout=60.0):
        results = real_drain(wq, timeout)
        drained.extend(results)
        return results

    monkeypatch.setattr(ProcessWorkQueue, "submit", submit)
    monkeypatch.setattr(ProcessWorkQueue, "drain", drain)
    return submitted, drained


def _counters(wq, expected):
    metrics = wq.obs.metrics.snapshot()
    return {name: metrics.counter(f"wq.{name}") for name in expected}


@pytest.fixture
def traced_wq():
    queues = []

    def make(n_workers=2):
        queues.append(ProcessWorkQueue(n_workers=n_workers, obs=Observability()))
        return queues[-1]

    yield make
    for wq in queues:
        wq.shutdown()


class TestWorkerFaults:
    def test_death_holding_queue_locks_does_not_wedge_siblings(
        self, traced_wq, tmp_path
    ):
        wq = traced_wq()
        tasks = [
            Task(job_id="wedge", fn=PayloadSpec(wedge_then_die, (str(tmp_path / "m"),)))
        ] + [Task(job_id=f"j{k}", fn=PayloadSpec(double, (k,))) for k in range(4)]
        for task in tasks:
            wq.submit(task)
        results = wq.drain(timeout=15.0)
        assert _result_ids(results) == _ids(tasks)
        assert sorted(map(str, (r.output for r in results))) == [
            "0", "2", "4", "6", "survived"
        ]
        expected = dict(
            worker_death=1.0, worker_respawn=1.0, requeued=1.0,
            completed=5.0, failed=0.0,
        )
        assert _counters(wq, expected) == expected

    def test_sigkill_mid_task_is_requeued(self, traced_wq, tmp_path):
        wq = traced_wq()
        pid_file = tmp_path / "pid"
        tasks = [
            Task(job_id="victim", fn=PayloadSpec(sleep_unless_marker, (str(pid_file),)))
        ] + [Task(job_id=f"j{k}", fn=PayloadSpec(double, (k,))) for k in range(3)]
        for task in tasks:
            wq.submit(task)
        # submit dispatches at once, so the victim runs before any drain.
        assert _wait_for(pid_file.exists)
        os.kill(int(pid_file.read_text()), signal.SIGKILL)
        results = wq.drain(timeout=30.0)
        assert _result_ids(results) == _ids(tasks)
        assert all(r.ok for r in results)
        expected = dict(
            worker_death=1.0, worker_respawn=1.0, requeued=1.0,
            completed=4.0, failed=0.0, timeouts=0.0,
        )
        assert _counters(wq, expected) == expected

    def test_death_between_handshake_and_first_task(self, traced_wq):
        wq = traced_wq(n_workers=1)
        (victim,) = wq._workers
        # The clock-sync reply is waiting in the pipe: the worker has
        # answered its handshake and now idles for its first task.
        assert victim.conn.poll(10.0)
        os.kill(victim.process.pid, signal.SIGKILL)
        victim.process.join(10.0)
        task = Task(job_id="j", fn=PayloadSpec(double, (21,)))
        wq.submit(task)
        (result,) = wq.drain(timeout=30.0)
        assert (result.job_id, result.task_id) == (task.job_id, task.task_id)
        assert result.output == 42
        expected = dict(
            worker_spawned=2.0, worker_death=1.0, worker_respawn=1.0,
            dispatched=2.0, requeued=1.0, completed=1.0, failed=0.0,
            unstitched_spans=0.0,
        )
        assert _counters(wq, expected) == expected
        # Both workers' handshakes landed, the dead one's included.
        assert sorted(wq.obs.stitch) == ["proc-worker-0", "proc-worker-1"]

    def test_drain_timeout_then_shutdown_returns(self, tmp_path):
        wq = ProcessWorkQueue(n_workers=1, obs=Observability())
        workers = [worker.process for worker in wq._workers]
        try:
            wq.submit(Task(job_id="slow", fn=PayloadSpec(time.sleep, (60.0,))))
            start = time.monotonic()
            with pytest.raises(TimeoutError, match="1 tasks still outstanding"):
                wq.drain(timeout=0.5)
            assert time.monotonic() - start < 5.0
            start = time.monotonic()
        finally:
            wq.shutdown()
        assert time.monotonic() - start < 10.0
        assert not any(process.is_alive() for process in workers)
        expected = dict(worker_death=0.0, requeued=0.0, completed=0.0, failed=0.0)
        assert _counters(wq, expected) == expected

    def test_shutdown_gives_busy_workers_one_shared_grace_period(self):
        wq = ProcessWorkQueue(n_workers=2, obs=Observability())
        workers = [worker.process for worker in wq._workers]
        try:
            for k in range(2):
                wq.submit(
                    Task(job_id=f"slow{k}", fn=PayloadSpec(time.sleep, (60.0,)))
                )
            start = time.monotonic()
        finally:
            wq.shutdown()
        # Neither worker reads its pill, so both are terminated after the
        # one 2 s grace period, not after 2 s each.
        assert time.monotonic() - start < 3.0
        assert not any(process.is_alive() for process in workers)


SIGINT_SCRIPT = textwrap.dedent(
    """
    from repro.system import DistributedSSTD, SSTDSystemConfig, jobs
    from tests.system.test_fault_tolerant_system import SSTD_CONFIG, reports_for
    from tests.workqueue.test_chaos import record_pid_then_sleep

    jobs.decode_shard_shm_payload = record_pid_then_sleep
    DistributedSSTD(
        SSTDSystemConfig(
            backend="processes", n_workers=2, sstd=SSTD_CONFIG, claims_per_shard=2
        )
    ).run_batch(reports_for(), start=0.0, end=500.0)
    """
)


class TestSystemFaults:
    def test_sigint_mid_drain_leaves_no_worker_and_no_segment(self, tmp_path):
        before = _repro_segments()
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
            **{PID_DIR_ENV: str(tmp_path)},
        )
        child = subprocess.Popen(
            [sys.executable, "-c", SIGINT_SCRIPT],
            cwd=REPO_ROOT,
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # Both shards are running: the master sits in drain.
            assert _wait_for(lambda: len(os.listdir(tmp_path)) == 2, 60.0)
            if shm.shm_available():
                assert _repro_segments() - before
            child.send_signal(signal.SIGINT)
            _, stderr = child.communicate(timeout=30.0)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        assert child.returncode != 0
        assert "KeyboardInterrupt" in stderr
        worker_pids = [int(name) for name in os.listdir(tmp_path)]
        assert len(worker_pids) == 2
        assert not any(_running(pid) for pid in worker_pids)
        assert _repro_segments() - before == set()

    def test_sigkill_inside_shm_attach(self, monkeypatch, tmp_path):
        submitted, drained = _recording_executor(monkeypatch)
        monkeypatch.setenv(MARKER_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(jobs, "decode_shard_shm_payload", decode_dying_in_attach)
        before = _repro_segments()
        reports = reports_for()
        serial = sorted(
            SSTD(SSTD_CONFIG).discover(reports, start=0.0, end=500.0),
            key=lambda e: (e.claim_id, e.timestamp),
        )
        system = DistributedSSTD(
            SSTDSystemConfig(
                backend="processes",
                n_workers=2,
                sstd=SSTD_CONFIG,
                claims_per_shard=1,
                observability=True,
                drain_timeout=60.0,
            )
        )
        result = system.run_batch(reports, start=0.0, end=500.0)
        # A worker really died inside attach, exactly once.
        assert (tmp_path / "killed").exists()
        assert len(submitted) == result.n_tasks == 4
        assert _result_ids(drained) == _ids(submitted)
        assert list(result.estimates) == serial
        assert _repro_segments() - before == set()
        metrics = system.obs.metrics.snapshot()
        assert metrics.counter("wq.worker_death") == 1.0
        assert metrics.counter("wq.requeued") == 1.0
        assert metrics.counter("wq.completed") == 4.0
        assert metrics.counter("wq.failed") == 0.0

    def test_segment_creation_enospc_degrades_cleanly(self, monkeypatch):
        attempts = []

        def no_space(*args, **kwargs):
            attempts.append(kwargs)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(shared_memory, "SharedMemory", no_space)
        before = _repro_segments()
        reports = reports_for()
        serial = sorted(
            SSTD(SSTD_CONFIG).discover(reports, start=0.0, end=500.0),
            key=lambda e: (e.claim_id, e.timestamp),
        )
        system = DistributedSSTD(
            SSTDSystemConfig(
                backend="processes",
                n_workers=2,
                sstd=SSTD_CONFIG,
                claims_per_shard=2,
                observability=True,
                drain_timeout=60.0,
            )
        )
        result = system.run_batch(reports, start=0.0, end=500.0)
        # The data plane fell back to inline bytes: same answer, no segment.
        assert list(result.estimates) == serial
        assert result.n_tasks == 2
        assert bool(attempts) == shm.shm_available()
        assert _repro_segments() - before == set()
        metrics = system.obs.metrics.snapshot()
        assert metrics.counter("wq.completed") == 2.0
        assert metrics.counter("wq.worker_death") == 0.0
        assert metrics.counter("wq.failed") == 0.0

    def _scripted_interval_run(self, monkeypatch, kill):
        """A ``processes`` interval replay whose admission is scripted.

        Every due claim is admitted, except that the second refit round
        defers its first claim; with ``kill``, that round's first shard
        worker is SIGKILLed (the die-once payload is armed only then).
        Returns the run, the system, the admission rounds, the deferred
        claim with the model it held, and each engine refit call's
        ``(due, refitted)`` claim ids.
        """
        rounds, deferral, refits = [], {}, []

        def admit(controller, claim_ids, n_workers):
            rounds.append(tuple(claim_ids))
            deferred = ()
            if len(rounds) == 2:
                deferred = claim_ids[:1]
                deferral["claim"] = claim_ids[0]
                if kill:
                    monkeypatch.setattr(
                        jobs, "decode_shard_shm_payload", die_once_decode
                    )
            admitted = tuple(c for c in claim_ids if c not in deferred)
            return AdmissionDecision(
                admitted, tuple(deferred), (), len(claim_ids), 1.0
            )

        real_refit = StreamingSSTD._refit

        def engine_refit(engine, due):
            models = [engine._params[slot] for slot in due]
            refitted = real_refit(engine, due)
            if len(rounds) == 2 and "kept" not in deferral:
                slot = engine._slot_of[deferral["claim"]]
                deferral["kept"] = models[due.index(slot)]
                assert engine._params[slot] is deferral["kept"]
                assert engine._deferred[slot] and engine._modelled[slot]
            refits.append(
                (
                    [engine._ids[slot] for slot in due],
                    [engine._ids[slot] for slot in refitted],
                )
            )
            return refitted

        monkeypatch.setattr(Controller, "admit", admit)
        monkeypatch.setattr(StreamingSSTD, "_refit", engine_refit)
        trace = Trace(name="deferred-under-fault", reports=reports_for())
        system = DistributedSSTD(
            SSTDSystemConfig(
                backend="processes",
                n_workers=2,
                sstd=SSTD_CONFIG,
                claims_per_shard=1,
                control_enabled=True,
                observability=True,
                drain_timeout=60.0,
            )
        )
        result = system.run_intervals(
            trace, n_intervals=4, deadline=30.0, compute_estimates=True
        )
        return result, system, rounds, deferral, refits

    def test_deferred_claim_survives_a_worker_death(self, monkeypatch, tmp_path):
        monkeypatch.setenv(MARKER_DIR_ENV, str(tmp_path))
        before = _repro_segments()
        with monkeypatch.context() as patch:
            reference, *_ = self._scripted_interval_run(patch, kill=False)
        assert not (tmp_path / "killed").exists()
        submitted, drained = _recording_executor(monkeypatch)
        result, system, rounds, deferral, refits = self._scripted_interval_run(
            monkeypatch, kill=True
        )
        # A worker died, exactly once, in the round that deferred a claim.
        assert (tmp_path / "killed").exists()
        assert len(rounds) > 2 and len(rounds[1]) > 1
        assert _result_ids(drained) == _ids(submitted)
        assert len(submitted) == sum(len(r) for r in rounds) - 1
        metrics = system.obs.metrics.snapshot()
        assert metrics.counter("wq.worker_death") == 1.0
        assert metrics.counter("wq.requeued") == 1.0
        assert metrics.counter("wq.completed") == len(submitted)
        assert metrics.counter("wq.failed") == 0.0
        assert _repro_segments() - before == set()
        # The deferred claim kept its model through its round and was
        # refit on the next one.
        victim = deferral["claim"]
        assert deferral["kept"] is not None
        assert victim in refits[1][0] and victim not in refits[1][1]
        assert victim in rounds[2] and victim in refits[2][1]
        assert result.tracker.total_deferred == 1
        # The death changed nothing the run answers.
        assert result.estimates == reference.estimates
