"""Fault tolerance of the integrated distributed SSTD system.

A shard worker of a ``processes`` batch run is SIGKILLed once, mid-task;
the executor re-queues the shard on a replacement worker and the run's
estimates stay bit-identical to the serial engine's.
"""

import os
import signal

import numpy as np

from repro.core import SSTD, SSTDConfig
from repro.core.acs import ACSConfig
from repro.core.types import Attitude, Report
from repro.system import DistributedSSTD, SSTDSystemConfig, jobs

#: The real payload, captured at import so the wrapper can delegate to
#: it in a worker whatever ``jobs.decode_shard_shm_payload`` is patched to.
_DECODE = jobs.decode_shard_shm_payload

#: Directory of the die-once marker, handed to the workers by environment.
MARKER_DIR_ENV = "REPRO_TEST_DIE_ONCE_DIR"


def die_once_decode(*args):
    """Decode a shard — except that the first shard to get here dies.

    Module-level, so a ``spawn`` worker can import it by reference.  The
    marker file is created exclusively, so exactly one attempt in the
    whole run kills its worker.
    """
    marker = os.path.join(os.environ[MARKER_DIR_ENV], "killed")
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return _DECODE(*args)
    os.kill(os.getpid(), signal.SIGKILL)


def reports_for(n_claims=4, per_claim=60):
    rng = np.random.default_rng(0)
    reports = []
    for c in range(n_claims):
        for k in range(per_claim):
            t = float(rng.uniform(0, 500))
            says = rng.random() < 0.8
            reports.append(
                Report(
                    f"s{k}", f"claim-{c}", t,
                    attitude=Attitude.AGREE if says else Attitude.DISAGREE,
                )
            )
    return sorted(reports, key=lambda r: r.timestamp)


SSTD_CONFIG = SSTDConfig(acs=ACSConfig(window=50.0, step=25.0))


class TestFaultTolerantBatch:
    def test_estimates_identical_despite_failures(self, monkeypatch, tmp_path):
        reports = reports_for()
        serial = sorted(
            SSTD(SSTD_CONFIG).discover(reports, start=0.0, end=500.0),
            key=lambda e: (e.claim_id, e.timestamp),
        )
        monkeypatch.setenv(MARKER_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(jobs, "decode_shard_shm_payload", die_once_decode)
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
        assert list(result.estimates) == serial
        assert result.n_tasks == 4
        # The run really lost a worker, exactly once.
        assert (tmp_path / "killed").exists()
        metrics = system.obs.metrics.snapshot()
        assert metrics.counter("wq.worker_death") == 1.0
        assert metrics.counter("wq.requeued") == 1.0
        assert metrics.counter("wq.completed") == 4.0
        assert metrics.counter("wq.failed") == 0.0
