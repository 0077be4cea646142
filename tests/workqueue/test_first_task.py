"""A worker's first task imports nothing the master could have loaded.

The Global Control Knob grows the pool on the scaling path, so a fresh
worker's first decode is part of what scaling costs.  Under ``fork``
the worker inherits the master's modules: its first shared-memory
decode must add none (no ``numpy.ma`` from ``np.unique``, no
``multiprocessing.shared_memory``).  Under ``spawn`` the worker imports
its closure itself; that closure must still hold none of the code a
decode never runs.

The run happens in a fresh interpreter, so what the master has loaded
is what a real master loads, not what earlier tests left behind.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Code a worker's decode never executes.
NEVER_IN_A_WORKER = (
    "repro.text",
    "repro.cluster",
    "repro.workqueue.master",
    "numpy.ma",
)

FIRST_TASK = """
import json, pickle
import numpy as np
from repro.core.sstd import SSTDConfig
from repro.system.jobs import build_claim_stack, shm_shard_task_spec
from repro.workqueue.process import ProcessWorkQueue
from repro.workqueue.task import PayloadSpec, Task
from tests.workqueue.test_first_task import first_task_modules

rng = np.random.default_rng(0)
times = np.arange(0.0, 2400.0, 60.0)
stack = build_claim_stack(
    [(f"c{k}", times, rng.normal(size=times.size)) for k in range(2)]
)
executor = ProcessWorkQueue(n_workers=1)
try:
    # Published after the workers start, as the interval replay does.
    owner = stack.publish()
    try:
        spec = shm_shard_task_spec(stack, stack.claim_ids, owner.handle, SSTDConfig())
        executor.submit(
            Task(job_id="first", fn=PayloadSpec(first_task_modules, (pickle.dumps(spec),)))
        )
        (result,) = executor.drain(timeout=60.0)
    finally:
        owner.close_and_unlink()
finally:
    executor.shutdown()
print(json.dumps({
    "start_method": executor._ctx.get_start_method(),
    "error": None if result.ok else str(result.error),
    "output": result.output,
}))
"""


def first_task_modules(spec_bytes: bytes) -> tuple[list[str], list[str], int]:
    """Run a pickled decode spec; report the modules it added, the
    worker's whole module set, and how many claims it fitted."""
    before = set(sys.modules)
    _, _, fitted, _, _ = pickle.loads(spec_bytes)()
    return sorted(set(sys.modules) - before), sorted(sys.modules), int(fitted.sum())


def _in(module, packages):
    return any(module == p or module.startswith(p + ".") for p in packages)


def test_first_decode_task_imports_nothing():
    done = subprocess.run(
        [sys.executable, "-c", FIRST_TASK],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"},
        timeout=120,
        check=True,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["error"] is None
    added, closure, fitted = report["output"]
    assert fitted == 2, "the decode must run the HMM fit path"
    assert [m for m in closure if _in(m, NEVER_IN_A_WORKER)] == []
    if report["start_method"] == "fork":
        assert added == []
