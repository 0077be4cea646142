"""The suite's per-test leak guards (``tests/conftest.py``) fail a leak.

Each test here runs a few inner tests under the guards (``pytester``)
and checks their outcomes: a published shared-memory segment, a work
queue's worker process or an open file that outlives its test fails it,
with the leaked resource named; the release idioms the runtime uses
(``finally``, ``with``, handing the resource to a caller that releases
it) pass; and the guard releases what it finds, so a leak fails only
the test that made it.
"""

import os
from multiprocessing import shared_memory

import pytest

from repro.system.shm import shm_available
from tests.conftest import SHM_PREFIX, _repro_segments, _unlink_segment

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="needs POSIX shared memory"
)

LEAKING_TESTS = """
import numpy as np

from repro.system.shm import publish_arrays
from repro.workqueue.process import ProcessWorkQueue

# Held past the test, as an owner that forgot its release would be.
KEPT = []


def test_leaks_a_segment():
    KEPT.append(publish_arrays({"x": np.zeros(4)}))


def test_leaks_a_work_queue():
    KEPT.append(ProcessWorkQueue(n_workers=1))


def test_leaks_a_file(tmp_path):
    open(tmp_path / "leaked.txt", "w")
"""

# Shared by the inner modules below: a fault, and a long-lived object
# that keeps whatever is stored on it past the test (as a system object
# holding its executor would).
PRELUDE = """
import gc
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.system.shm import publish_arrays
from repro.workqueue.process import ProcessWorkQueue


class Holder:
    pass


HOLDER = Holder()


def fault():
    raise RuntimeError("injected fault")
"""


def run_inner(pytester, body: str):
    pytester.makepyfile(test_inner=PRELUDE + body)
    return pytester.runpytest("-p", "tests.conftest")


def own_segments() -> set[str]:
    prefix = f"{SHM_PREFIX}{os.getpid()}_"
    return {name for name in _repro_segments() if name.startswith(prefix)}


@needs_shm
def test_each_leak_fails_its_test_and_names_the_resource(pytester):
    pytester.makepyfile(test_leaky=LEAKING_TESTS)
    result = pytester.runpytest("-p", "tests.conftest")
    # The guard fails the first two in teardown, the warning filter
    # the third in its call.
    result.assert_outcomes(passed=2, errors=2, failed=1)
    result.stdout.fnmatch_lines_random(
        [
            "*ERROR at teardown of test_leaks_a_segment*",
            "leaked shared-memory segments in /dev/shm: ['repro_shm_*",
            "*ERROR at teardown of test_leaks_a_work_queue*",
            "leaked live child processes: [<*Process name='proc-worker-0'*",
            "E*ResourceWarning: unclosed file <*name='*/leaked.txt'*",
        ]
    )


@needs_shm
class TestSegments:
    def test_segment_released_in_finally_after_a_fault_passes(self, pytester):
        result = run_inner(
            pytester,
            """
def decode(arrays):
    HOLDER.owner = publish_arrays(arrays)
    try:
        fault()
    finally:
        HOLDER.owner.close_and_unlink()


def test_decode():
    with pytest.raises(RuntimeError, match="injected"):
        decode({"x": np.zeros(4)})
""",
        )
        result.assert_outcomes(passed=1)

    def test_segment_held_past_a_fault_fails(self, pytester):
        result = run_inner(
            pytester,
            """
def decode(arrays):
    HOLDER.owner = publish_arrays(arrays)
    fault()
    HOLDER.owner.close_and_unlink()


def test_decode():
    with pytest.raises(RuntimeError, match="injected"):
        decode({"x": np.zeros(4)})
""",
        )
        result.assert_outcomes(passed=1, errors=1)
        result.stdout.fnmatch_lines(
            ["leaked shared-memory segments in /dev/shm: ['repro_shm_*"]
        )

    def test_segment_returned_and_released_by_the_caller_passes(
        self, pytester
    ):
        result = run_inner(
            pytester,
            """
def publish(arrays):
    return publish_arrays(arrays)


def test_caller_releases():
    HOLDER.owner = publish({"x": np.zeros(4)})
    HOLDER.owner.close_and_unlink()
""",
        )
        result.assert_outcomes(passed=1)

    def test_leaked_segment_is_unlinked_so_the_next_test_passes(
        self, pytester
    ):
        result = run_inner(
            pytester,
            """
def test_leaks():
    HOLDER.owner = publish_arrays({"x": np.zeros(4)})


def test_next_sees_no_segment_of_this_process():
    prefix = f"repro_shm_{os.getpid()}_"
    assert not [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
""",
        )
        result.assert_outcomes(passed=2, errors=1)
        result.stdout.fnmatch_lines(["*ERROR at teardown of test_leaks*"])
        assert not own_segments()

    def test_another_process_segment_is_left_alone(self):
        name = f"{SHM_PREFIX}{os.getpid() + 1}_leak_guard_test"
        segment = shared_memory.SharedMemory(name=name, create=True, size=8)
        try:
            _unlink_segment(name)
            assert name in _repro_segments()
        finally:
            segment.close()
            segment.unlink()
        assert name not in _repro_segments()

    def test_own_segment_is_unlinked(self):
        name = f"{SHM_PREFIX}{os.getpid()}_leak_guard_test"
        segment = shared_memory.SharedMemory(name=name, create=True, size=8)
        segment.close()
        _unlink_segment(name)
        assert name not in _repro_segments()
        _unlink_segment(name)  # a name already gone is not an error


class TestChildProcesses:
    def test_work_queue_shut_down_in_finally_after_a_fault_passes(
        self, pytester
    ):
        result = run_inner(
            pytester,
            """
def run():
    HOLDER.executor = ProcessWorkQueue(n_workers=1)
    try:
        fault()
    finally:
        HOLDER.executor.shutdown()


def test_run():
    with pytest.raises(RuntimeError, match="injected"):
        run()
""",
        )
        result.assert_outcomes(passed=1)

    def test_work_queue_left_running_by_a_fault_fails(self, pytester):
        result = run_inner(
            pytester,
            """
def run():
    HOLDER.executor = ProcessWorkQueue(n_workers=1)
    fault()
    HOLDER.executor.shutdown()


def test_run():
    with pytest.raises(RuntimeError, match="injected"):
        run()
""",
        )
        result.assert_outcomes(passed=1, errors=1)
        result.stdout.fnmatch_lines(
            ["leaked live child processes: [<*Process name='proc-worker-0'*"]
        )

    def test_leaked_worker_is_stopped_so_the_next_test_passes(self, pytester):
        result = run_inner(
            pytester,
            """
def test_leaks():
    HOLDER.executor = ProcessWorkQueue(n_workers=2)


def test_next_sees_no_child():
    assert multiprocessing.active_children() == []
""",
        )
        result.assert_outcomes(passed=2, errors=1)
        result.stdout.fnmatch_lines_random(
            [
                "*ERROR at teardown of test_leaks*",
                "leaked live child processes: *'proc-worker-0'*",
                "leaked live child processes: *'proc-worker-1'*",
            ]
        )

    def test_child_started_before_the_test_is_not_blamed(self, pytester):
        result = run_inner(
            pytester,
            """
@pytest.fixture(scope="module")
def executor():
    executor = ProcessWorkQueue(n_workers=1)
    yield executor
    executor.shutdown()


def test_uses_the_module_executor(executor):
    assert len(multiprocessing.active_children()) == 1
""",
        )
        result.assert_outcomes(passed=1)

    def test_any_process_left_running_is_named(self, pytester):
        result = run_inner(
            pytester,
            """
def test_starts_a_sleeper():
    multiprocessing.Process(
        target=time.sleep, args=(60,), name="sleeper", daemon=True
    ).start()
""",
        )
        result.assert_outcomes(passed=1, errors=1)
        result.stdout.fnmatch_lines(
            ["leaked live child processes: [<*Process name='sleeper'*"]
        )


class TestFiles:
    def test_file_closed_by_with_passes(self, pytester):
        result = run_inner(
            pytester,
            """
def test_writes(tmp_path):
    with open(tmp_path / "closed.txt", "w") as handle:
        handle.write("x")
""",
        )
        result.assert_outcomes(passed=1)

    def test_file_in_a_reference_cycle_fails_once_collected(self, pytester):
        result = run_inner(
            pytester,
            """
def test_drops_a_cycle(tmp_path):
    node = Holder()
    node.self = node
    node.handle = open(tmp_path / "cycle.txt", "w")
    del node
    gc.collect()
""",
        )
        result.assert_outcomes(failed=1)
        result.stdout.fnmatch_lines(["*unclosed file <*name='*/cycle.txt'*"])

    def test_unclosed_trajectory_recorder_fails(self, pytester):
        result = run_inner(
            pytester,
            """
from repro.control.controller import TrajectoryRecorder


def test_drops_a_recorder(tmp_path):
    TrajectoryRecorder(tmp_path / "pid.jsonl")
""",
        )
        result.assert_outcomes(failed=1)
        result.stdout.fnmatch_lines(["*unclosed file <*name='*/pid.jsonl'*"])

    def test_trajectory_recorder_in_with_passes(self, pytester):
        result = run_inner(
            pytester,
            """
from repro.control.controller import TrajectoryRecorder


def test_records(tmp_path):
    with TrajectoryRecorder(tmp_path / "pid.jsonl") as recorder:
        assert recorder.recorded == 0
""",
        )
        result.assert_outcomes(passed=1)

    def test_controller_left_open_fails(self, pytester):
        result = run_inner(
            pytester,
            """
from repro.control.controller import Controller
from repro.control.pid import ControlConfig


def test_drops_a_controller(tmp_path):
    config = ControlConfig(trajectory_path=str(tmp_path / "pid.jsonl"))
    Controller(1.0, config)
""",
        )
        result.assert_outcomes(failed=1)
        result.stdout.fnmatch_lines(["*unclosed file <*name='*/pid.jsonl'*"])

    def test_controller_closed_by_with_after_a_fault_passes(self, pytester):
        result = run_inner(
            pytester,
            """
from repro.control.controller import Controller
from repro.control.pid import ControlConfig


def test_controls(tmp_path):
    config = ControlConfig(trajectory_path=str(tmp_path / "pid.jsonl"))
    with pytest.raises(RuntimeError, match="injected"):
        with Controller(1.0, config):
            fault()
""",
        )
        result.assert_outcomes(passed=1)


def test_exception_in_a_finaliser_fails(pytester):
    result = run_inner(
        pytester,
        """
class Fragile:
    def __del__(self):
        raise OSError("release failed")


def test_drops_a_fragile_object():
    Fragile()
""",
    )
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*OSError: release failed*"])
