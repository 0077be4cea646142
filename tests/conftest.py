"""Suite-wide fixtures and markers.

The distributed runtime acquires resources that outlive a test when
they are not released: named ``/dev/shm`` segments (which outlive the
interpreter and eat host memory until reboot), worker processes, and
files such as a controller's trajectory record.  Every test is checked
for each of them, so a leak fails the test that made it:

- the autouse fixture below fails a test that leaves a ``repro_shm_``
  segment or a live child process behind, and releases what it finds
  (segments of this process only) so that one leak does not fail every
  later test;
- ``ResourceWarning`` and pytest's unraisable-exception warning are
  errors, so a file that is only closed by the garbage collector fails
  the test that dropped it.
"""

import multiprocessing
import os

import pytest
from hypothesis import settings

pytest_plugins = ("pytester",)

# Property tests draw their examples afresh on every run, never replaying
# what an earlier run in the same checkout saved to the git-ignored
# ``.hypothesis/`` database: two checkouts of one commit then run the
# same tests.
settings.register_profile("repro", database=None)
settings.load_profile("repro")

SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro_shm_"


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line(
        "filterwarnings", "error::pytest.PytestUnraisableExceptionWarning"
    )


def _repro_segments() -> set[str]:
    try:
        entries = os.listdir(SHM_DIR)
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return set()
    return {name for name in entries if name.startswith(SHM_PREFIX)}


def _unlink_segment(name: str) -> None:
    # Only this process's own segments (``repro_shm_<pid>_...``): another
    # process's live run is not ours to break.  Through the stdlib, so
    # the resource tracker forgets the name too.
    from multiprocessing import shared_memory

    if not name.startswith(f"{SHM_PREFIX}{os.getpid()}_"):
        return
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return
    segment.close()
    segment.unlink()


@pytest.fixture(autouse=True)
def no_leaked_resources():
    """Fail a test that leaks a repro shared-memory segment or a process."""
    segments = _repro_segments()
    children = set(multiprocessing.active_children())
    yield
    leaked_segments = sorted(_repro_segments() - segments)
    leaked_children = [
        child
        for child in multiprocessing.active_children()
        if child not in children
    ]
    problems = []
    if leaked_segments:
        problems.append(
            f"leaked shared-memory segments in {SHM_DIR}: {leaked_segments}"
            " — some SegmentOwner was never close_and_unlink'd"
        )
    if leaked_children:
        problems.append(
            f"leaked live child processes: {leaked_children}"
            " — some executor was never shut down"
        )
    for name in leaked_segments:
        _unlink_segment(name)
    for child in leaked_children:
        child.terminate()
    for child in leaked_children:
        child.join()
    if problems:
        pytest.fail("\n".join(problems), pytrace=False)
