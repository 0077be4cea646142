"""Suite-wide fixtures and markers.

The shared-memory data plane (:mod:`repro.system.shm`) creates named
``/dev/shm`` segments; a leaked one outlives the interpreter and eats
host memory until reboot.  The session fixture below makes any leak a
loud tier-1 failure rather than something an operator finds weeks later.
"""

import os

import pytest
from hypothesis import settings

# Property tests draw their examples afresh on every run, never replaying
# what an earlier run in the same checkout saved to the git-ignored
# ``.hypothesis/`` database: two checkouts of one commit then run the
# same tests.
settings.register_profile("repro", database=None)
settings.load_profile("repro")

SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro_shm_"


def _repro_segments() -> set[str]:
    try:
        entries = os.listdir(SHM_DIR)
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return set()
    return {name for name in entries if name.startswith(SHM_PREFIX)}


@pytest.fixture(autouse=True, scope="session")
def no_leaked_shm_segments():
    """Fail the run if any test leaks a repro shared-memory segment."""
    before = _repro_segments()
    yield
    leaked = _repro_segments() - before
    assert not leaked, (
        f"test run leaked shared-memory segments in {SHM_DIR}: "
        f"{sorted(leaked)} — some SegmentOwner was never close_and_unlink'd"
    )
