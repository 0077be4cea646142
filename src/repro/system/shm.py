"""Zero-copy shared-memory data plane of the TD task payload.

A task's input must not grow with the report volume, and must not be
serialized again on every retry.  This module gives the master a way to
*publish* large read-only arrays once — into a named
``multiprocessing.shared_memory`` segment — so a task ships only a
:class:`SegmentHandle` (segment name + per-array dtype/shape/offset
specs), and workers :func:`attach` zero-copy read-only views onto the
same physical pages.  Both backends (simulated and processes) read
their claim stack through it.

Design points:

- **One segment per run scope.**  The master packs all arrays for a
  batch (or one replay interval) into a single segment, 64-byte aligned,
  and owns its lifecycle through :class:`SegmentOwner`: create → publish
  → (workers attach/detach per task) → ``close_and_unlink`` in a
  ``finally`` when the scope ends, so interrupts and failed drains still
  reclaim ``/dev/shm``.
- **Plain-bytes fallback.**  Where POSIX shared memory is unavailable
  (or force-disabled with ``REPRO_SHM=0`` — the one deployment setting,
  read only by :func:`shm_available`), :func:`publish_arrays` degrades
  to a handle that carries the packed buffer inline as ``bytes``.  The
  payload then travels with each task pickle — no longer zero-copy, but
  the same compact contiguous layout and the identical attach/view API,
  so the decode path is byte-for-byte the same.  It is the only
  "no shared memory" path, on every backend.
- **Read-only views.**  Attached arrays are never writable; workers
  cannot corrupt a segment other shard tasks are concurrently reading.
- **Resource-tracker hygiene.**  On CPython < 3.13 attaching registers
  the segment with the ``multiprocessing`` resource tracker, and which
  tracker that is depends on fork order: a worker forked *after* the
  master's tracker started shares it (registration is a set no-op), but
  a worker forked *before* — the normal case here, since the executor
  spawns before the first publish — lazily starts its **own** tracker,
  which then warns about a "leaked" segment at exit and double-races
  the unlink.  :func:`attach` therefore suppresses registration
  entirely when attaching from a process that did not create the
  segment (the creator pid is part of the name) — the 3.13 ``track=
  False`` semantics, implemented for 3.10-3.12.  Attach-side
  ``unregister`` calls (the other common workaround) are deliberately
  absent: with a shared tracker they would strip the owner's
  registration.  The owner keeps its registration, so segments are
  reclaimed by the tracker even if the master dies before
  ``close_and_unlink``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "ArraySpec",
    "AttachedSegment",
    "SEGMENT_PREFIX",
    "SegmentHandle",
    "SegmentOwner",
    "attach",
    "publish_arrays",
    "shm_available",
]

#: ``/dev/shm`` entries created by this module start with this prefix;
#: the tier-1 leak fixture and operators grep for it.
SEGMENT_PREFIX = "repro_shm_"

_ALIGNMENT = 64


def _lazy_close(segment) -> None:
    """Close a mapping even while live views still reference its buffer.

    ``SharedMemory.close()`` raises ``BufferError`` when numpy views
    still export the mmap's buffer — and would raise it *again* from
    ``__del__`` at GC, as an unraisable warning.  Dropping the mapping
    reference instead lets the mmap's C deallocator unmap silently when
    the last view dies; the second ``close()`` then just releases the
    file descriptor.
    """
    try:
        segment.close()
    except BufferError:
        segment._mmap = None  # deliberate: hand the unmap to the C dealloc
        try:
            segment.close()
        except (BufferError, OSError):
            pass  # deliberate: nothing left we can release eagerly


def shm_available() -> bool:
    """Whether POSIX shared memory can be used (``REPRO_SHM=0`` forces off)."""
    if os.environ.get("REPRO_SHM", "").strip().lower() in {"0", "off", "false"}:
        return False
    try:
        from multiprocessing import shared_memory
    except ImportError:
        return False
    return hasattr(shared_memory, "SharedMemory")


@dataclass(frozen=True, slots=True)
class ArraySpec:
    """Location of one array inside a published segment.

    Attributes:
        key: Name the array was published under.
        offset: Byte offset of the array's first element.
        shape: Array shape.
        dtype: Numpy dtype string (``np.dtype(...).str`` round-trips).
    """

    key: str
    offset: int
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return int(np.dtype(self.dtype).itemsize) * count


@dataclass(frozen=True, slots=True)
class SegmentHandle:
    """Picklable reference to a published segment.

    ``kind == "shm"`` names a shared-memory segment; ``kind == "bytes"``
    carries the packed buffer inline (the fallback).  Either way the
    handle plus :func:`attach` reconstructs every published array.
    """

    kind: str
    name: str | None
    size: int
    specs: tuple[ArraySpec, ...]
    payload: bytes | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("shm", "bytes"):
            raise ValueError(f"kind must be 'shm' or 'bytes', got {self.kind!r}")
        if self.kind == "shm" and not self.name:
            raise ValueError("shm handles need a segment name")
        if self.kind == "bytes" and self.payload is None:
            raise ValueError("bytes handles need an inline payload")

    def spec(self, key: str) -> ArraySpec:
        for candidate in self.specs:
            if candidate.key == key:
                return candidate
        raise KeyError(f"no array {key!r} in segment (have {[s.key for s in self.specs]})")


class SegmentOwner:
    """Master-side owner of one published segment.

    ``close_and_unlink`` is idempotent and safe to call from ``finally``
    blocks while workers may still hold attachments: POSIX removes the
    name immediately and frees the pages when the last mapping closes.
    """

    __slots__ = ("handle", "_segment", "_released")

    def __init__(self, handle: SegmentHandle, segment: object | None) -> None:
        self.handle = handle
        self._segment = segment
        self._released = False

    @property
    def nbytes(self) -> int:
        return self.handle.size

    def close_and_unlink(self) -> None:
        """Release the mapping and remove the segment name (idempotent)."""
        if self._released:
            return
        self._released = True
        segment = self._segment
        self._segment = None
        if segment is None:
            return  # bytes fallback: nothing OS-level to reclaim
        _lazy_close(segment)
        try:
            segment.unlink()
        except FileNotFoundError:
            pass  # deliberate: already unlinked (double-cleanup race)

    def __del__(self) -> None:  # best-effort backstop; runs are explicit
        try:
            self.close_and_unlink()
        except (OSError, ValueError):
            pass  # deliberate: interpreter teardown may have closed handles


class AttachedSegment:
    """Worker-side view of a published segment (context manager).

    Arrays returned by :meth:`array` are zero-copy read-only views over
    the segment; they are only valid inside the ``with`` block.  Callers
    must copy anything that outlives the attachment (and drop their view
    references before exit, or the close falls back to lazy unmapping).
    """

    __slots__ = ("_handle", "_segment", "_buffer")

    def __init__(self, handle: SegmentHandle, segment: object | None, buffer) -> None:
        self._handle = handle
        self._segment = segment
        self._buffer = buffer

    def array(self, key: str) -> np.ndarray:
        """Read-only ndarray view of the array published under ``key``."""
        if self._buffer is None:
            raise ValueError("segment is closed")
        spec = self._handle.spec(key)
        dtype = np.dtype(spec.dtype)
        count = spec.nbytes // dtype.itemsize if dtype.itemsize else 0
        view = np.frombuffer(
            self._buffer, dtype=dtype, count=count, offset=spec.offset
        ).reshape(spec.shape)
        view.setflags(write=False)
        return view

    def close(self) -> None:
        self._buffer = None
        segment = self._segment
        self._segment = None
        if segment is None:
            return
        _lazy_close(segment)

    def __enter__(self) -> "AttachedSegment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _segment_name() -> str:
    """A fresh segment name: prefix + pid + random suffix."""
    return f"{SEGMENT_PREFIX}{os.getpid()}_{os.urandom(4).hex()}"


def _pack_layout(
    arrays: Mapping[str, np.ndarray],
) -> tuple[list[tuple[ArraySpec, np.ndarray]], int]:
    """Contiguous aligned layout for ``arrays``; returns specs + total size."""
    packed: list[tuple[ArraySpec, np.ndarray]] = []
    offset = 0
    for key, value in arrays.items():
        array = np.ascontiguousarray(value)
        offset = ((offset + _ALIGNMENT - 1) // _ALIGNMENT) * _ALIGNMENT
        spec = ArraySpec(
            key=key,
            offset=offset,
            shape=tuple(int(d) for d in array.shape),
            dtype=np.dtype(array.dtype).str,
        )
        packed.append((spec, array))
        offset += array.nbytes
    return packed, max(offset, 1)


def publish_arrays(arrays: Mapping[str, np.ndarray]) -> SegmentOwner:
    """Publish named arrays into one segment; returns the owning handle.

    Prefers a named shared-memory segment (zero-copy attach); degrades
    to the inline-``bytes`` handle when shared memory is unavailable or
    segment creation fails.  Iteration order of ``arrays`` fixes the
    layout, so publish from plain dicts/sequences, never sets.
    """
    packed, total = _pack_layout(arrays)
    if shm_available():
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(
                name=_segment_name(), create=True, size=total
            )
        except (OSError, ValueError):
            segment = None
        if segment is not None:
            for spec, array in packed:
                target = np.frombuffer(
                    segment.buf,
                    dtype=np.dtype(spec.dtype),
                    count=array.size,
                    offset=spec.offset,
                ).reshape(spec.shape)
                target[...] = array
                del target  # release the exported buffer before any close
            handle = SegmentHandle(
                kind="shm",
                name=segment.name,
                size=total,
                specs=tuple(spec for spec, _ in packed),
            )
            return SegmentOwner(handle, segment)
    blob = bytearray(total)
    for spec, array in packed:
        blob[spec.offset : spec.offset + array.nbytes] = array.tobytes()
    handle = SegmentHandle(
        kind="bytes",
        name=None,
        size=total,
        specs=tuple(spec for spec, _ in packed),
        payload=bytes(blob),
    )
    return SegmentOwner(handle, None)


def _creator_pid(name: str) -> int | None:
    """Pid of the process that created a ``repro_shm_`` segment, if parseable."""
    if not name.startswith(SEGMENT_PREFIX):
        return None
    head = name[len(SEGMENT_PREFIX) :].split("_", 1)[0]
    return int(head) if head.isdigit() else None


def _attach_untracked(name: str):
    """Open an existing segment without resource-tracker registration.

    Foreign-process attaches must not register: a worker forked before
    the master's tracker existed would lazily start a second tracker
    whose cache is never drained (``close()`` does not unregister on
    CPython < 3.13), producing spurious leak warnings at worker exit.
    Python 3.13 exposes this as ``SharedMemory(..., track=False)``; on
    3.10-3.12 the only seam is swapping out ``register`` for the
    duration of the constructor.  Workers are single-threaded task
    loops, so the swap cannot race another registration.
    """
    from multiprocessing import resource_tracker, shared_memory

    original = resource_tracker.register

    def _skip(res_name, rtype, _original=original):
        if rtype == "shared_memory":
            return None
        return _original(res_name, rtype)

    resource_tracker.register = _skip
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach(handle: SegmentHandle) -> AttachedSegment:
    """Attach to a published segment; use as a context manager."""
    if handle.kind == "bytes":
        return AttachedSegment(handle, None, handle.payload)
    if _creator_pid(handle.name or "") != os.getpid():
        segment = _attach_untracked(handle.name)
    else:
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(name=handle.name)
    return AttachedSegment(handle, segment, segment.buf)
