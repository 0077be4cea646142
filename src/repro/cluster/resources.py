"""Resource vectors and constraints (paper Section II, ``RC_k``).

Each cluster node carries a set of resource constraints — cores, memory,
disk — that cap what can run on it simultaneously.  :class:`ResourceSpec`
is an immutable vector with the fits/add/subtract algebra the scheduler
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ResourceError",
    "ResourceLedger",
    "ResourceSpec",
    "WORKER_FOOTPRINT",
]


@dataclass(frozen=True, slots=True)
class ResourceSpec:
    """A resource vector: CPU cores, memory (MB), disk (MB)."""

    cores: int = 1
    memory_mb: int = 1024
    disk_mb: int = 4096

    def __post_init__(self) -> None:
        for name in ("cores", "memory_mb", "disk_mb"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def fits_within(self, capacity: "ResourceSpec") -> bool:
        """Whether this request fits inside ``capacity``."""
        return (
            self.cores <= capacity.cores
            and self.memory_mb <= capacity.memory_mb
            and self.disk_mb <= capacity.disk_mb
        )

    def __add__(self, other: "ResourceSpec") -> "ResourceSpec":
        return ResourceSpec(
            cores=self.cores + other.cores,
            memory_mb=self.memory_mb + other.memory_mb,
            disk_mb=self.disk_mb + other.disk_mb,
        )

    def __sub__(self, other: "ResourceSpec") -> "ResourceSpec":
        result = ResourceSpec(
            cores=self.cores - other.cores,
            memory_mb=self.memory_mb - other.memory_mb,
            disk_mb=self.disk_mb - other.disk_mb,
        )
        return result


#: Default footprint of one Work Queue worker process.
WORKER_FOOTPRINT = ResourceSpec(cores=1, memory_mb=512, disk_mb=1024)


class ResourceLedger:
    """Tracks allocations against a fixed capacity.

    Raises :class:`ResourceError` on violations, which is how the paper's
    "RC_k is satisfied" constraint is enforced in the simulation.
    """

    def __init__(self, capacity: ResourceSpec) -> None:
        self.capacity = capacity
        self.allocated = ResourceSpec(cores=0, memory_mb=0, disk_mb=0)

    @property
    def available(self) -> ResourceSpec:
        return self.capacity - self.allocated

    def can_allocate(self, request: ResourceSpec) -> bool:
        return request.fits_within(self.available)

    def allocate(self, request: ResourceSpec) -> None:
        if not self.can_allocate(request):
            raise ResourceError(
                f"request {request} exceeds available {self.available} "
                f"(capacity {self.capacity})"
            )
        self.allocated = self.allocated + request

    def release(self, request: ResourceSpec) -> None:
        try:
            self.allocated = self.allocated - request
        except ValueError:
            raise ResourceError(
                f"releasing {request} exceeds allocation {self.allocated}"
            ) from None


class ResourceError(RuntimeError):
    """A resource constraint was violated."""
