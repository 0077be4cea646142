"""Serialization of truth estimates (JSONL).

Deployments archive their verdict streams; benchmarks cache expensive
runs.  One record per line keeps files streamable and diff-able.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.columns import Estimates
from repro.core.types import TruthEstimate, TruthValue

__all__ = [
    "estimates_digest",
    "iter_estimates",
    "load_estimates",
    "save_estimates",
]


def _records(
    estimates: Iterable[TruthEstimate],
) -> Iterable[tuple[str, float, int, float]]:
    """``(claim_id, timestamp, value code, confidence)`` per estimate; an
    :class:`Estimates` is read through one ``tolist()`` per column."""
    if isinstance(estimates, Estimates):
        return zip(*estimates.lists())
    return (
        (e.claim_id, e.timestamp, int(e.value), e.confidence)
        for e in estimates
    )


def save_estimates(
    estimates: Iterable[TruthEstimate], path: str | Path
) -> int:
    """Write estimates as JSON-lines; returns the record count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as fh:
        for claim_id, timestamp, value, confidence in _records(estimates):
            fh.write(
                json.dumps(
                    {
                        "claim_id": claim_id,
                        "timestamp": timestamp,
                        "value": value,
                        "confidence": confidence,
                    }
                )
                + "\n"
            )
            count += 1
    return count


def iter_estimates(path: str | Path) -> Iterator[TruthEstimate]:
    """Stream estimates back from a JSONL file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                yield TruthEstimate(
                    claim_id=record["claim_id"],
                    timestamp=float(record["timestamp"]),
                    value=TruthValue(int(record["value"])),
                    confidence=float(record.get("confidence", 1.0)),
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: malformed estimate record"
                ) from exc


def load_estimates(path: str | Path) -> list[TruthEstimate]:
    """Read a whole estimates file into memory."""
    return list(iter_estimates(path))


def estimates_digest(estimates: Iterable[TruthEstimate]) -> str:
    """Bit-exact fingerprint of an estimate stream, in the order given.

    Two runs gave the same answers iff their digests are equal: the
    confidence enters as ``float.hex()``, so one flipped bit shows.
    The formula is the one behind every digest quoted in CHANGES.md.
    """
    h = hashlib.sha256()
    for claim_id, timestamp, value, confidence in _records(estimates):
        h.update(repr((claim_id, timestamp, value, confidence.hex())).encode())
    return h.hexdigest()[:16]
