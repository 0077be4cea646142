"""Truth Discovery (TD) jobs.

SSTD assigns each claim its own TD job (paper Section III-E): the job
owns the claim's report stream, runs one Work Queue task per batch, and has
a soft deadline expressing the application's responsiveness requirement
(Section II).  The job is also the unit the control loop steers — priorities
are per-job, and WCET predictions are per-job.

What a TD task carries is decided here and nowhere else: the master
packs the ``(claim_id, times, values)`` observation sequences that
:func:`repro.core.sstd.batch_fit_decode` takes into one
:class:`ClaimStack` and publishes it, a task
(:func:`shm_shard_task_spec`) names rows of it and returns compact
columns, and :func:`expand_shard_result` turns those back into the
:class:`~repro.core.sstd.ClaimDecodeResult` objects the call returned.
Simulated and process workers run that one payload, for a
batch decode and for the refits of the interval replay alike.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.acs import ClaimRows, acs_sequence
from repro.core.sstd import (
    ClaimDecodeResult,
    ModelHealth,
    SSTDConfig,
    batch_fit_decode,
)
from repro.core.types import Report
from repro.hmm.batch import HMMParams
from repro.system import shm
from repro.workqueue.task import PayloadSpec

__all__ = [
    "ClaimStack",
    "build_claim_stack",
    "claim_sequences",
    "decode_shard_shm_payload",
    "expand_shard_result",
    "shm_shard_task_spec",
]

#: One claim's ``(claim_id, times, values)`` observation sequence.
Item = tuple[str, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ClaimStack:
    """NaN-padded per-claim ACS observation stacks, ready to publish.

    :func:`build_claim_stack` packs the claims' observation sequences
    into ``(N, T_max)`` matrices — row order is ``claim_ids`` order,
    padding is NaN, real per-row extents live in ``lengths``.  This is
    the unit the zero-copy data plane ships: a shard task references
    rows of a published stack, so its pickled size does not depend on
    how many reports the claims received.
    """

    claim_ids: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray
    lengths: np.ndarray
    _rows: dict[str, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        # First occurrence wins, like ``tuple.index``.
        for row, claim_id in enumerate(self.claim_ids):
            self._rows.setdefault(claim_id, row)

    def row_of(self, claim_id: str) -> int:
        """Row of ``claim_id`` in the stacks.

        Raises:
            ValueError: When the claim is not in the stack.
        """
        try:
            return self._rows[claim_id]
        except KeyError:
            raise ValueError(f"claim {claim_id!r} is not in the stack") from None

    def publish(self) -> shm.SegmentOwner:
        """Publish the stacks into one shared-memory segment (or fallback)."""
        return shm.publish_arrays(
            {"times": self.times, "values": self.values, "lengths": self.lengths}
        )


def claim_sequences(
    claims: Sequence[tuple[str, ClaimRows | Sequence[Report]]],
    config: SSTDConfig,
    start: float | None = None,
    end: float | None = None,
) -> list[Item]:
    """Every claim's ACS observation sequence, as ``batch_fit_decode`` items.

    Each claim comes with its rows of a
    :class:`~repro.core.acs.ReportTable` (or its reports).  Runs the
    ``acs_sequence`` call the serial engine runs
    (:meth:`repro.core.sstd.SSTD.discover`), so decoding the items is
    bit-identical to decoding the raw reports — and the ACS grid is
    computed once, on the master, not once per task attempt on the
    workers.
    """
    return [
        (claim_id, *acs_sequence(rows, config.acs, start=start, end=end))
        for claim_id, rows in claims
    ]


def build_claim_stack(items: Sequence[Item]) -> ClaimStack:
    """Pack ``(claim_id, times, values)`` items into one stack."""
    t_max = max(1, max((len(times) for _, times, _ in items), default=0))
    times_stack = np.full((len(items), t_max), np.nan)
    values_stack = np.full((len(items), t_max), np.nan)
    lengths = np.zeros(len(items), dtype=np.int64)
    for row, (_, times, values) in enumerate(items):
        lengths[row] = len(times)
        times_stack[row, : len(times)] = times
        values_stack[row, : len(values)] = values
    return ClaimStack(
        claim_ids=tuple(claim_id for claim_id, _, _ in items),
        times=times_stack,
        values=values_stack,
        lengths=lengths,
    )


def decode_shard_shm_payload(
    claim_ids: tuple[str, ...],
    rows: tuple[int, ...],
    handle: shm.SegmentHandle,
    config: SSTDConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decode a shard of claims straight out of a published stack.

    The worker attaches zero-copy read-only views onto the published
    ``times`` / ``values`` stacks, feeds its rows to
    :func:`repro.core.sstd.batch_fit_decode`, and returns a *compact*
    result in shard claim order: every claim's ``int8`` truth codes and
    ``float64`` confidences, concatenated; a ``bool`` mask of the claims
    with a model; per such claim one ``(K + 4, K)`` block — start
    distribution, transition rows, emission means, variances and its
    filter state; and next to the blocks one ``(n_fitted, 3)`` float64
    array of model health — EM iterations, converged (0 or 1), final
    log-likelihood.  The master rebuilds the results with
    :func:`expand_shard_result` — it already owns the timestamps, so
    shipping them back would only re-pickle what the stack holds.
    """
    with shm.attach(handle) as segment:
        times_stack = segment.array("times")
        values_stack = segment.array("values")
        lengths = segment.array("lengths")
        # Row slices are views: still zero-copy, still read-only.
        items = [
            (
                claim_id,
                times_stack[row, : lengths[row]],
                values_stack[row, : lengths[row]],
            )
            for claim_id, row in zip(claim_ids, rows)
        ]
        results = batch_fit_decode(items, config)
        # The leading empties fix the dtypes and let a shard without
        # claims concatenate to nothing.
        codes = np.concatenate(
            [np.empty(0, dtype=np.int8), *(r.codes for r in results)]
        )
        confidences = np.concatenate(
            [np.empty(0, dtype=np.float64), *(r.confidences for r in results)]
        )
        fitted = np.array([r.used_hmm for r in results], dtype=bool)
        models = np.array(
            [
                np.vstack([*dataclasses.astuple(r.params), r.filter_state])
                for r in results
                if r.used_hmm
            ]
        )
        health = np.array(
            [dataclasses.astuple(r.health) for r in results if r.used_hmm],
            dtype=np.float64,
        ).reshape(-1, 3)
        # Drop every object that aliases the segment before detaching so
        # the close path can really unmap (kept-alive views only delay
        # reclamation, they never corrupt: the arrays above are copies).
        del items, results, times_stack, values_stack, lengths
    return codes, confidences, fitted, models, health


def shm_shard_task_spec(
    stack: ClaimStack,
    shard: Sequence[str],
    handle: shm.SegmentHandle,
    config: SSTDConfig,
) -> PayloadSpec:
    """Picklable zero-copy payload spec: claim ids + row offsets only.

    The pickled spec is O(claims in the shard) — ids, row indices, the
    segment handle, the engine config — whatever the report volume.
    """
    rows = tuple(stack.row_of(claim_id) for claim_id in shard)
    return PayloadSpec(
        decode_shard_shm_payload, (tuple(shard), rows, handle, config)
    )


def expand_shard_result(
    stack: ClaimStack,
    claim_ids: Sequence[str],
    codes: np.ndarray,
    confidences: np.ndarray,
    fitted: np.ndarray,
    models: np.ndarray,
    health: np.ndarray,
) -> list[ClaimDecodeResult]:
    """Rebuild the shard's :class:`ClaimDecodeResult` objects.

    Inverse of the packing in :func:`decode_shard_shm_payload`; uses the
    master's own copy of the published timestamps, so every result
    equals what :func:`repro.core.sstd.batch_fit_decode` returned on the
    worker, field for field.
    """
    results: list[ClaimDecodeResult] = []
    cursor = 0
    fits = zip(models, health.tolist())
    for claim_id, used_hmm in zip(claim_ids, fitted.tolist(), strict=True):
        row = stack.row_of(claim_id)
        length = int(stack.lengths[row])
        cells = slice(cursor, cursor + length)
        cursor += length
        params = filter_state = model_health = None
        if used_hmm:
            block, (iterations, converged, log_likelihood) = next(fits)
            params = HMMParams(block[0], block[1:-3], block[-3], block[-2])
            filter_state = block[-1]
            model_health = ModelHealth(
                int(iterations), bool(converged), log_likelihood
            )
        results.append(
            ClaimDecodeResult(
                claim_id=claim_id,
                times=stack.times[row, :length],
                codes=codes[cells],
                confidences=confidences[cells],
                used_hmm=used_hmm,
                filter_state=filter_state,
                params=params,
                health=model_health,
            )
        )
    if cursor != codes.size:
        raise ValueError(
            f"shard result carries {codes.size} estimates, "
            f"expected {cursor} for claims {list(claim_ids)}"
        )
    return results
