"""Truth Discovery (TD) jobs.

SSTD assigns each claim its own TD job (paper Section III-E): the job
owns the claim's report stream, is split into Work Queue tasks, and has
a soft deadline expressing the application's responsiveness requirement
(Section II).  The job is also the unit the control loop steers — priorities
are per-job, and WCET predictions are per-job.

What a TD task carries is decided here and nowhere else: the master
publishes every claim's ACS sequence in one :class:`ClaimStack`, a task
(:func:`shm_shard_task_spec`) names rows of it and returns truth codes
and confidences, and :func:`expand_shard_result` turns those back into
estimates.  Simulated, thread and process workers run that one payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.core.acs import ClaimRows, acs_sequence
from repro.core.sstd import SSTDConfig, batch_fit_decode, column_estimates
from repro.core.types import Report, TruthEstimate
from repro.system import shm
from repro.workqueue.task import PayloadSpec, Task

__all__ = [
    "ClaimStack",
    "TDJob",
    "build_claim_stack",
    "decode_shard_shm_payload",
    "expand_shard_result",
    "shm_shard_task_spec",
    "streaming_push_payload",
]


@dataclass(frozen=True)
class ClaimStack:
    """NaN-padded per-claim ACS observation stacks, ready to publish.

    The master runs :func:`repro.core.acs.acs_sequence` once per claim
    (on the claim's rows of a :class:`~repro.core.acs.ReportTable`)
    and packs the results into ``(N, T_max)`` matrices — row order is
    ``claim_ids`` order, padding is NaN, real per-row extents live in
    ``lengths``.  This is the unit the zero-copy data plane ships: a
    shard task references rows of a published stack, so its pickled
    size does not depend on how many reports the claims received.
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


def build_claim_stack(
    claims: Sequence[tuple[str, ClaimRows | Sequence[Report]]],
    config: SSTDConfig,
    start: float | None = None,
    end: float | None = None,
) -> ClaimStack:
    """Compute every claim's ACS sequence and pack it into one stack.

    Each claim comes with its rows of a
    :class:`~repro.core.acs.ReportTable` (or its reports).  Runs the
    ``acs_sequence`` call the serial engine runs
    (:meth:`repro.core.sstd.SSTD.discover`), so decoding from the stack
    is bit-identical to decoding from the raw reports — and the ACS grid
    is computed once, on the master, not once per task attempt on the
    workers.
    """
    claim_ids: list[str] = []
    sequences: list[tuple[np.ndarray, np.ndarray]] = []
    for claim_id, rows in claims:
        times, values = acs_sequence(rows, config.acs, start=start, end=end)
        claim_ids.append(claim_id)
        sequences.append((times, values))
    t_max = max((times.size for times, _ in sequences), default=0)
    t_max = max(t_max, 1)
    n_claims = len(claim_ids)
    times_stack = np.full((n_claims, t_max), np.nan)
    values_stack = np.full((n_claims, t_max), np.nan)
    lengths = np.zeros(n_claims, dtype=np.int64)
    for row, (times, values) in enumerate(sequences):
        lengths[row] = times.size
        times_stack[row, : times.size] = times
        values_stack[row, : values.size] = values
    return ClaimStack(
        claim_ids=tuple(claim_ids),
        times=times_stack,
        values=values_stack,
        lengths=lengths,
    )


def decode_shard_shm_payload(
    claim_ids: tuple[str, ...],
    rows: tuple[int, ...],
    handle: shm.SegmentHandle,
    config: SSTDConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a shard of claims straight out of a published stack.

    The worker attaches zero-copy read-only views onto the published
    ``times`` / ``values`` stacks, feeds its rows to the
    :func:`repro.core.sstd.batch_fit_decode` call the serial
    ``SSTD.discover`` uses, and returns a *compact* result: one
    contiguous ``int8`` array of decoded truth codes and one
    ``float64`` array of confidences, concatenated in shard claim
    order.  The master reconstructs full
    :class:`~repro.core.types.TruthEstimate` objects with
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
        # Drop every object that aliases the segment before detaching so
        # the close path can really unmap (kept-alive views only delay
        # reclamation, they never corrupt: the arrays above are copies).
        del items, results, times_stack, values_stack, lengths
    return codes, confidences


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
    since: Mapping[str, float] | None = None,
    until: float | None = None,
) -> tuple[tuple[str, tuple[TruthEstimate, ...]], ...]:
    """Rebuild per-claim estimates from a compact shard result.

    Inverse of the packing in :func:`decode_shard_shm_payload`; uses the
    master's own copy of the published timestamps, so reconstructed
    estimates are field-for-field identical to the serial engine's.
    Only the estimates a caller will emit are materialised: with
    ``since`` a claim's estimates start after ``since[claim_id]``
    (claims it does not name start at their first grid point), with
    ``until`` they stop at ``timestamp <= until``.
    """
    pairs: list[tuple[str, tuple[TruthEstimate, ...]]] = []
    cursor = 0
    for claim_id in claim_ids:
        row = stack.row_of(claim_id)
        length = int(stack.lengths[row])
        times = stack.times[row, :length]
        lo, hi = 0, length
        if since is not None and claim_id in since:
            lo = int(np.searchsorted(times, since[claim_id], side="right"))
        if until is not None:
            hi = int(np.searchsorted(times, until, side="right"))
        window = slice(cursor + lo, cursor + hi)
        estimates = column_estimates(
            claim_id, times[lo:hi], codes[window], confidences[window]
        )
        cursor += length
        pairs.append((claim_id, estimates))
    if cursor != int(np.asarray(codes).size):
        raise ValueError(
            f"shard result carries {np.asarray(codes).size} estimates, "
            f"expected {cursor} for claims {list(claim_ids)}"
        )
    return tuple(pairs)


def streaming_push_payload(
    streaming: Any, reports: Sequence[Report]
) -> None:
    """Feed one task's report chunk into a streaming engine.

    Module-level so interval-mode tasks can carry it as a
    :class:`~repro.workqueue.task.PayloadSpec`, which rejects closures,
    instead of a closure over the engine.
    """
    for report in reports:
        streaming.push(report)
    return None


@dataclass
class TDJob:
    """One claim's truth-discovery job.

    Attributes:
        job_id: Stable identifier (the claim id).
        claim_id: The claim this job decodes.
        deadline: Soft deadline in seconds for processing one batch of
            this job's data (paper ``dl_j``).
        tasks_per_batch: How many tasks a data batch is split into; the
            paper keeps this small to bound initialization overhead
            (Section IV-C4).
    """

    job_id: str
    claim_id: str
    deadline: float = 10.0
    tasks_per_batch: int = 1
    reports_seen: int = 0
    batches_submitted: int = 0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")
        if self.tasks_per_batch < 1:
            raise ValueError("tasks_per_batch must be >= 1")

    def make_tasks(
        self,
        reports: ClaimRows | Sequence[Report],
        payload: Callable[..., Any] | None = None,
        payload_args: Sequence[Any] = (),
    ) -> list[Task]:
        """Split one batch of reports into Work Queue tasks.

        Data is divided equally between the job's tasks (Section IV-C4).
        ``payload`` must be a module-level callable (the
        :class:`~repro.workqueue.task.PayloadSpec` discipline — closures
        cannot cross a process boundary); each task carries
        ``PayloadSpec(payload, (*payload_args, chunk))``, so the task's
        report chunk arrives as the final argument and its return value
        becomes the task output.  Without a payload the chunks only size
        the tasks, so ``reports`` may then be the claim's
        :class:`~repro.core.acs.ClaimRows`.
        """
        self.reports_seen += len(reports)
        self.batches_submitted += 1
        n_tasks = min(self.tasks_per_batch, max(1, len(reports)))
        chunks: list[ClaimRows | Sequence[Report]] = []
        if reports:
            size = len(reports) // n_tasks
            remainder = len(reports) % n_tasks
            start = 0
            for k in range(n_tasks):
                extra = 1 if k < remainder else 0
                chunks.append(reports[start : start + size + extra])
                start += size + extra
        else:
            chunks.append(())

        tasks = []
        for chunk in chunks:
            fn = None
            if payload is not None:
                fn = PayloadSpec(payload, (*payload_args, tuple(chunk)))
            tasks.append(
                Task(job_id=self.job_id, data_size=float(len(chunk)), fn=fn)
            )
        return tasks
