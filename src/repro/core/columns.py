"""Reports and estimates as columns: the arrays a batch pass reads and writes.

The paper's input is a set of (source, claim, attitude, time) tuples
(Section II), and every batch pass reads the same few fields of them:
the claim and time to group and order the rows, and the three score
factors of Eq. (1).  :class:`ReportColumns` holds those fields as one
array each, row ``i`` being report ``i``.

A plain report sequence is read into columns by :meth:`ReportColumns.of`
on every call, one walk per attribute the caller uses.  A
:class:`Reports` — what :class:`~repro.streams.trace.Trace` holds — is
an immutable tuple of :class:`Report` objects that also carries their
columns, so a pass over a trace reads no report object:
:func:`report_columns` takes the carried columns when it can.

The output side is the same: :class:`Estimates` holds every claim's
decoded truth sequence (Section III-D) as columns, and builds a
:class:`TruthEstimate` only when a caller indexes or iterates.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.types import Report, TruthEstimate, TruthValue

__all__ = [
    "Estimates",
    "ReportColumns",
    "Reports",
    "report_columns",
]

_CLAIM_ID = attrgetter("claim_id")
_TIMESTAMP = attrgetter("timestamp")
_ATTITUDE = attrgetter("attitude")
_UNCERTAINTY = attrgetter("uncertainty")
_INDEPENDENCE = attrgetter("independence")

#: ``_TRUTH_OF_CODE[code]`` is the :class:`TruthValue` of an int8 code.
_TRUTH_OF_CODE = (TruthValue.FALSE, TruthValue.TRUE)


class ReportColumns:
    """Report ``i``'s claim, time and score factors as row ``i`` of arrays.

    Attributes:
        claim_ids: The distinct claim ids, sorted.
        claim_index: Each row's index into ``claim_ids``, in the
            narrowest unsigned dtype that holds ``len(claim_ids)`` (a
            stable sort on it runs as a radix sort).
        times: Timestamps, float64.
        attitudes: Attitude values in ``{-1, 0, +1}``, int8.
        uncertainty: Uncertainty scores, float64.
        independence: Independence scores, float64.

    Columns built by :meth:`of` are read from the report objects on first
    use, one walk per attribute, so a caller reads exactly the
    attributes it uses; :meth:`from_arrays` takes them ready-made.
    Treat every column as read-only.
    """

    def __init__(self, reports: Sequence[Report]) -> None:
        self._reports = reports
        self._count = len(reports)

    @classmethod
    def of(cls, reports: Iterable[Report]) -> ReportColumns:
        """The columns of ``reports`` (any iterable, consumed once)."""
        return cls(reports if isinstance(reports, Sequence) else list(reports))

    @classmethod
    def from_arrays(
        cls,
        claim_ids: tuple[str, ...],
        claim_index: np.ndarray,
        times: np.ndarray,
        attitudes: np.ndarray,
        uncertainty: np.ndarray,
        independence: np.ndarray,
    ) -> ReportColumns:
        """Columns from arrays already in the layout the class documents."""
        columns = cls(())
        columns._count = times.size
        vars(columns).update(
            claim_ids=claim_ids,
            claim_index=claim_index,
            times=times,
            attitudes=attitudes,
            uncertainty=uncertainty,
            independence=independence,
        )
        return columns

    def __len__(self) -> int:
        return self._count

    def detached(self) -> ReportColumns:
        """Every column read now, with no reference to the reports left."""
        return ReportColumns.from_arrays(
            self.claim_ids,
            self.claim_index,
            self.times,
            self.attitudes,
            self.uncertainty,
            self.independence,
        )

    @cached_property
    def _claims(self) -> tuple[tuple[str, ...], np.ndarray]:
        claim_column = list(map(_CLAIM_ID, self._reports))
        claim_ids = tuple(sorted(set(claim_column)))
        index_of = {claim_id: k for k, claim_id in enumerate(claim_ids)}
        claim_index = np.fromiter(
            map(index_of.__getitem__, claim_column),
            np.min_scalar_type(len(claim_ids)),
            self._count,
        )
        return claim_ids, claim_index

    @cached_property
    def claim_ids(self) -> tuple[str, ...]:
        return self._claims[0]

    @cached_property
    def claim_index(self) -> np.ndarray:
        return self._claims[1]

    @cached_property
    def times(self) -> np.ndarray:
        return self._read(_TIMESTAMP, np.float64)

    @cached_property
    def attitudes(self) -> np.ndarray:
        return self._read(_ATTITUDE, np.int8)

    @cached_property
    def uncertainty(self) -> np.ndarray:
        return self._read(_UNCERTAINTY, np.float64)

    @cached_property
    def independence(self) -> np.ndarray:
        return self._read(_INDEPENDENCE, np.float64)

    def _read(self, field: attrgetter, dtype: type) -> np.ndarray:
        return np.fromiter(map(field, self._reports), dtype, self._count)


class Reports(tuple):
    """An immutable sequence of reports that carries their columns.

    A ``tuple`` subclass, not a wrapper: indexing and iteration run at
    tuple speed, and a slice is a plain ``tuple`` (whose columns a
    caller reads again).  ``columns`` has one row per report, in the
    same order.
    """

    columns: ReportColumns

    def __new__(
        cls, reports: Iterable[Report], columns: ReportColumns
    ) -> Reports:
        self = super().__new__(cls, reports)
        if len(columns) != len(self):
            raise ValueError(
                f"{len(columns)} column rows for {len(self)} reports"
            )
        self.columns = columns
        return self

    @classmethod
    def of(cls, reports: Iterable[Report]) -> Reports:
        """``reports`` with the columns :meth:`ReportColumns.of` reads."""
        reports = tuple(reports)
        return cls(reports, ReportColumns.of(reports).detached())

    def __getnewargs__(self) -> tuple[tuple[Report, ...], ReportColumns]:
        return tuple(self), self.columns


def report_columns(reports: Iterable[Report] | ReportColumns) -> ReportColumns:
    """``reports`` as columns: given columns as they are, the columns a
    :class:`Reports` carries, else a fresh :meth:`ReportColumns.of` read."""
    if isinstance(reports, ReportColumns):
        return reports
    if isinstance(reports, Reports):
        return reports.columns
    return ReportColumns.of(reports)


class Estimates(Sequence[TruthEstimate]):
    """An immutable sequence of truth estimates, held as read-only columns.

    Row ``i`` is claim ``claim_ids[claim_index[i]]`` at ``times[i]``:
    truth code ``codes[i]`` (the ``int`` of a :class:`TruthValue`) with
    ``confidences[i]``, checked to lie in ``[0, 1]`` once, here.
    ``claim_ids`` is sorted, so the ``claim_index`` order is the claim-id
    order.  A slice is a ``list``, and an :class:`Estimates` equals a
    list or tuple of the same estimates in the same order.
    """

    __slots__ = ("claim_ids", "claim_index", "times", "codes", "confidences")

    def __init__(
        self,
        claim_ids: tuple[str, ...],
        claim_index: np.ndarray,
        times: np.ndarray,
        codes: np.ndarray,
        confidences: np.ndarray,
    ) -> None:
        self.claim_ids = tuple(claim_ids)
        # Views, so the caller's arrays stay writable.
        self.claim_index, self.times, self.codes, self.confidences = (
            np.asarray(column, dtype).view()
            for column, dtype in zip(
                (claim_index, times, codes, confidences),
                (None, np.float64, np.int8, np.float64),
            )
        )
        for column in self._columns:
            column.flags.writeable = False
        if len({column.shape for column in self._columns}) != 1:
            raise ValueError("estimate columns differ in shape")
        bad = ~((self.confidences >= 0.0) & (self.confidences <= 1.0))
        if bad.any():
            raise ValueError(
                "confidence must be in [0, 1], got "
                f"{self.confidences[bad][0].item()}"
            )

    @classmethod
    def of(cls, estimates: Iterable[TruthEstimate]) -> Estimates:
        """``estimates`` as columns: an :class:`Estimates` as it is, any
        other iterable read from its objects (consumed once)."""
        if isinstance(estimates, Estimates):
            return estimates
        estimates = list(estimates)
        claim_ids = tuple(sorted({e.claim_id for e in estimates}))
        index_of = {claim_id: k for k, claim_id in enumerate(claim_ids)}
        rows = np.array(
            [
                (index_of[e.claim_id], e.timestamp, e.value, e.confidence)
                for e in estimates
            ],
            dtype=np.float64,
        ).reshape(-1, 4)
        return cls(claim_ids, rows[:, 0].astype(np.intp), *rows[:, 1:].T)

    @classmethod
    def concat(cls, parts: Iterable[Estimates]) -> Estimates:
        """The rows of ``parts``, in order, over the union of their claims."""
        parts = list(parts)
        claim_ids = tuple(sorted({c for part in parts for c in part.claim_ids}))
        index_of = {claim_id: k for k, claim_id in enumerate(claim_ids)}
        # One remap per claim table: a stream's ticks share theirs.
        remap = {
            ids: np.array([index_of[c] for c in ids], np.intp)
            for ids in {part.claim_ids for part in parts}
        }
        empty = (np.zeros(0, np.intp), np.zeros(0), np.zeros(0, np.int8))
        columns = zip(
            (*empty, np.zeros(0)),
            *((remap[p.claim_ids][p.claim_index], *p._columns[1:]) for p in parts),
        )
        return cls(claim_ids, *map(np.concatenate, columns))

    def sorted(self) -> Estimates:
        """The rows ordered by ``(claim_id, timestamp)``, ties in row order."""
        order = np.lexsort((self.times, self.claim_index))
        return Estimates(
            self.claim_ids, *(column[order] for column in self._columns)
        )

    def lists(
        self, rows: slice = slice(None)
    ) -> tuple[list[str], list[float], list[int], list[float]]:
        """Claim ids, timestamps, truth codes and confidences of ``rows``
        as Python lists: one ``tolist()`` per column."""
        claims = self.claim_index[rows].tolist()
        return (
            list(map(self.claim_ids.__getitem__, claims)),
            self.times[rows].tolist(),
            self.codes[rows].tolist(),
            self.confidences[rows].tolist(),
        )

    @property
    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.claim_index, self.times, self.codes, self.confidences

    def _objects(self, rows: slice) -> Iterator[TruthEstimate]:
        claims, times, codes, confidences = self.lists(rows)
        values = map(_TRUTH_OF_CODE.__getitem__, codes)
        return map(TruthEstimate, claims, times, values, confidences)

    def __len__(self) -> int:
        return self.times.size

    def __iter__(self) -> Iterator[TruthEstimate]:
        return self._objects(slice(None))

    def __getitem__(self, key):  # type: ignore[override]
        if isinstance(key, slice):
            return list(self._objects(key))
        index = range(len(self))[key]  # IndexError past either end
        return next(self._objects(slice(index, index + 1)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Estimates, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __reduce__(self):
        return Estimates, (self.claim_ids, *self._columns)

    def __repr__(self) -> str:
        return f"Estimates({list(self)!r})"
