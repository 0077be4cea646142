"""Reports as columns: the claim, time and score-factor arrays of a batch pass.

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
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from repro.core.types import Report

__all__ = [
    "ReportColumns",
    "Reports",
    "report_columns",
]

_CLAIM_ID = attrgetter("claim_id")
_TIMESTAMP = attrgetter("timestamp")
_ATTITUDE = attrgetter("attitude")
_UNCERTAINTY = attrgetter("uncertainty")
_INDEPENDENCE = attrgetter("independence")


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
