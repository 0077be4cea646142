"""SSTD: the HMM-based dynamic truth discovery engine (paper Section III).

For every claim ``Cu`` the engine

1. turns the claim's report stream into an Aggregated Contribution Score
   observation sequence ``F(u)`` on a regular time grid (Section III-B);
2. trains a 2-state Gaussian-emission HMM on ``F(u)`` with unsupervised
   Baum-Welch EM (Section III-C, Eq. (5));
3. decodes the most likely hidden truth sequence with Viterbi
   (Section III-D, Eq. (6)-(8));
4. maps each hidden state to TRUE when its emission mean is positive:
   the contribution score of a report is signed by its attitude, so
   aggregated evidence above zero means the crowd (weighted by
   confidence and independence) asserts the claim.  When both states
   land on the same side of zero the claim's truth simply never flipped
   — the model is *not* forced to invent a transition.

Claims decompose independently (Section III-E) — the model never looks
at per-source reliability across claims, only at each claim's ACS —
which is exactly what makes SSTD parallelizable: each claim becomes one
Truth Discovery job in the distributed framework (:mod:`repro.system`).
"""

from __future__ import annotations

import bisect
import collections
import dataclasses
import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.acs import (
    ACSConfig,
    ReportTable,
    SlidingWindowACS,
    acs_sequence,
)
from repro.core.columns import _TRUTH_OF_CODE, Estimates, ReportColumns
from repro.core.types import Report, TruthEstimate, TruthValue
from repro.hmm.batch import BatchGaussianHMM, HMMParams, stack_ragged
from repro.obs import get_obs

__all__ = [
    "ClaimDecodeResult",
    "ClaimTruthModel",
    "ModelHealth",
    "SSTD",
    "SSTDConfig",
    "SkippedRefit",
    "StreamingSSTD",
    "batch_fit_decode",
]

#: Histogram bounds of ``sstd.stream.retrain_rows`` (claims refitted by
#: one streaming tick's batched fit).
RETRAIN_ROW_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 500.0)

#: Weight of the sticky Dirichlet prior on a claim's transition matrix,
#: in pseudo-counts per grid step of that claim: Baum-Welch adds
#: ``TRANSITION_PRIOR_STRENGTH * T * [[p, 1 - p], [1 - p, p]]``
#: (``p = SSTDConfig.sticky_prior``, ``T`` the row's length) to the
#: expected transition counts, which themselves sum to ``T - 1``.  The
#: mass scales with the grid so that the prior weighs the same against
#: the data on a 50-step history and on a 1440-step one; a fixed mass
#: fades on long grids.  Chosen from the sweep recorded in
#: EXPERIMENTS.md.
TRANSITION_PRIOR_STRENGTH = 4.0

#: Baum-Welch convergence tolerance on the log-likelihood.
EM_TOL = 1e-3

#: Seed of the EM emission initialization.
EM_SEED = 7

#: EM iteration cap of a streaming refit.  Refits run on every scheduled
#: tick, so they use a tighter budget than a one-shot batch fit;
#: quantile re-initialization converges in a handful of iterations on
#: the bounded buffer.
RETRAIN_MAX_ITER = 15

@dataclass(frozen=True, slots=True)
class SSTDConfig:
    """Configuration of the SSTD engine.

    Attributes:
        acs: Sliding-window / grid configuration for the observation
            sequence (window size ``sw`` of paper Eq. (4)).
        em_max_iter: Baum-Welch iteration cap.
        min_observations: Non-empty grid points required before an HMM is
            trained; shorter sequences fall back to the ACS sign rule.
        sticky_prior: Prior self-transition probability ``p`` of the
            truth chain.  Truth changes are rare relative to the
            observation grid, so every claim's ``A`` gets a Dirichlet
            prior centred on ``[[p, 1 - p], [1 - p, p]]`` worth
            ``TRANSITION_PRIOR_STRENGTH`` pseudo-steps per state for
            every grid step of the claim —
            Baum-Welch is a MAP-EM whose transition M-step adds those
            pseudo-counts — which regularizes it away from rapid
            oscillation on noisy data.  EM also starts from that matrix.
    """

    acs: ACSConfig = field(default_factory=ACSConfig)
    em_max_iter: int = 30
    min_observations: int = 6
    sticky_prior: float = 0.98

    def __post_init__(self) -> None:
        if self.em_max_iter < 1:
            raise ValueError("em_max_iter must be >= 1")
        if self.min_observations < 2:
            raise ValueError("min_observations must be >= 2")
        if not 0.5 <= self.sticky_prior < 1.0:
            raise ValueError(
                f"sticky_prior must be in [0.5, 1), got {self.sticky_prior}"
            )


@dataclass(frozen=True, slots=True)
class ModelHealth:
    """One claim's Baum-Welch run: EM iterations, whether the
    log-likelihood plateaued (else it hit ``em_max_iter``), and the
    log-likelihood the last iteration entered with."""

    iterations: int
    converged: bool
    log_likelihood: float


@dataclass(frozen=True, eq=False)
class ClaimDecodeResult:
    """Decoded truth sequence of one claim, stored as columns.

    Grid point ``i`` is ``times[i]``, the int8 truth code ``codes[i]``
    (the ``int`` of a :class:`TruthValue`) and the float64
    ``confidences[i]``, already checked to lie in ``[0, 1]``.  The
    views — :attr:`values`, :attr:`estimates` — are built on first
    read, and :attr:`estimates` holds columns, so a caller that does not
    iterate (a worker packing a shard result, :meth:`SSTD.discover`)
    builds no object per cell.
    """

    claim_id: str
    times: np.ndarray
    codes: np.ndarray
    confidences: np.ndarray
    used_hmm: bool
    #: Last scaled forward row of the fit's own forward pass, shape
    #: ``(K,)`` (None on the fallback paths): the filter state a
    #: streaming caller resumes from, so it never re-runs the pass.
    filter_state: np.ndarray | None = field(default=None, repr=False)
    #: The claim's trained parameters (None on the fallback paths).
    params: HMMParams | None = None
    #: How the claim's Baum-Welch run went (None on the fallback paths).
    health: ModelHealth | None = None

    def estimate(self, index: int) -> TruthEstimate:
        """The estimate at grid point ``index`` alone."""
        return self.estimates[index]

    @functools.cached_property
    def values(self) -> tuple[TruthValue, ...]:
        """Decoded truth value per grid point."""
        return tuple(map(_TRUTH_OF_CODE.__getitem__, self.codes.tolist()))

    @functools.cached_property
    def estimates(self) -> Estimates:
        """One estimate per grid point, as a one-claim :class:`Estimates`."""
        return Estimates(
            (self.claim_id,),
            np.zeros(self.times.size, np.uint8),
            self.times,
            self.codes,
            self.confidences,
        )


def _sign_fallback(
    claim_id: str, times: np.ndarray, acs_values: np.ndarray
) -> ClaimDecodeResult:
    """Threshold decoding for claims too short/degenerate for an HMM.

    Positive aggregated evidence reads as TRUE.  Windows with no
    evidence (NaN or exactly zero ACS) keep the previous decision,
    defaulting to FALSE before any evidence arrives — the absence of
    confirmations is treated as the claim not (yet) being true.
    """
    # Forward-fill the row of the last nonzero value (-1 before any).
    signed = (acs_values > 0) | (acs_values < 0)
    last = np.where(signed, np.arange(times.size), -1)
    np.maximum.accumulate(last, out=last)
    return ClaimDecodeResult(
        claim_id=claim_id,
        times=times,
        codes=((last >= 0) & (acs_values[last] > 0)).astype(np.int8),
        confidences=np.ones(times.size),
        used_hmm=False,
    )


def batch_fit_decode(
    items: Sequence[tuple[str, np.ndarray, np.ndarray]],
    config: SSTDConfig,
) -> list[ClaimDecodeResult]:
    """Fit and decode many claims through one batched kernel invocation.

    ``items`` holds ``(claim_id, times, acs_values)`` triples; results
    come back in the same order.  Degenerate claims (too few informative
    windows, or no variation) take the sign-rule fallback; the rest are
    NaN-padded into one ragged stack and trained/decoded by
    :class:`repro.hmm.batch.BatchGaussianHMM` — the emission matrix is
    evaluated once per claim and reused for the decode and the
    posterior pass.  The kernel is row-deterministic, so
    each claim's result is bit-identical no matter how claims are
    grouped into batches (a shard of 4 and a serial N=1 call agree
    exactly); this is what keeps the sharded distributed backends and
    the serial engine interchangeable.
    """
    obs = get_obs()
    results: list[ClaimDecodeResult | None] = []
    # (slot in ``results``, claim id, times) of every claim that fits.
    hmm_items: list[tuple[int, str, np.ndarray]] = []
    sequences: list[np.ndarray] = []
    for claim_id, times, acs_values in items:
        times = np.asarray(times, dtype=float)
        acs_values = np.asarray(acs_values, dtype=float)
        if times.size != acs_values.size:
            raise ValueError(
                f"times ({times.size}) and ACS ({acs_values.size}) differ"
            )
        if times.size == 0:
            results.append(_sign_fallback(claim_id, times, acs_values))
            continue
        informative = acs_values[~np.isnan(acs_values)]
        degenerate = (
            informative.size < config.min_observations
            or float(np.ptp(informative)) < 1e-9
        )
        if degenerate:
            if obs.enabled:
                obs.metrics.inc("sstd.claims_fallback")
            results.append(_sign_fallback(claim_id, times, acs_values))
            continue
        hmm_items.append((len(results), claim_id, times))
        sequences.append(acs_values)
        results.append(None)
    if not hmm_items:
        return results  # type: ignore[return-value]

    fit_start = obs.clock.now()
    observations, lengths, order = stack_ragged(sequences)
    p = config.sticky_prior
    transmat = np.array([[p, 1.0 - p], [1.0 - p, p]])
    kernel = BatchGaussianHMM(len(sequences), n_states=2, transmat=transmat)
    fit_results = kernel.fit(
        observations,
        lengths,
        max_iter=config.em_max_iter,
        tol=EM_TOL,
        seed=EM_SEED,
        transmat_prior=(TRANSITION_PRIOR_STRENGTH * lengths)[:, None, None]
        * transmat,
    )
    # One time-major E-step feeds the decode and the posteriors.
    states_stack, confidences_stack, filter_states = kernel.decode(
        observations, lengths
    )
    # Whole-stack columns: a state reads as TRUE when its emission mean
    # is positive, and the confidence of a cell is the posterior of the
    # state it decoded to.
    codes_stack = np.take_along_axis(
        (kernel.means > 0).astype(np.int8), states_stack, axis=1
    )
    if not ((confidences_stack >= 0.0) & (confidences_stack <= 1.0)).all():
        raise ValueError("confidence must be in [0, 1]")

    for row, (source, fit) in enumerate(zip(order, fit_results)):
        slot, claim_id, times = hmm_items[source]
        length = int(lengths[row])
        results[slot] = ClaimDecodeResult(
            claim_id=claim_id,
            times=times,
            codes=codes_stack[row, :length],
            confidences=confidences_stack[row, :length],
            used_hmm=True,
            filter_state=filter_states[row],
            params=kernel.params(row),
            health=ModelHealth(
                fit.iterations, fit.converged, fit.final_log_likelihood
            ),
        )
    if obs.enabled:
        obs.metrics.inc("sstd.claims_hmm", len(hmm_items))
        obs.tracer.record_span(
            "sstd.batch_fit",
            start=fit_start,
            end=obs.clock.now(),
            track="sstd",
            n_claims=len(items),
            n_hmm=len(hmm_items),
            n_observations=int(lengths.sum()),
            iterations=max(r.iterations for r in fit_results),
        )
    return results  # type: ignore[return-value]


class ClaimTruthModel:
    """Per-claim HMM wrapper: train on an ACS sequence, decode truth."""

    def __init__(self, claim_id: str, config: SSTDConfig) -> None:
        self.claim_id = claim_id
        self.config = config

    def fit_decode(
        self, times: np.ndarray, acs_values: np.ndarray
    ) -> ClaimDecodeResult:
        """Train the claim HMM and decode its truth sequence.

        Falls back to the ACS sign rule when the sequence has too few
        informative windows or no variation for EM to separate states.
        Delegates to :func:`batch_fit_decode` with a batch of one, so a
        claim decoded alone is bit-identical to the same claim decoded
        inside any shard.
        """
        (result,) = batch_fit_decode(
            [(self.claim_id, times, acs_values)], self.config
        )
        return result


class SSTD:
    """Batch API: run SSTD truth discovery over a set of reports.

    This is the single-process entry point; the distributed deployment
    (:class:`repro.system.sstd_system.DistributedSSTD`) ships shards of
    claims to Work Queue workers, each decoded by one
    :func:`batch_fit_decode` call, and produces identical estimates.

    Example:
        >>> engine = SSTD()
        >>> estimates = engine.discover(reports)        # doctest: +SKIP
    """

    name = "SSTD"

    def __init__(self, config: SSTDConfig | None = None) -> None:
        self.config = config or SSTDConfig()
        #: Per-claim decode results of the most recent :meth:`discover`
        #: call (plus any later :meth:`discover_claim` calls); cleared at
        #: the start of each ``discover`` run so repeated runs on one
        #: engine do not accumulate stale claims without bound.
        self.results: dict[str, ClaimDecodeResult] = {}

    def group_reports(
        self, reports: Iterable[Report]
    ) -> dict[str, list[Report]]:
        """Partition reports by claim — the unit of distribution."""
        grouped: dict[str, list[Report]] = collections.defaultdict(list)
        for report in reports:
            grouped[report.claim_id].append(report)
        return dict(grouped)

    def discover_claim(
        self,
        claim_id: str,
        reports: Sequence[Report],
        start: float | None = None,
        end: float | None = None,
    ) -> ClaimDecodeResult:
        """Run the full SSTD pipeline for a single claim."""
        times, values = acs_sequence(
            reports, self.config.acs, start=start, end=end
        )
        model = ClaimTruthModel(claim_id, self.config)
        result = model.fit_decode(times, values)
        self.results[claim_id] = result
        return result

    def discover(
        self,
        reports: Iterable[Report],
        start: float | None = None,
        end: float | None = None,
    ) -> Estimates:
        """Run SSTD over all claims in ``reports``; returns all estimates.

        The reports are read once into a :class:`ReportTable`, each
        claim's ACS sequence is computed on its rows, and every sequence
        goes through one :func:`batch_fit_decode` call — the EM/decode
        time recursions run once over the whole claim stack.  The
        estimates are the decoded columns, claim by claim in claim-id
        order: no :class:`TruthEstimate` is built until a caller
        iterates.  ``self.results`` is cleared first, so it always
        reflects exactly this run.
        """
        table = ReportTable.from_reports(reports, self.config.acs.weights)
        self.results.clear()
        items = []
        for claim_id, rows in table.by_claim():
            times, values = acs_sequence(
                rows, self.config.acs, start=start, end=end
            )
            items.append((claim_id, times, values))
        results = batch_fit_decode(items, self.config)
        self.results.update((result.claim_id, result) for result in results)
        return Estimates.concat(result.estimates for result in results)


class SkippedRefit(enum.Enum):
    """A refit callable's answer for a due claim it did not refit: the
    claim keeps its model and filters, due again on the next tick
    (``DEFERRED``) or at its next scheduled refit (``SHED``)."""

    DEFERRED = "deferred"
    SHED = "shed"


#: The per-slot arrays of :class:`StreamingSSTD`, grown together.
_PER_SLOT = (
    "_buffer", "_first", "_fresh", "_deferred", "_modelled", "_alpha",
    "_stamps", "_codes", "_confidences",
)
#: Dtypes of the pushed columns: slot, time, attitude and the two factors.
_PUSHED_DTYPES = (np.intp, np.float64, np.int8, np.float64, np.float64)


def _widen(array: np.ndarray, size: int) -> np.ndarray:
    """``array`` grown along its first axis to ``size``, new entries zero."""
    wider = np.zeros((size, *array.shape[1:]), dtype=array.dtype)
    wider[: len(array)] = array
    return wider


class StreamingSSTD:
    """Streaming API: push reports, poll truth estimates as time advances.

    A claim gets a *slot*, a dense index in joining order, at its first
    report; a push only records the report's slot, time and score
    factors.  Claims decompose independently (paper Section III-E), so
    :meth:`tick` treats them as one stack in four phases:

    1. **One window read.**  The reports pushed since the last tick are
       scored as one column into the engine-wide
       :class:`SlidingWindowACS`, which returns every claim's ACS at
       ``now``; the column joins the claims' observation buffers, each
       trimmed to ``max_buffer``.
    2. **Split.**  A claim is *due for retrain* when it got a report
       since its last refit, the engine's tick count — one count for
       every claim, so claims that joined on different ticks share one
       refit call — is a multiple of ``retrain_every`` or the claim's
       last refit was deferred, and its buffer holds
       ``min_observations`` informative values.  Any other claim is
       *filtering* (it has a model) or on *cold start* (sign rule on
       its newest ACS value).
    3. **One stacked refit.**  All due claims go through a single
       ``refit(items, config)`` call — :func:`batch_fit_decode`, or a
       callable that returns what it would for each item, or a
       :class:`SkippedRefit` (the distributed system ships the call to
       its workers).  The kernel is row-deterministic and freezes rows
       individually, so each claim's fit is bit-identical to fitting it
       alone; the fit re-initializes emission parameters from the
       buffer's quantiles (a stale model after a truth transition would
       otherwise take many EM rounds to drag its means across zero).
       The claim's filter is re-seeded from the last row of the forward
       pass that call already ran.  A claim whose refit takes the sign
       fallback keeps its previous model and filter state, as does a
       claim the callable skips.
    4. **One stacked filter step.**  Every filtering claim advances its
       normalized forward vector in one ``(N, K)`` step
       (:meth:`repro.hmm.batch.BatchGaussianHMM.filter_step`) of a
       filter bank kept until the filtering set or a model changes.

    Cost: a push is a dict lookup and five list appends.  A tick
    without retrains is a fixed number of numpy calls over its reports,
    the window's rows and the claim stack, and its estimates are
    columns.  A tick with M due claims adds *one* fit: at most
    ``em_max_iter`` forward-backward sweeps over at most ``max_buffer``
    time steps, each step one ``(M, K)`` operation, so its interpreter
    cost does not grow with M.
    """

    name = "SSTD"

    def __init__(
        self,
        config: SSTDConfig | None = None,
        retrain_every: int = 20,
        max_buffer: int = 360,
        refit: Callable[..., Sequence] | None = None,
    ) -> None:
        if retrain_every < 1:
            raise ValueError("retrain_every must be >= 1")
        config = config or SSTDConfig()
        if max_buffer < config.min_observations:
            # A buffer this short never holds enough values to refit
            # (and an empty one leaves the cold start nothing to read).
            raise ValueError(
                f"max_buffer ({max_buffer}) must be >= min_observations "
                f"({config.min_observations})"
            )
        self.config = dataclasses.replace(
            config, em_max_iter=min(config.em_max_iter, RETRAIN_MAX_ITER)
        )
        self.retrain_every = retrain_every
        self.max_buffer = max_buffer
        #: Ticks so far, and the time of the last one.
        self._ticks = 0
        self._now = -math.inf
        #: None resolves :func:`batch_fit_decode` at call time.
        self._refit_fn = refit
        #: Claim id per slot, slot per claim id, slots in claim-id order,
        #: the ids in that order and each slot's rank in it.
        self._ids: list[str] = []
        self._slot_of: dict[str, int] = {}
        self._order: list[int] = []
        self._sorted_ids: tuple[str, ...] = ()
        self._rank = np.zeros(0, dtype=np.uint8)
        #: The columns of the reports pushed since the last tick.
        self._pushed: tuple[list, ...] = ([], [], [], [], [])
        self._window = SlidingWindowACS(self.config.acs.window)
        #: Slot ``s`` buffers ACS values ``_buffer[s, _first[s]:_rows]``
        #: of the ticks ``_grid[_first[s]:_rows]``.
        self._grid = np.empty(2 * max_buffer)
        self._rows = 0
        self._buffer = np.empty((0, self._grid.size))
        self._first = np.zeros(0, dtype=np.intp)
        #: Per slot: a report since the last refit, a deferred last
        #: refit, a model and its forward vector (two states, as
        #: :func:`batch_fit_decode` fits), and the latest estimate's
        #: time, truth code and confidence.
        self._fresh = np.zeros(0, dtype=bool)
        self._deferred = np.zeros(0, dtype=bool)
        self._modelled = np.zeros(0, dtype=bool)
        self._alpha = np.zeros((0, 2))
        self._stamps = np.zeros(0)
        self._codes = np.zeros(0, dtype=np.int8)
        self._confidences = np.zeros(0)
        self._params: list[HMMParams | None] = []
        #: The last tick's estimates.
        self._latest = Estimates.concat(())
        #: The slots of the last filter step and its bank.
        self._bank: tuple[np.ndarray, BatchGaussianHMM] | None = None

    @property
    def claim_ids(self) -> list[str]:
        return list(self._sorted_ids)

    def push(self, report: Report) -> None:
        """Ingest one report, stamped at any time."""
        slot = self._slot_of.get(report.claim_id)
        if slot is None:
            slot = self._join(report.claim_id)
        slots, times, attitudes, uncertainty, independence = self._pushed
        slots.append(slot)
        times.append(report.timestamp)
        attitudes.append(report.attitude)
        uncertainty.append(report.uncertainty)
        independence.append(report.independence)

    def _join(self, claim_id: str) -> int:
        """The next slot, for ``claim_id``; it buffers from the next tick."""
        slot = len(self._ids)
        if slot == len(self._first):
            for name in _PER_SLOT:
                setattr(self, name, _widen(getattr(self, name), 2 * slot or 8))
        self._first[slot] = self._rows
        self._ids.append(claim_id)
        self._slot_of[claim_id] = slot
        self._params.append(None)
        bisect.insort(self._order, slot, key=self._ids.__getitem__)
        self._sorted_ids = tuple(self._ids[s] for s in self._order)
        self._rank = np.argsort(self._order).astype(
            np.min_scalar_type(len(self._ids))
        )
        return slot

    def tick(self, now: float) -> Estimates:
        """Advance the observation grid to ``now`` for every claim.

        Appends one ACS observation per claim, retrains/decodes as
        scheduled, and returns the current truth estimate of every claim
        in claim-id order, as columns.  ``now`` must be later than the
        previous tick, whose window start the window has already dropped.
        """
        if not now > self._now:
            raise ValueError(
                f"tick at {now} does not advance past the previous tick "
                f"at {self._now}"
            )
        self._now = now
        self._ticks += 1
        n = len(self._ids)
        self._take_pushed()
        values = self._window.value_at(now, n)
        self._append(now, values)
        scheduled = self._ticks % self.retrain_every == 0
        due = self._fresh[:n] & (scheduled | self._deferred[:n])
        if due.any():
            # Only now count the informative values the candidates hold.
            held = np.arange(self._rows) >= self._first[:n, None]
            buffered = held & ~np.isnan(self._buffer[:n, : self._rows])
            due &= buffered.sum(axis=1) >= self.config.min_observations
        waiting = np.ones(n, dtype=bool)
        if due.any():
            waiting[self._refit([s for s in self._order if due[s]])] = False
        filtering = np.flatnonzero(waiting & self._modelled[:n])
        if filtering.size:
            self._filter(filtering, values)
        cold = np.flatnonzero(waiting & ~self._modelled[:n])
        if cold.size:
            # Sign rule on the newest ACS value, else the last decision.
            acs = values[cold]
            keep = np.isnan(acs)
            self._codes[cold] = np.where(keep, self._codes[cold], acs > 0)
        self._stamps[:n][waiting] = now
        self._confidences[:n][waiting] = 1.0
        obs = get_obs()
        if obs.enabled:
            if due.any():
                obs.metrics.observe(
                    "sstd.stream.retrain_rows",
                    float(np.count_nonzero(due)),
                    bounds=RETRAIN_ROW_BUCKETS,
                )
            obs.metrics.inc("sstd.stream.filter_rows", filtering.size)
        order = np.array(self._order, dtype=np.intp)
        self._latest = Estimates(
            self._sorted_ids,
            np.arange(n, dtype=self._rank.dtype),
            self._stamps[order],
            self._codes[order],
            self._confidences[order],
        )
        return self._latest

    def _take_pushed(self) -> None:
        """Score the reports pushed since the last tick into the window."""
        count = len(self._pushed[0])
        if not count:
            return
        slots, *rows = (
            np.fromiter(column, dtype, count)
            for column, dtype in zip(self._pushed, _PUSHED_DTYPES)
        )
        columns = ReportColumns.from_arrays(
            self._sorted_ids, self._rank[slots], *rows
        )
        scores = self.config.acs.weights.score_column(columns)
        self._window.push(slots, columns.times, scores)
        self._fresh[slots] = True
        for column in self._pushed:
            column.clear()

    def _append(self, now: float, values: np.ndarray) -> None:
        """Buffer this tick's ACS column; trim in blocks to ``max_buffer``."""
        n = values.size
        if self._rows == self._grid.size:
            # Full: slide the rows some buffer holds to the front; each
            # buffer holds at most max_buffer rows, half the space.
            base = int(self._first[:n].min()) if n else self._rows
            live = slice(base, self._rows)
            self._rows -= base
            self._grid[: self._rows] = self._grid[live]
            self._buffer[:n, : self._rows] = self._buffer[:n, live]
            self._first[:n] -= base
        self._grid[self._rows] = now
        self._buffer[:n, self._rows] = values
        self._rows += 1
        over = self._rows - self._first[:n] > self.max_buffer
        self._first[:n][over] += max(1, self.max_buffer // 5)

    def _buffer_of(self, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """Copies of a claim's buffered ``(times, values)``."""
        first = self._first[slot]
        return (
            self._grid[first : self._rows].copy(),
            self._buffer[slot, first : self._rows].copy(),
        )

    def _refit(self, due: list[int]) -> list[int]:
        """Refit every due claim on its buffer in one ``refit`` call.

        Returns the slots refitted; the ones the call skipped filter
        this tick.
        """
        refit = self._refit_fn or batch_fit_decode
        results = refit(
            [(self._ids[slot], *self._buffer_of(slot)) for slot in due],
            self.config,
        )
        refitted: list[int] = []
        for slot, result in zip(due, results, strict=True):
            self._deferred[slot] = result is SkippedRefit.DEFERRED
            if isinstance(result, SkippedRefit):
                continue
            refitted.append(slot)
            self._fresh[slot] = False
            self._stamps[slot] = result.times[-1]
            self._codes[slot] = result.codes[-1]
            self._confidences[slot] = result.confidences[-1]
            if result.used_hmm:
                self._params[slot] = result.params
                self._alpha[slot] = result.filter_state
                self._modelled[slot] = True
                self._bank = None
        return refitted

    def _filter(self, slots: np.ndarray, acs: np.ndarray) -> None:
        """Advance the filters of ``slots`` by one step on their ``acs``;
        a slot's code is TRUE when its likeliest state's mean is positive."""
        if self._bank is None or not np.array_equal(slots, self._bank[0]):
            params = [self._params[slot] for slot in slots.tolist()]
            self._bank = slots, BatchGaussianHMM(
                len(params),
                n_states=self._alpha.shape[1],
                transmat=np.stack([p.transmat for p in params]),
                means=np.stack([p.means for p in params]),
                variances=np.stack([p.variances for p in params]),
            )
        bank = self._bank[1]
        alphas = bank.filter_step(self._alpha[slots], acs[slots])
        self._alpha[slots] = alphas
        states = np.argmax(alphas, axis=1)
        self._codes[slots] = bank.means[np.arange(slots.size), states] > 0

    def latest(self) -> Mapping[str, TruthEstimate]:
        """Most recent estimate per claim: the last tick's, so a claim
        pushed since then has none yet."""
        return {estimate.claim_id: estimate for estimate in self._latest}
