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
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.acs import (
    ACSConfig,
    ReportTable,
    SlidingWindowACS,
    acs_sequence,
)
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
    "column_estimates",
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

#: ``_TRUTH_OF_CODE[code]`` is the :class:`TruthValue` of an int8 code.
_TRUTH_OF_CODE = (TruthValue.FALSE, TruthValue.TRUE)


def column_estimates(
    claim_id: str,
    times: np.ndarray,
    codes: np.ndarray,
    confidences: np.ndarray,
) -> tuple[TruthEstimate, ...]:
    """One claim's :class:`TruthEstimate` objects from its columns."""
    return tuple(
        TruthEstimate(claim_id, t, _TRUTH_OF_CODE[code], confidence)
        for t, code, confidence in zip(
            times.tolist(), codes.tolist(), confidences.tolist()
        )
    )


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
    object views — :attr:`values`, :attr:`estimates` — are built on
    first read, so a caller that needs only columns (a worker packing a
    shard result) builds no object per cell.
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
        return TruthEstimate(
            claim_id=self.claim_id,
            timestamp=float(self.times[index]),
            value=_TRUTH_OF_CODE[self.codes[index]],
            confidence=float(self.confidences[index]),
        )

    @functools.cached_property
    def values(self) -> tuple[TruthValue, ...]:
        """Decoded truth value per grid point."""
        return tuple(map(_TRUTH_OF_CODE.__getitem__, self.codes.tolist()))

    @functools.cached_property
    def estimates(self) -> tuple[TruthEstimate, ...]:
        """One :class:`TruthEstimate` per grid point."""
        return column_estimates(
            self.claim_id, self.times, self.codes, self.confidences
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
    codes = np.empty(times.size, dtype=np.int8)
    current = int(TruthValue.FALSE)
    for index, value in enumerate(acs_values.tolist()):
        if value > 0:
            current = int(TruthValue.TRUE)
        elif value < 0:
            current = int(TruthValue.FALSE)
        codes[index] = current
    return ClaimDecodeResult(
        claim_id=claim_id,
        times=times,
        codes=codes,
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
    ) -> list[TruthEstimate]:
        """Run SSTD over all claims in ``reports``; returns all estimates.

        The reports are read once into a :class:`ReportTable`, each
        claim's ACS sequence is computed on its rows, and every sequence
        goes through one :func:`batch_fit_decode` call — the EM/decode
        time recursions run once over the whole claim stack.
        ``self.results`` is cleared first, so it always reflects exactly
        this run.
        """
        table = ReportTable.from_reports(reports, self.config.acs.weights)
        self.results.clear()
        estimates: list[TruthEstimate] = []
        items = []
        for claim_id, rows in table.by_claim():
            times, values = acs_sequence(
                rows, self.config.acs, start=start, end=end
            )
            items.append((claim_id, times, values))
        for result in batch_fit_decode(items, self.config):
            self.results[result.claim_id] = result
            estimates.extend(result.estimates)
        return estimates


class SkippedRefit(enum.Enum):
    """A refit callable's answer for a due claim it did not refit: the
    claim keeps its model and filters, due again on the next tick
    (``DEFERRED``) or at its next scheduled refit (``SHED``)."""

    DEFERRED = "deferred"
    SHED = "shed"


@dataclass(slots=True)
class _ClaimStream:
    """Mutable streaming state of one claim (see :class:`StreamingSSTD`)."""

    claim_id: str
    window: SlidingWindowACS
    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    #: Non-NaN entries of ``values``, kept in step with append and trim.
    informative: int = 0
    #: A report arrived since the claim's last refit.
    fresh: bool = False
    #: The last refit round deferred this claim: it is due off schedule.
    deferred: bool = False
    latest: TruthEstimate | None = None
    #: Parameters of the last successful refit and the forward-filter
    #: vector they have been advanced to; set together, None before the
    #: first fit.
    params: HMMParams | None = None
    alpha: np.ndarray | None = None


class StreamingSSTD:
    """Streaming API: push reports, poll truth estimates as time advances.

    Maintains one sliding-window ACS accumulator and one bounded
    observation buffer per claim.  Claims decompose independently
    (paper Section III-E), so :meth:`tick` treats them as one stack and
    runs three phases:

    1. **Append and split.**  Every claim's buffer gets this tick's ACS
       value; the claim is then *due for retrain* (it got a report
       since its last refit, the engine's tick count — one count for
       every claim, from the engine's first tick — is a multiple of
       ``retrain_every`` or the claim's last refit was deferred, and
       the buffer holds ``min_observations`` informative values),
       *filtering* (it has a model), or on *cold start* (sign rule on
       the newest informative ACS value).  One count puts claims that
       joined on different ticks on the same refit ticks, so a
       scheduled tick pays one refit call for all of them.
    2. **One stacked refit.**  All due claims go through a single
       ``refit(items, config)`` call — :func:`batch_fit_decode`, or a
       callable that returns what it would for each item, or a
       :class:`SkippedRefit` (the distributed system ships the call to
       its workers).  The kernel is row-deterministic and freezes rows
       individually, so each claim's fit is bit-identical to fitting it
       alone; the fit re-initializes
       emission parameters from the buffer's quantiles (a stale model
       after a truth transition would otherwise take many EM rounds to
       drag its means across zero).  The claim's filter is re-seeded
       from the last row of the forward pass that call already ran.  A
       claim whose refit takes the sign fallback keeps its previous
       model and filter state, as does a claim the callable skips.
    3. **One stacked filter step.**  Every filtering claim advances its
       normalized forward vector in one ``(N, K)`` step
       (:meth:`repro.hmm.batch.BatchGaussianHMM.filter_step`).

    Cost: a push is O(1) amortized.  A tick without retrains is O(1)
    per claim — one window read, one append, one estimate — plus a
    constant number of numpy calls for the whole filter stack.  A tick
    with M due claims adds *one* fit: at most ``em_max_iter``
    forward-backward sweeps (it ends when the last row's log-likelihood
    plateaus, rows leaving as theirs do) over at most ``max_buffer``
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
        self._claims: dict[str, _ClaimStream] = {}
        #: The values of ``_claims`` sorted by claim id (the tick order).
        self._ordered: list[_ClaimStream] = []

    @property
    def claim_ids(self) -> list[str]:
        return [claim.claim_id for claim in self._ordered]

    def push(self, report: Report) -> None:
        """Ingest one report (timestamps non-decreasing per claim)."""
        claim = self._claims.get(report.claim_id)
        if claim is None:
            claim = _ClaimStream(
                report.claim_id,
                SlidingWindowACS(
                    self.config.acs.window, self.config.acs.weights
                ),
            )
            self._claims[report.claim_id] = claim
            bisect.insort(
                self._ordered, claim, key=operator.attrgetter("claim_id")
            )
        claim.window.push(report)
        claim.fresh = True

    def tick(self, now: float) -> list[TruthEstimate]:
        """Advance the observation grid to ``now`` for every claim.

        Appends one ACS observation per claim, retrains/decodes as
        scheduled, and returns the current truth estimate of every claim
        in claim-id order.  ``now`` must be later than the previous
        tick: the windows have already evicted reports older than it.
        """
        if not now > self._now:
            raise ValueError(
                f"tick at {now} does not advance past the previous tick "
                f"at {self._now}"
            )
        self._now = now
        self._ticks += 1
        scheduled = self._ticks % self.retrain_every == 0
        due: list[_ClaimStream] = []
        waiting: list[_ClaimStream] = []
        for claim in self._ordered:
            self._append(claim, now)
            is_due = (
                claim.fresh
                and (scheduled or claim.deferred)
                and claim.informative >= self.config.min_observations
            )
            (due if is_due else waiting).append(claim)
        if due:
            waiting.extend(self._refit(due))
        filtering: list[_ClaimStream] = []
        for claim in waiting:
            if claim.params is not None:
                filtering.append(claim)
            else:
                claim.latest = self._cold_start(claim, now)
        if filtering:
            self._filter(filtering, now)
        obs = get_obs()
        if obs.enabled:
            if due:
                obs.metrics.observe(
                    "sstd.stream.retrain_rows",
                    float(len(due)),
                    bounds=RETRAIN_ROW_BUCKETS,
                )
            obs.metrics.inc("sstd.stream.filter_rows", len(filtering))
        return [claim.latest for claim in self._ordered]

    def _append(self, claim: _ClaimStream, now: float) -> None:
        """Buffer this tick's ACS value, trimming to ``max_buffer``."""
        value = claim.window.value_at(now)
        claim.times.append(now)
        claim.values.append(value)
        if not math.isnan(value):
            claim.informative += 1
        if len(claim.times) > self.max_buffer:
            # Trim in blocks so the amortized cost per tick stays O(1).
            drop = max(1, self.max_buffer // 5)
            claim.informative -= sum(
                1 for v in claim.values[:drop] if not math.isnan(v)
            )
            del claim.times[:drop]
            del claim.values[:drop]

    def _cold_start(self, claim: _ClaimStream, now: float) -> TruthEstimate:
        """Sign rule on the newest informative ACS value."""
        value = claim.values[-1]
        if not math.isnan(value):
            truth = TruthValue.TRUE if value > 0 else TruthValue.FALSE
        elif claim.latest is not None:
            truth = claim.latest.value
        else:
            truth = TruthValue.FALSE
        return TruthEstimate(
            claim_id=claim.claim_id, timestamp=now, value=truth
        )

    def _refit(self, due: list[_ClaimStream]) -> list[_ClaimStream]:
        """Refit every due claim on its buffer in one ``refit`` call.

        Returns the claims the call skipped; they filter this tick.
        """
        refit = self._refit_fn or batch_fit_decode
        results = refit(
            [
                (
                    claim.claim_id,
                    np.asarray(claim.times),
                    np.asarray(claim.values),
                )
                for claim in due
            ],
            self.config,
        )
        skipped: list[_ClaimStream] = []
        for claim, result in zip(due, results, strict=True):
            claim.deferred = result is SkippedRefit.DEFERRED
            if isinstance(result, SkippedRefit):
                skipped.append(claim)
                continue
            claim.fresh = False
            claim.latest = result.estimate(-1)
            if result.used_hmm:
                claim.params = result.params
                claim.alpha = result.filter_state
        return skipped

    def _filter(self, filtering: list[_ClaimStream], now: float) -> None:
        """Advance every modelled claim's forward filter by one step."""
        params = [claim.params for claim in filtering]
        bank = BatchGaussianHMM(
            len(params),
            n_states=params[0].means.size,
            transmat=np.stack([p.transmat for p in params]),
            means=np.stack([p.means for p in params]),
            variances=np.stack([p.variances for p in params]),
        )
        alphas = bank.filter_step(
            np.stack([claim.alpha for claim in filtering]),
            np.array([claim.values[-1] for claim in filtering]),
        )
        states = np.argmax(alphas, axis=1)
        asserted = bank.means[np.arange(len(filtering)), states] > 0
        for claim, alpha, positive in zip(filtering, alphas, asserted):
            claim.alpha = alpha
            claim.latest = TruthEstimate(
                claim_id=claim.claim_id,
                timestamp=now,
                value=TruthValue.TRUE if positive else TruthValue.FALSE,
            )

    def latest(self) -> Mapping[str, TruthEstimate]:
        """Most recent estimate per claim."""
        return {
            claim.claim_id: claim.latest
            for claim in self._ordered
            if claim.latest is not None
        }
