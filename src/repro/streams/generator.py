"""Synthetic social sensing trace generator.

Substitutes for the paper's real Twitter traces (DESIGN.md Section 3):
given a :class:`~repro.streams.events.ScenarioSpec` it produces a
:class:`~repro.streams.trace.Trace` exhibiting the phenomena the paper's
evaluation exercises:

- **dynamic truth** — each claim gets a piecewise-constant ground-truth
  timeline with Poisson-distributed transitions;
- **bursty traffic** — arrivals follow a non-homogeneous Poisson process
  whose rate spikes at truth transitions (touchdowns, arrests);
- **data sparsity** — a large weakly-skewed population: most sources
  report exactly once, matching Table II's source/report ratios;
- **misinformation** — unreliable sources and deliberate spreaders
  report the opposite of the truth, and retweets *copy* earlier reports'
  attitudes, so popular falsehoods cascade exactly as the paper's OSU
  example describes;
- **noisy semantics** — reports hedge ("possibly", "unconfirmed") with
  scenario-realistic text, and the derived attitude labels carry a small
  error rate to model the paper's heuristic labeling.

Everything is driven by a single integer seed for exact reproducibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core.columns import ReportColumns, Reports
from repro.core.types import (
    Attitude,
    Claim,
    Report,
    TruthLabel,
    TruthTimeline,
    TruthValue,
)
from repro.streams.events import (
    AGREE_HEDGED_TEMPLATES,
    AGREE_TEMPLATES,
    DISAGREE_HEDGED_TEMPLATES,
    DISAGREE_TEMPLATES,
    ScenarioSpec,
)
from repro.streams.sources import SourcePopulation
from repro.streams.trace import Trace
from repro.streams.traffic import TrafficModel, bursts_at_transitions

__all__ = [
    "GeneratorConfig",
    "generate_trace",
    "generate_truth_timeline",
]


#: Fraction of reports using hedged language.
HEDGE_RATE = 0.25
#: Probability that a report's attitude label is flipped (models errors
#: of the heuristic attitude classifier).
ATTITUDE_NOISE = 0.03
#: Mean staleness (seconds) of the truth a source observes; reports just
#: after a transition may reflect the old truth, exactly the noise that
#: trips naive change detection.
REPORT_LAG_SCALE = 120.0
#: How many recent reports per claim are retweetable.
RECENT_BUFFER = 20
#: Cap on burst kernels (rate-bound blowup guard).
MAX_BURSTS = 64

#: Rows per batch of :class:`Report` objects built at a time.
_BUILD_CHUNK = 1 << 15

#: Attitude of each value in ``{-1, 0, +1}``, indexed by that value.
_ATTITUDE_OF = np.array(
    [Attitude.NEUTRAL, Attitude.AGREE, Attitude.DISAGREE], dtype=object
)


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    """Generator settings separate from the scenario shape.

    Attributes:
        with_text: Generate tweet text (disable for big fast traces).
    """

    with_text: bool = True


def generate_truth_timeline(
    claim_id: str,
    spec: ScenarioSpec,
    rng: np.random.Generator,
) -> TruthTimeline:
    """Random piecewise-constant ground truth for one claim.

    Transition count is Poisson(``mean_truth_flips``); transition times
    are uniform over the middle 90% of the event (so every truth segment
    has some evidence on both sides).
    """
    n_flips = int(rng.poisson(spec.mean_truth_flips))
    lo, hi = 0.05 * spec.duration, 0.95 * spec.duration
    flip_times = np.sort(rng.uniform(lo, hi, size=n_flips))
    # Enforce a minimum gap so segments are observable.
    min_gap = spec.duration * 0.02
    kept: list[float] = []
    for t in flip_times:
        if not kept or t - kept[-1] >= min_gap:
            kept.append(float(t))

    value = TruthValue.from_bool(bool(rng.random() < spec.initial_true_fraction))
    labels = []
    start = 0.0
    for t in kept:
        labels.append(
            TruthLabel(claim_id=claim_id, start=start, end=t, value=value)
        )
        value = TruthValue(1 - int(value))
        start = t
    labels.append(
        TruthLabel(claim_id=claim_id, start=start, end=spec.duration, value=value)
    )
    return TruthTimeline(claim_id, labels)


def _render_text(
    template_pick: float,
    claim_text: str,
    attitude: Attitude,
    hedged: bool,
    retweet_of: str | None,
) -> str:
    if attitude is Attitude.AGREE:
        pool = AGREE_HEDGED_TEMPLATES if hedged else AGREE_TEMPLATES
    else:
        pool = DISAGREE_HEDGED_TEMPLATES if hedged else DISAGREE_TEMPLATES
    text = pool[int(template_pick * len(pool))].format(claim=claim_text)
    if retweet_of is not None:
        text = f"RT @{retweet_of}: {text}"
    return text


def generate_trace(
    spec: ScenarioSpec,
    seed: int = 0,
    config: GeneratorConfig | None = None,
) -> Trace:
    """Generate a complete trace for ``spec``.

    Deterministic given ``(spec, seed, config)``.
    """
    config = config or GeneratorConfig()
    rng = np.random.default_rng(seed)

    # --- populations ----------------------------------------------------
    population = SourcePopulation(spec.population, rng)

    claims: dict[str, Claim] = {}
    timelines: dict[str, TruthTimeline] = {}
    claim_ids = []
    for k in range(spec.n_claims):
        claim_id = f"claim-{k:04d}"
        text = spec.claim_texts[k % len(spec.claim_texts)]
        if k >= len(spec.claim_texts):
            text = f"{text} (variant {k // len(spec.claim_texts)})"
        claims[claim_id] = Claim(claim_id=claim_id, text=text, topic=spec.topic)
        timelines[claim_id] = generate_truth_timeline(claim_id, spec, rng)
        claim_ids.append(claim_id)

    # --- traffic ----------------------------------------------------------
    transitions = sorted(
        t for timeline in timelines.values() for t in timeline.transition_times()
    )
    if len(transitions) > MAX_BURSTS:
        idx = np.linspace(0, len(transitions) - 1, MAX_BURSTS).astype(int)
        transitions = [transitions[i] for i in idx]
    # Amplitude is split across kernels so the peak rate stays bounded
    # regardless of how many claims flip.
    per_burst = spec.burst_amplitude / max(1, len(transitions)) * 8.0
    traffic = TrafficModel(
        base_rate=max(spec.n_reports / spec.duration, 1e-9),
        diurnal_amplitude=spec.diurnal_amplitude,
        bursts=bursts_at_transitions(
            transitions, amplitude=per_burst, decay=spec.burst_decay
        ),
    )
    times = traffic.sample_times_exact(0.0, spec.duration, spec.n_reports, rng)

    claim_texts = None
    if config.with_text:
        claim_texts = [claims[claim_id].text for claim_id in claim_ids]
    rows = _draw_rows(
        spec, rng, population, claim_ids, claim_texts, timelines, times
    )
    reports = _build_reports(rows, claim_ids)
    sources = population.materialize(int(i) for i in set(rows.source.tolist()))
    return Trace(
        name=spec.name,
        reports=reports,
        sources=sources,
        claims=claims,
        timelines=timelines,
    )


@dataclass(frozen=True, eq=False)
class _Rows:
    """The generated reports as columns, in time order.

    ``claim`` and ``source`` index the generator's claim list and the
    population; ``texts`` is ``None`` when no text was generated.
    """

    times: np.ndarray
    claim: np.ndarray
    source: np.ndarray
    attitudes: np.ndarray
    uncertainty: np.ndarray
    independence: np.ndarray
    is_retweet: np.ndarray
    texts: list[str] | None


def _draw_rows(
    spec: ScenarioSpec,
    rng: np.random.Generator,
    population: SourcePopulation,
    claim_ids: list[str],
    claim_texts: list[str] | None,
    timelines: dict[str, TruthTimeline],
    times: np.ndarray,
) -> _Rows:
    """Per-report draws for arrival ``times``, reduced to report columns.

    The draw arrays that only decide a column are local, so they are
    freed when this returns.  Text is rendered when ``claim_texts`` (one
    per claim) is given.
    """
    n = times.size
    claim_weights = (np.arange(1, spec.n_claims + 1)) ** (
        -spec.claim_zipf_exponent
    )
    claim_weights = claim_weights / claim_weights.sum()
    claim_idx = rng.choice(spec.n_claims, size=n, p=claim_weights)
    source_idx = population.sample_indices(n, rng)
    knows_truth = rng.random(n) < population.reliability[source_idx]
    hedged_draw = rng.random(n) < HEDGE_RATE
    noise_draw = rng.random(n) < ATTITUDE_NOISE
    retweet_draw = rng.random(n) < population.retweet_propensity[source_idx]
    template_pick = rng.random(n)
    copy_pick = rng.random(n)
    observed_at = np.maximum(
        0.0, times - rng.exponential(REPORT_LAG_SCALE, size=n)
    )

    # Vectorized truth-at-observation-time lookup, per claim.
    truth_now = np.zeros(n, dtype=bool)
    for c, claim_id in enumerate(claim_ids):
        mask = claim_idx == c
        if not mask.any():
            continue
        timeline = timelines[claim_id]
        starts = np.array([lab.start for lab in timeline])
        values = np.array([int(lab.value) for lab in timeline], dtype=bool)
        seg = np.clip(
            np.searchsorted(starts, observed_at[mask], side="right") - 1,
            0,
            len(values) - 1,
        )
        truth_now[mask] = values[seg]
    del observed_at

    uncertainty = np.where(
        hedged_draw,
        rng.uniform(0.4, 0.8, size=n),
        rng.uniform(0.0, 0.2, size=n),
    )
    indep_fresh = rng.uniform(0.8, 1.0, size=n)
    indep_copy = rng.uniform(0.1, 0.4, size=n)

    says_true = np.where(knows_truth, truth_now, ~truth_now)
    copied = _retweet_sources(claim_idx, retweet_draw, copy_pick)
    is_retweet = copied >= 0
    retweets = np.flatnonzero(is_retweet)

    # An original report states what its source believes; the attitude
    # classifier then mislabels some.  A retweet copies the (labelled)
    # attitude of its original and is mislabelled on its own draw.
    attitudes = np.where(says_true, 1, -1).astype(np.int8)
    np.negative(attitudes, out=attitudes, where=noise_draw)
    attitudes[retweets] = attitudes[copied[retweets]]
    flipped = retweets[noise_draw[retweets]]
    attitudes[flipped] = -attitudes[flipped]

    texts = None
    if claim_texts is not None:
        texts = _render_texts(
            claim_texts,
            claim_idx,
            source_idx,
            attitudes,
            copied,
            hedged_draw,
            template_pick,
        )
    return _Rows(
        times=times,
        claim=claim_idx.astype(np.min_scalar_type(spec.n_claims)),
        source=source_idx.astype(np.min_scalar_type(len(population))),
        attitudes=attitudes,
        uncertainty=uncertainty,
        independence=np.where(is_retweet, indep_copy, indep_fresh),
        is_retweet=is_retweet,
        texts=texts,
    )


def _retweet_sources(
    claim_idx: np.ndarray, retweet_draw: np.ndarray, copy_pick: np.ndarray
) -> np.ndarray:
    """The row each retweet copies, -1 for an original report.

    Row ``i`` is a retweet when its draw says so and its claim already
    has an original report (so a claim's first report is original).  It
    copies from the claim's last ``RECENT_BUFFER`` original reports
    before it, oldest first, the one at ``int(copy_pick[i] * len)``.
    """
    n = claim_idx.size
    copied = np.full(n, -1, dtype=np.intp)
    if not n:
        return copied
    # Rows grouped by claim, each group in row (= time) order.
    order = np.argsort(claim_idx, kind="stable")
    grouped = claim_idx[order]
    first = np.ones(n, dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    retweet = retweet_draw[order] & ~first
    original = ~retweet
    # Originals before each grouped row, overall and within its claim.
    before = np.cumsum(original) - original
    group_start = np.maximum.accumulate(np.where(first, np.arange(n), 0))
    in_claim = before - before[group_start]
    at = np.flatnonzero(retweet)
    buffer = np.minimum(in_claim[at], RECENT_BUFFER)
    pick = (copy_pick[order[at]] * buffer).astype(np.intp)
    originals = order[original]
    copied[order[at]] = originals[before[at] - buffer + pick]
    return copied


def _render_texts(
    claim_texts: list[str],
    claim_idx: np.ndarray,
    source_idx: np.ndarray,
    attitudes: np.ndarray,
    copied: np.ndarray,
    hedged: np.ndarray,
    template_pick: np.ndarray,
) -> list[str]:
    """Tweet text of every row (a retweet quotes its original's source)."""
    source_id = SourcePopulation.source_id
    source = source_idx.tolist()
    return [
        _render_text(
            pick,
            claim_texts[c],
            _ATTITUDE_OF[attitude],
            hedged_row,
            source_id(source[original]) if original >= 0 else None,
        )
        for pick, c, attitude, hedged_row, original in zip(
            template_pick.tolist(),
            claim_idx.tolist(),
            attitudes.tolist(),
            hedged.tolist(),
            copied.tolist(),
        )
    ]


def _build_reports(rows: _Rows, claim_ids: list[str]) -> Reports:
    """The rows as :class:`Report` objects carrying their columns.

    Every report of a source (and of a claim) shares one id string.
    """
    count = np.bincount(rows.claim, minlength=len(claim_ids))
    present = sorted(claim_ids[k] for k in np.flatnonzero(count).tolist())
    rank = {claim_id: k for k, claim_id in enumerate(present)}
    claim_rank = np.array(
        [rank.get(claim_id, 0) for claim_id in claim_ids],
        dtype=np.min_scalar_type(len(present)),
    )
    columns = ReportColumns.from_arrays(
        claim_ids=tuple(present),
        claim_index=claim_rank[rows.claim],
        times=rows.times,
        attitudes=rows.attitudes,
        uncertainty=rows.uncertainty,
        independence=rows.independence,
    )
    used, source_of = np.unique(rows.source, return_inverse=True)
    source_ids = np.array(
        [SourcePopulation.source_id(i) for i in used.tolist()], dtype=object
    )
    claim_names = np.array(claim_ids, dtype=object)

    def chunk(part: slice) -> Iterator[Report]:
        return map(
            Report,
            source_ids[source_of[part]],
            claim_names[rows.claim[part]],
            rows.times[part].tolist(),
            _ATTITUDE_OF[rows.attitudes[part]],
            rows.uncertainty[part].tolist(),
            rows.independence[part].tolist(),
            itertools.repeat("") if rows.texts is None else rows.texts[part],
            rows.is_retweet[part].tolist(),
        )

    # Chunks bound the temporary per-row lists the objects are built
    # from: -11 MB of peak RSS on a 400 k-report trace.
    parts = range(0, rows.times.size, _BUILD_CHUNK)
    return Reports(
        itertools.chain.from_iterable(
            chunk(slice(lo, lo + _BUILD_CHUNK)) for lo in parts
        ),
        columns,
    )
