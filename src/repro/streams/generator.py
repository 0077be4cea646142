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

import collections
from dataclasses import dataclass

import numpy as np

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

    # --- per-report vectorized draws ---------------------------------------
    n = times.size
    claim_weights = (np.arange(1, spec.n_claims + 1)) ** (
        -spec.claim_zipf_exponent
    )
    claim_weights = claim_weights / claim_weights.sum()
    claim_idx = rng.choice(spec.n_claims, size=n, p=claim_weights)
    source_idx = population.sample_indices(n, rng)
    source_reliability = population.reliability[source_idx]
    source_retweet_prop = population.retweet_propensity[source_idx]
    knows_truth = rng.random(n) < source_reliability
    hedged_draw = rng.random(n) < HEDGE_RATE
    noise_draw = rng.random(n) < ATTITUDE_NOISE
    retweet_draw = rng.random(n) < source_retweet_prop
    template_pick = rng.random(n)
    copy_pick = rng.random(n)
    observed_at = np.maximum(
        0.0, times - rng.exponential(REPORT_LAG_SCALE, size=n)
    )
    uncertainty = np.where(
        hedged_draw,
        rng.uniform(0.4, 0.8, size=n),
        rng.uniform(0.0, 0.2, size=n),
    )
    indep_fresh = rng.uniform(0.8, 1.0, size=n)
    indep_copy = rng.uniform(0.1, 0.4, size=n)

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

    says_true = np.where(knows_truth, truth_now, ~truth_now)

    recent: dict[int, collections.deque] = collections.defaultdict(
        lambda: collections.deque(maxlen=RECENT_BUFFER)
    )

    source_id = SourcePopulation.source_id
    reports: list[Report] = []
    append = reports.append
    for i in range(n):
        c = int(claim_idx[i])
        is_retweet = bool(retweet_draw[i]) and len(recent[c]) > 0
        if is_retweet:
            buffer = recent[c]
            copied_attitude, copied_source = buffer[
                int(copy_pick[i] * len(buffer))
            ]
            attitude = copied_attitude
            retweet_of = copied_source
            independence = float(indep_copy[i])
        else:
            attitude = Attitude.AGREE if says_true[i] else Attitude.DISAGREE
            retweet_of = None
            independence = float(indep_fresh[i])

        if noise_draw[i]:
            attitude = Attitude(-int(attitude)) if attitude else attitude

        hedged = bool(hedged_draw[i])
        text = ""
        if config.with_text:
            text = _render_text(
                float(template_pick[i]),
                claims[claim_ids[c]].text,
                attitude,
                hedged,
                retweet_of,
            )

        sid = source_id(int(source_idx[i]))
        append(
            Report(
                source_id=sid,
                claim_id=claim_ids[c],
                timestamp=float(times[i]),
                attitude=attitude,
                uncertainty=float(uncertainty[i]),
                independence=independence,
                text=text,
                is_retweet=is_retweet,
            )
        )
        if not is_retweet:
            recent[c].append((attitude, sid))

    sources = population.materialize(int(i) for i in set(source_idx.tolist()))

    return Trace(
        name=spec.name,
        reports=reports,
        sources=sources,
        claims=claims,
        timelines=timelines,
    )
