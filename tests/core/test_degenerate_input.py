"""Degenerate claims end to end: batch, single-claim and streaming entry
points on claims whose ACS is all missing, a single report, reports
sharing timestamps, a constant ACS, or a one-point grid.

For each: no exception, the sign-rule fallback where no HMM can be
trained (and the HMM where one can), confidences in ``[0, 1]``, and one
estimate per grid point.  Last, ACS outliers whose emission densities
underflow to zero under every state: the dead-timestep rescue of the
blocked forward pass, through ``batch_fit_decode``.
"""

import math

import numpy as np
import pytest

from repro.core.acs import ACSConfig
from repro.core.sstd import SSTD, SSTDConfig, StreamingSSTD, batch_fit_decode
from repro.core.types import Attitude, Report, TruthValue
from repro.hmm import BatchGaussianHMM
from repro.hmm.kernels.numpy_ref import CHUNK
from repro.hmm.utils import PROB_FLOOR

CONFIG = SSTDConfig(acs=ACSConfig(window=300.0, step=100.0))


def report(claim_id, timestamp, agree=True, source="s"):
    attitude = Attitude.AGREE if agree else Attitude.DISAGREE
    return Report(source, claim_id, float(timestamp), attitude=attitude)


def duplicate_timestamps():
    """Ten reports on each of twelve timestamps; the crowd turns from
    debunking to confirming halfway."""
    rng = np.random.default_rng(0)
    return [
        report("c", 100.0 * k, agree=(k >= 6) == (rng.random() < 0.85),
               source=f"s{j}")
        for k in range(12)
        for j in range(10)
    ]  # fmt: skip


#: claim reports, explicit ``(start, end)`` or None, whether an HMM fits.
CASES = {
    # Every report precedes the span's first window: all NaN.
    "all_nan": (
        [report("c", t) for t in (0.0, 10.0, 20.0)],
        (1000.0, 2000.0),
        False,
    ),
    "single_report": ([report("c", 500.0)], None, False),
    "duplicate_timestamps": (duplicate_timestamps(), None, True),
    "constant_acs": (
        [report("c", 100.0 * k) for k in range(20)],
        None,
        False,
    ),
    # All reports inside one step: the grid is one point.
    "one_point_grid": (
        [report("c", 10.0 * k, agree=k % 2 == 0) for k in range(8)],
        None,
        False,
    ),
}


#: The sign rule's verdict: FALSE before any evidence, TRUE on agreement.
SIGN_RULE = {
    "all_nan": TruthValue.FALSE,
    "constant_acs": TruthValue.TRUE,
    "single_report": TruthValue.TRUE,
}


def span_of(reports, span):
    if span is not None:
        return span
    times = [r.timestamp for r in reports]
    return min(times), max(times)


def assert_valid(estimates, grid):
    assert [e.timestamp for e in estimates] == grid.tolist()
    assert all(0.0 <= e.confidence <= 1.0 for e in estimates)
    assert {e.value for e in estimates} <= {TruthValue.TRUE, TruthValue.FALSE}


@pytest.mark.parametrize("case", sorted(CASES))
def test_discover_claim(case):
    reports, span, fits = CASES[case]
    grid = CONFIG.acs.grid(*span_of(reports, span))
    start, end = span if span else (None, None)
    result = SSTD(CONFIG).discover_claim("c", reports, start, end)
    assert result.used_hmm is fits
    assert (result.params is not None) is fits
    assert_valid(result.estimates, grid)
    if case in SIGN_RULE:
        assert set(result.values) == {SIGN_RULE[case]}


@pytest.mark.parametrize("case", sorted(CASES))
def test_discover(case):
    reports, span, fits = CASES[case]
    grid = CONFIG.acs.grid(*span_of(reports, span))
    engine = SSTD(CONFIG)
    start, end = span if span else (None, None)
    estimates = engine.discover(reports, start, end)
    assert engine.results["c"].used_hmm is fits
    assert_valid(estimates, grid)


def test_discover_all_cases_in_one_batch():
    """Degenerate rows beside a fitted one in a single batched call."""
    reports = [
        Report(r.source_id, f"{case}/{r.claim_id}", r.timestamp,
               attitude=r.attitude)
        for case, (claim_reports, _, _) in CASES.items()
        for r in claim_reports
    ]  # fmt: skip
    engine = SSTD(CONFIG)
    estimates = engine.discover(reports)
    for case, (claim_reports, _, _) in CASES.items():
        claim_id = f"{case}/c"
        grid = CONFIG.acs.grid(*span_of(claim_reports, None))
        assert_valid([e for e in estimates if e.claim_id == claim_id], grid)
    assert {c for c, r in engine.results.items() if r.used_hmm} == {
        "duplicate_timestamps/c"
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_streaming_tick(case):
    reports, span, fits = CASES[case]
    grid = CONFIG.acs.grid(*span_of(reports, span))
    engine = StreamingSSTD(CONFIG, retrain_every=5)
    pending = sorted(reports, key=lambda r: r.timestamp)
    for now in grid.tolist():
        while pending and pending[0].timestamp <= now:
            engine.push(pending.pop(0))
        (estimate,) = engine.tick(now)
        assert estimate.timestamp == now
        assert 0.0 <= estimate.confidence <= 1.0
    slot = engine._slot_of["c"]
    _, values = engine._buffer_of(slot)
    assert len(values) == grid.size
    if case == "all_nan":
        assert all(math.isnan(v) for v in values)
    # A model exists only where the due refit could fit one.
    assert (engine._params[slot] is not None) is fits


#: claim -> (grid length, timesteps holding an outlier), placed against
#: the forward pass's time blocks.
OUTLIERS = {
    "first-block": (4000, [3]),
    "block-boundary": (4000, [5 * CHUNK]),
    "middle-block": (4000, [20 * CHUNK + 3]),
    "two-blocks": (6500, [30 * CHUNK + 6, 31 * CHUNK + 2]),
}


def outlier_claims():
    """ACS that flips between two clean levels every 500 steps, with an
    outlier of 50 at each :data:`OUTLIERS` step.

    An outlier adds about ``50**2 / n`` to the fitted variance of a
    state owning ``n`` steps, so at these lengths both states' densities
    at the outlier stay below the smallest double: a dead timestep in
    every EM iteration and in the decode.
    """
    rng = np.random.default_rng(1)
    items = []
    for claim_id, (length, steps) in OUTLIERS.items():
        level = np.where((np.arange(length) // 500) % 2 == 0, -0.5, 0.5)
        values = level + rng.normal(0.0, 0.05, size=length)
        values[steps] = 50.0
        items.append((claim_id, 60.0 * np.arange(length), values))
    return items


def test_underflowing_emissions_alone_and_in_a_stack():
    """Dead timesteps in the first block, on a block boundary, inside a
    middle block and in two consecutive blocks: no NaN, a claim decodes
    to the same bits alone and in the stack, and the fitted model's
    forward / backward hold the rescue (uniform ``alpha``, ``PROB_FLOOR``
    scale, ``beta`` zero before the step)."""
    items = outlier_claims()
    stacked = batch_fit_decode(items, SSTDConfig())
    for (claim_id, times, values), result in zip(items, stacked):
        (alone,) = batch_fit_decode([(claim_id, times, values)], SSTDConfig())
        assert result.used_hmm
        assert np.isfinite(result.confidences).all()
        for field in ("codes", "confidences", "filter_state"):
            got, want = getattr(result, field), getattr(alone, field)
            assert got.tobytes() == want.tobytes()
        for name in ("startprob", "transmat", "means", "variances"):
            got, want = getattr(result.params, name), getattr(alone.params, name)
            assert got.tobytes() == want.tobytes()

        params = result.params
        model = BatchGaussianHMM(
            1,
            2,
            startprob=params.startprob,
            transmat=params.transmat,
            means=params.means,
            variances=params.variances,
        )
        emissions = model.emission_probabilities(values[None, :])
        lengths = np.array([values.size])
        alpha, scales, log_likelihood = model.forward(emissions, lengths)
        beta = model.backward(emissions, scales, lengths)
        steps = OUTLIERS[claim_id][1]
        for t in steps:
            assert (emissions[0, t] == 0.0).all()
            assert scales[0, t] == PROB_FLOOR
            assert (alpha[0, t] == 0.5).all()
        assert (beta[0, : steps[-1]] == 0.0).all()
        assert (beta[0, steps[-1] :] > 0.0).all()
        assert np.isfinite(log_likelihood).all()
