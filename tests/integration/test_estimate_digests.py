"""Pinned estimate digests: a bit change is a visible edit of this file.

Each e2e workload (``benchmarks/e2e/workloads.py``) runs one pass at its
``smoke_shape`` on seed 1 and its estimates are fingerprinted with
:func:`repro.core.estimates_io.estimates_digest`.  A PR that claims
"same answers" leaves ``PINNED`` alone; a PR that changes numerics on
purpose edits it and says why.  ``repro-cli discover --output`` +
``repro-cli digest`` compute the same fingerprint from the shell.
"""

import math

import pytest

from benchmarks.e2e.workloads import WORKLOADS, make_trace
from repro.cli import main
from repro.core.columns import Estimates
from repro.core.estimates_io import estimates_digest, save_estimates

SEED = 1

#: workload -> (digest, estimate count) at ``smoke_shape``, seed 1.
#:
#: Re-pinned by PR 23 (Baum-Welch made a MAP-EM: the ``1 / c_{t+1}``
#: factor restored in the xi statistic, the sticky prior applied as
#: Dirichlet pseudo-counts on ``A``, 4 per grid step of the claim).  Every fitted transition matrix
#: and therefore every confidence changed; counts did not.  Before:
#: ``2564928518bfe322`` / ``eabc233ae62fc52f`` / ``bc1705ab640564b8`` /
#: ``aab6717505ff4425``.
#:
#: Re-pinned when ACS window membership moved to offsets from the span
#: start (``t - start`` against ``k * step - window``): a claim's first
#: report sits exactly on the lower edge of grid index 4 and no longer
#: counts there when ``start + 5 * step - window`` used to round below
#: it.  Only that one ACS value per affected claim moved; the refitted
#: models moved confidences and, on ``batch_longgrid``, 19 truth values.
#: The ``dist_intervals`` and ``stream_ticks`` digests did not move.
#: Before: ``6aadc8d7fdde8c51`` / ``e018332f3fa88efa``.
#:
#: ``dist_intervals`` re-pinned when the real-backend interval replay
#: became the streaming tick: every backend now returns the serial
#: ``StreamingSSTD`` replay of the trace's batch grid (refit every 5
#: ticks, filtered estimates in between) instead of a cold re-decode of
#: each claim's whole history every interval.  One estimate per claim
#: per grid point, the closing point included, so the count moved too.
#: Before: ``039fc96dd0a11154`` (72).
#:
#: ``batch_longgrid`` re-pinned when the forward and backward passes cut
#: rows of more than ``numpy_ref.ONE_BLOCK_MAX`` steps into time blocks:
#: its 120-step smoke grid runs blocked, and a block's carried boundary
#: vector differs from the sequential one by rounding.  Every truth value
#: is unchanged; on the 12 full-shape runs (seeds 1–3, four workloads)
#: confidences moved by at most 6.1e-14.  The other smoke grids are
#: shorter and run as one block, the sequential recursion: same bits.
#: Before: ``5e69a7a7d8ee52ed``.
#:
#: ``dist_intervals`` and ``stream_ticks`` re-pinned when the streaming
#: engine's refit cadence became one count of engine ticks: a claim is
#: due when the engine's tick count, not its own count from its first
#: tick, is a multiple of ``retrain_every``, so claims that joined on
#: different ticks refit together.  Refits move by fewer than
#: ``retrain_every`` ticks, and with them the filtered estimates and
#: confidences between refits; counts did not move, and neither did the
#: batch digests (the quantile init that changed with it is
#: bit-identical).  Before: ``8ce25789636abb77`` / ``0a13169d773f6a3b``.
#:
#: ``dist_intervals`` re-pinned when the streaming window became one
#: stack of report rows: a window's ACS is summed afresh from its rows
#: in push order (one ``np.bincount``) instead of kept as a running
#: total that added every push and subtracted every eviction.  Window
#: membership did not change, only the sum's rounding; on the full
#: shapes, seeds 1–3, no truth value moved and confidences moved by at
#: most 3.3e-13.  The ``stream_ticks`` smoke digest did not move.
#: Before: ``6a907abe70279564``.
#:
#: ``batch_longgrid`` re-pinned when the backward pass began to reuse the
#: forward pass's block products, anchored at ``t = 0`` (it ran on
#: per-row time-reversed copies before): a blocked row's ``beta`` now
#: crosses different block boundaries, so it moved by rounding.  Every
#: truth value is unchanged; on the 12 full-shape runs confidences moved
#: by at most 4.8e-14.  The other smoke grids run as one block: same
#: bits.  Before: ``0235423363d9b218``.
PINNED = {
    "batch_volume": ("414c587868493c5f", 237),
    "batch_longgrid": ("e9e04f905819bba1", 941),
    "dist_intervals": ("d5a55fbd52e98d16", 79),
    "stream_ticks": ("1d6c3e5f2a469507", 117),
}


def smoke_estimates(name):
    workload = WORKLOADS[name]
    shape = workload.smoke_shape
    return workload.run_pass(make_trace(shape, SEED), shape, False).estimates


def test_every_workload_is_pinned():
    assert sorted(PINNED) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smoke_shape_digest(name):
    estimates = smoke_estimates(name)
    assert (estimates_digest(estimates), len(estimates)) == PINNED[name]
    # The column read and the object walk fingerprint the same stream.
    columns = Estimates.of(estimates)
    assert estimates_digest(columns) == estimates_digest(list(columns))


def test_digest_sees_one_bit_and_the_order():
    estimates = list(smoke_estimates("stream_ticks"))
    flipped = list(estimates)
    e = flipped[5]
    nudged = math.nextafter(e.confidence, 0.5)
    assert nudged != e.confidence
    flipped[5] = type(e)(e.claim_id, e.timestamp, e.value, nudged)
    assert estimates_digest(flipped) != estimates_digest(estimates)
    assert estimates_digest(estimates[::-1]) != estimates_digest(estimates)


def test_cli_digest_round_trips_through_jsonl(tmp_path, capsys):
    digest, count = PINNED["batch_volume"]
    path = tmp_path / "estimates.jsonl"
    save_estimates(smoke_estimates("batch_volume"), path)
    assert main(["digest", str(path), str(path)]) == 0
    line = f"{digest}  {count}  {path}"
    assert capsys.readouterr().out.splitlines() == [line, line]
