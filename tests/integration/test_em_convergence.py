"""Baum-Welch ends by ``tol``, not by ``em_max_iter`` — guarded.

Since the xi statistic carries its ``1 / c_{t+1}`` factor the fit is an
EM and its stopping rule fires: of the per-claim fits of one pass, the
share that end on the log-likelihood plateau (``hmm.converged /
hmm.fits``, counted by ``repro.obs``) is what keeps a TD task cheap.  A
change that breaks convergence would not change one estimate's validity
— it would silently pay ``em_max_iter`` sweeps per fit again — so the
share is pinned here on the two fit-bound e2e workloads, pooled over
seeds 1-3: ``batch_longgrid`` at its ``smoke_shape``, ``dist_intervals``
at its ``probe_shape`` (2 000 reports, 8 claims, 1 800 s: 30 grid
ticks).  The interval replay's smoke shape has 10 ticks, and a claim
refits only on every ``STREAMING_RETRAIN_EVERY``-th (5th) engine tick
once it has ``min_observations`` informative windows, so it runs 24
fits over the three seeds — too few to mean something.

Measured when first pinned: ``batch_longgrid`` 24 of 24 fits.  With
the factor missing the interval replay read 98 of 109 and ran 15.7
instead of 9.3 iterations per fit.

``dist_intervals`` re-measured when its replay became the streaming
tick: 99 of 111 worker-side fits (32/35, 34/38, 33/38), merged into the
master's registry.  Its bound fell from 0.95 to 0.84 because a refit is
now the streaming engine's — capped at ``RETRAIN_MAX_ITER`` = 15 EM
iterations on a buffer of at most 360 ticks — where the cumulative
re-decode it replaced ran cold fits with ``em_max_iter`` = 30; the 12
fits that hit the cap are cut at 15 iterations.

Re-measured when the refit cadence became the engine's tick count
(claims that joined apart now refit on the same ticks): 110 of 120
fits over the three seeds.
"""

import pytest

from benchmarks.e2e.workloads import DIST_WORKERS, WORKLOADS, make_trace
from repro.core.sstd import SSTD
from repro.obs import Observability, using
from repro.system.sstd_system import DistributedSSTD, SSTDSystemConfig

SEEDS = (1, 2, 3)

#: workload -> lowest accepted ``hmm.converged / hmm.fits``: the measured
#: share minus a margin of about three fits (longgrid) / five fits (dist).
MIN_CONVERGED_SHARE = {"batch_longgrid": 0.87, "dist_intervals": 0.84}


def longgrid_metrics(seed):
    shape = WORKLOADS["batch_longgrid"].smoke_shape
    with using(Observability(enabled=True)) as obs:
        SSTD().discover(make_trace(shape, seed).reports)
    return obs.metrics


def intervals_metrics(seed):
    shape = WORKLOADS["dist_intervals"].probe_shape
    system = DistributedSSTD(
        SSTDSystemConfig(
            backend="processes",
            n_workers=DIST_WORKERS,
            control_enabled=False,
            observability=True,
        )
    )
    system.run_intervals(
        make_trace(shape, seed), n_intervals=shape.ops, deadline=1.0
    )
    return system.obs.metrics


RUNS = {"batch_longgrid": longgrid_metrics, "dist_intervals": intervals_metrics}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_most_fits_end_by_tolerance(name):
    converged = fits = 0.0
    for seed in SEEDS:
        metrics = RUNS[name](seed)
        converged += metrics.counter("hmm.converged")
        fits += metrics.counter("hmm.fits")
        assert metrics.counter("hmm.hit_max_iter") == (
            metrics.counter("hmm.fits") - metrics.counter("hmm.converged")
        )
    assert fits >= 20  # the shapes still fit enough claims to mean something
    assert converged / fits >= MIN_CONVERGED_SHARE[name], (converged, fits)
