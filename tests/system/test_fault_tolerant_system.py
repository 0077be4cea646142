"""Fault tolerance of the integrated distributed SSTD system."""

import numpy as np
import pytest

from repro.cluster import FailureConfig, NodeSpec, ResourceSpec
from repro.core import SSTD, SSTDConfig
from repro.core.acs import ACSConfig
from repro.core.types import Attitude, Report
from repro.system import DistributedSSTD, SSTDSystemConfig
from repro.workqueue import CostModel


def reports_for(n_claims=4, per_claim=60):
    rng = np.random.default_rng(0)
    reports = []
    for c in range(n_claims):
        for k in range(per_claim):
            t = float(rng.uniform(0, 500))
            says = rng.random() < 0.8
            reports.append(
                Report(
                    f"s{k}", f"claim-{c}", t,
                    attitude=Attitude.AGREE if says else Attitude.DISAGREE,
                )
            )
    return sorted(reports, key=lambda r: r.timestamp)


def mortal_nodes(n=4, mtbf=40.0):
    return tuple(
        NodeSpec(
            name=f"node-{k:04d}",
            capacity=ResourceSpec(cores=2, memory_mb=4096, disk_mb=65536),
            mtbf_seconds=mtbf,
        )
        for k in range(n)
    )


SSTD_CONFIG = SSTDConfig(acs=ACSConfig(window=50.0, step=25.0))


class TestFaultTolerantBatch:
    def test_estimates_identical_despite_failures(self):
        reports = reports_for()
        serial = sorted(
            SSTD(SSTD_CONFIG).discover(reports, start=0.0, end=500.0),
            key=lambda e: (e.claim_id, e.timestamp),
        )
        system = DistributedSSTD(
            SSTDSystemConfig(
                n_workers=4,
                nodes=mortal_nodes(),
                sstd=SSTD_CONFIG,
                cost_model=CostModel(init_time=2.0, unit_cost=0.5),
                max_workers=4,
                failures=FailureConfig(mean_repair_time=20.0),
                seed=3,
            )
        )
        result = system.run_batch(reports, start=0.0, end=500.0)
        assert list(result.estimates) == serial
        # Long tasks + 40s MTBF: the run must actually have seen churn.
        assert result.makespan > 0

    def test_failures_extend_makespan(self):
        reports = reports_for()
        cost = CostModel(init_time=2.0, unit_cost=0.5)
        base = SSTDSystemConfig(
            n_workers=4,
            nodes=mortal_nodes(mtbf=0.0),  # immortal
            sstd=SSTD_CONFIG,
            cost_model=cost,
            max_workers=4,
            seed=3,
        )
        healthy = DistributedSSTD(base).run_batch(reports, 0.0, 500.0)
        flaky = DistributedSSTD(
            SSTDSystemConfig(
                n_workers=4,
                nodes=mortal_nodes(mtbf=30.0),
                sstd=SSTD_CONFIG,
                cost_model=cost,
                max_workers=4,
                failures=FailureConfig(mean_repair_time=25.0),
                seed=3,
            )
        ).run_batch(reports, 0.0, 500.0)
        assert flaky.makespan > healthy.makespan
        assert list(flaky.estimates) == list(healthy.estimates)
