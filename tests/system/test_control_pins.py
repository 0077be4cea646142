"""The simulated control loop, pinned to its numbers.

Two runs on the virtual clock with a fixed :class:`CostModel` and
control on:

- ``run_intervals`` with an elastic pool, the shape of
  ``benchmarks/bench_ablation_pid.py`` (scaled down), once at the
  paper's 1 s sample period and once sampling five times per deadline;
- ``run_batch`` with ``n_workers == max_workers``, the shape of
  ``benchmarks/bench_fig4_execution_time.py``, where only the job
  priorities move.

The execution times, the final pool size, the makespan and the final
master priorities are literals: every PID update, WCET projection and
knob step feeds them, so a refactor of the control loop that changes
one of those changes them.  Only the calls that produce the numbers may
change.
"""

import pytest

from repro.control import ControlConfig
from repro.core.acs import ACSConfig
from repro.core.sstd import SSTDConfig
from repro.streams import generate_trace
from repro.streams.events import boston_bombing
from repro.streams.generator import GeneratorConfig
from repro.system import DistributedSSTD, SSTDSystemConfig
from repro.workqueue import CostModel


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        boston_bombing().scaled(0.02),
        seed=3,
        config=GeneratorConfig(with_text=False),
    )


@pytest.fixture
def masters(monkeypatch):
    """Collects the Work Queue master of every simulated run."""
    collected = []
    build = DistributedSSTD._build

    def capture(self, *args):
        parts = build(self, *args)
        collected.append(parts[1])
        return parts

    monkeypatch.setattr(DistributedSSTD, "_build", capture)
    return collected


def run_intervals(trace, sample_period):
    system = DistributedSSTD(
        SSTDSystemConfig(
            n_workers=2,
            max_workers=16,
            cost_model=CostModel(
                init_time=0.01, unit_cost=2e-4, transfer_cost=0.0
            ),
            control=ControlConfig(sample_period=sample_period),
        )
    )
    return system.run_intervals(trace, n_intervals=40, deadline=0.25)


def run_batch(trace):
    system = DistributedSSTD(
        SSTDSystemConfig(
            n_workers=4,
            max_workers=4,
            deadline=0.5,
            sstd=SSTDConfig(acs=ACSConfig(window=3600.0, step=1800.0)),
            cost_model=CostModel(
                init_time=0.01, unit_cost=1e-3, transfer_cost=2e-5
            ),
        )
    )
    return system.run_batch(trace.reports, start=trace.start, end=trace.end)


PAPER_PERIOD_TIMES = [
    0.291, 0.30739999999999995, 0.28159999999999996, 0.29479999999999995,
    0.27599999999999936, 0.28339999999999943, 0.2301999999999993,
    0.2654000000000034, 0.2568000000000037, 0.27500000000000346,
    0.27259999999999174, 0.16620000000000212, 0.16220000000000256,
    0.14260000000000161, 0.16120000000000134, 0.14820000000000233,
    0.14160000000000172, 0.12280000000000024, 0.12199999999999989,
    0.1396000000000006, 0.1631999999999989, 0.17279999999999962,
    0.1509999999999989, 0.16359999999999886, 0.16559999999999864,
    0.14199999999999946, 0.12880000000000003, 0.12680000000000113,
    0.12380000000000102, 0.13699999999999868, 0.14700000000000024,
    0.15339999999999776, 0.1617999999999995, 0.1637999999999984,
    0.14459999999999873, 0.13239999999999874, 0.13419999999999987,
    0.12820000000000054, 0.1316000000000015, 0.14180000000000081,
]

PAPER_PERIOD_WORKERS = 4

PAPER_PERIOD_PRIORITIES = {
    "claim-0000": 0.5,
    "claim-0001": 0.5,
    "claim-0002": 0.18775786713597153,
    "claim-0003": 0.18400000000000036,
    "claim-0004": 0.09128720000000021,
    "claim-0005": 0.05,
    "claim-0006": 0.05535955664378005,
    "claim-0007": 0.05,
    "claim-0008": 0.05,
    "claim-0009": 0.0625,
    "claim-0010": 0.05,
    "claim-0011": 0.05,
    "claim-0012": 0.05,
    "claim-0013": 0.05,
    "claim-0014": 0.05,
    "claim-0015": 0.05,
    "claim-0016": 0.0625,
    "claim-0017": 0.0625,
    "claim-0018": 0.125,
    "claim-0019": 0.05,
    "claim-0020": 0.0625,
    "claim-0021": 0.05,
    "claim-0022": 0.05,
    "claim-0023": 0.0625,
    "claim-0024": 0.05,
    "claim-0025": 0.0625,
    "claim-0026": 0.05,
    "claim-0027": 0.0625,
    "claim-0028": 0.1161942538404664,
    "claim-0029": 0.05,
    "claim-0030": 0.05,
    "claim-0031": 0.05,
    "claim-0032": 0.05,
    "claim-0033": 0.05,
    "claim-0034": 0.125,
    "claim-0035": 0.25,
    "claim-0036": 0.05,
    "claim-0037": 0.05,
    "claim-0038": 0.125,
    "claim-0039": 0.125,
    "claim-0040": 0.0625,
    "claim-0041": 0.05,
    "claim-0042": 0.05,
    "claim-0043": 0.05,
    "claim-0044": 0.125,
    "claim-0045": 0.0625,
    "claim-0046": 0.05,
    "claim-0047": 0.0625,
    "claim-0048": 0.0625,
    "claim-0049": 0.5,
    "claim-0050": 0.05,
    "claim-0051": 0.05,
    "claim-0052": 0.125,
    "claim-0053": 0.05,
    "claim-0054": 0.125,
    "claim-0055": 0.25,
    "claim-0056": 0.25,
    "claim-0057": 0.25,
    "claim-0058": 0.125,
    "claim-0059": 0.25,
}

FAST_PERIOD_TIMES = [
    0.1318, 0.044800000000000006, 0.043399999999999966, 0.04359999999999997,
    0.042800000000000005, 0.04260000000000003, 0.033399999999999985,
    0.04239999999999999, 0.04199999999999998, 0.04299999999999998,
    0.04480000000000006, 0.05279999999999996, 0.054400000000000004,
    0.04620000000000002, 0.05460000000000009, 0.05159999999999998,
    0.04400000000000004, 0.04200000000000015, 0.042200000000000015,
    0.044600000000000084, 0.05459999999999976, 0.05919999999999992,
    0.053999999999999826, 0.055199999999999916, 0.05879999999999996, 0.0524,
    0.04420000000000002, 0.04339999999999988, 0.041999999999999815,
    0.05119999999999991, 0.05479999999999996, 0.05779999999999985,
    0.06459999999999977, 0.06440000000000001, 0.056599999999999984,
    0.053999999999999826, 0.05479999999999996, 0.054199999999999804,
    0.05400000000000005, 0.06240000000000112,
]

FAST_PERIOD_WORKERS = 10

FAST_PERIOD_PRIORITIES = {
    "claim-0000": 0.05,
    "claim-0001": 0.05,
    "claim-0002": 0.05,
    "claim-0003": 0.05,
    "claim-0004": 0.05,
    "claim-0005": 0.05542899999999999,
    "claim-0006": 0.05,
    "claim-0007": 0.05111799872800001,
    "claim-0008": 0.05,
    "claim-0009": 0.0581891224054362,
    "claim-0010": 0.05,
    "claim-0011": 0.05,
    "claim-0012": 0.05,
    "claim-0013": 0.05,
    "claim-0014": 0.05,
    "claim-0015": 0.05,
    "claim-0016": 0.05,
    "claim-0017": 0.05,
    "claim-0018": 0.05,
    "claim-0019": 0.05,
    "claim-0020": 0.05,
    "claim-0021": 0.05,
    "claim-0022": 0.05,
    "claim-0023": 0.05,
    "claim-0024": 0.05,
    "claim-0025": 0.05,
    "claim-0026": 0.05,
    "claim-0027": 0.05,
    "claim-0028": 0.05,
    "claim-0029": 0.05,
    "claim-0030": 0.05,
    "claim-0031": 0.05,
    "claim-0032": 0.05,
    "claim-0033": 0.05,
    "claim-0034": 0.05,
    "claim-0035": 0.05,
    "claim-0036": 0.05,
    "claim-0037": 0.05,
    "claim-0038": 0.05,
    "claim-0039": 0.05,
    "claim-0040": 0.05,
    "claim-0041": 0.05,
    "claim-0042": 0.05,
    "claim-0043": 0.05,
    "claim-0044": 0.05,
    "claim-0045": 0.05,
    "claim-0046": 0.05,
    "claim-0047": 0.05,
    "claim-0048": 0.05,
    "claim-0049": 0.05,
    "claim-0050": 0.05,
    "claim-0051": 0.05,
    "claim-0052": 0.05,
    "claim-0053": 0.05,
    "claim-0054": 0.05,
    "claim-0055": 0.05,
    "claim-0056": 0.05,
    "claim-0057": 0.05,
    "claim-0058": 0.05,
    "claim-0059": 0.0625,
}

BATCH_MAKESPAN = 3.0272400000000004

BATCH_PRIORITIES = {
    "claim-0000": 55.479377777879144,
    "claim-0001": 4.096530454,
    "claim-0004": 4.10126814559462,
    "claim-0005": 44.49699879751908,
    "claim-0006": 4.172563494017584,
    "claim-0007": 100.0,
    "claim-0008": 100.0,
    "claim-0009": 92.4684279956019,
    "claim-0010": 100.0,
    "claim-0011": 100.0,
    "claim-0012": 100.0,
    "claim-0013": 100.0,
    "claim-0014": 100.0,
    "claim-0015": 100.0,
    "claim-0016": 100.0,
    "claim-0017": 100.0,
    "claim-0019": 100.0,
    "claim-0020": 100.0,
    "claim-0021": 100.0,
    "claim-0022": 100.0,
    "claim-0023": 100.0,
    "claim-0024": 100.0,
    "claim-0025": 100.0,
    "claim-0026": 100.0,
    "claim-0027": 100.0,
    "claim-0028": 100.0,
    "claim-0029": 100.0,
    "claim-0030": 100.0,
    "claim-0031": 100.0,
    "claim-0032": 100.0,
    "claim-0033": 100.0,
    "claim-0034": 100.0,
    "claim-0035": 100.0,
    "claim-0036": 100.0,
    "claim-0037": 100.0,
    "claim-0038": 100.0,
    "claim-0040": 100.0,
    "claim-0041": 100.0,
    "claim-0042": 100.0,
    "claim-0043": 100.0,
    "claim-0044": 100.0,
    "claim-0045": 100.0,
    "claim-0046": 100.0,
    "claim-0047": 100.0,
    "claim-0048": 100.0,
    "claim-0049": 100.0,
    "claim-0050": 100.0,
    "claim-0051": 100.0,
    "claim-0052": 100.0,
    "claim-0053": 100.0,
    "claim-0054": 100.0,
    "claim-0055": 100.0,
    "claim-0056": 100.0,
    "claim-0057": 100.0,
    "claim-0058": 100.0,
    "claim-0059": 100.0,
}


@pytest.mark.parametrize(
    "sample_period, times, workers, priorities",
    [
        (
            1.0,
            PAPER_PERIOD_TIMES,
            PAPER_PERIOD_WORKERS,
            PAPER_PERIOD_PRIORITIES,
        ),
        (0.05, FAST_PERIOD_TIMES, FAST_PERIOD_WORKERS, FAST_PERIOD_PRIORITIES),
    ],
    ids=["paper_period", "fast_period"],
)
def test_elastic_intervals_as_pinned(
    trace, masters, sample_period, times, workers, priorities
):
    result = run_intervals(trace, sample_period)
    assert result.execution_times == times
    assert result.final_worker_count == workers
    assert dict(sorted(masters[-1].priorities.items())) == priorities


def test_fixed_pool_batch_as_pinned(trace, masters):
    result = run_batch(trace)
    assert result.makespan == BATCH_MAKESPAN
    assert result.peak_worker_count == 4
    assert dict(sorted(masters[-1].priorities.items())) == BATCH_PRIORITIES
