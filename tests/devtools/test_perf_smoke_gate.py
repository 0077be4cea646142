"""Unit tests for the schema-3 perf-smoke gate (benchmarks/check_perf_smoke.py).

The gate is CI's last line against perf regressions, so its own logic —
per-cpu-count leg selection, the hard payload ceiling, the
runner-shape guard — gets pinned here
with synthetic bench/baseline documents.
"""

import json

import pytest

from benchmarks.check_perf_smoke import _select_leg, main


def _baseline():
    leg_one = {
        "backends": {
            "processes": {"4": {"throughput_rps": 1000.0}},
        },
        "dispatch_comparison": {
            "per_claim": {"throughput_rps": 100.0},
            "sharded": {"throughput_rps": 1000.0},
        },
        "payload_bytes_ceiling": 2048,
    }
    return {"schema": 3, "scale": 0.01, "legs": {"1": leg_one}}


def _current(**overrides):
    doc = {
        "schema": 3,
        "scale": 0.01,
        "effective_cpu_count": 1,
        "backends": {"processes": {"4": {"throughput_rps": 950.0}}},
        "dispatch_comparison": {
            "per_claim": {"throughput_rps": 95.0},
            "sharded": {"throughput_rps": 950.0},
        },
        "payload_bytes": {"zero_copy_per_task": 900.0},
    }
    doc.update(overrides)
    return doc


def _run(tmp_path, current, baseline):
    current_path = tmp_path / "current.json"
    baseline_path = tmp_path / "baseline.json"
    current_path.write_text(json.dumps(current))
    baseline_path.write_text(json.dumps(baseline))
    return main([str(current_path), str(baseline_path)])


class TestLegSelection:
    def test_exact_match_wins(self):
        legs = {"1": {"a": 1}, "2": {"a": 2}, "4": {"a": 4}}
        assert _select_leg(legs, 2) == ("2", {"a": 2})

    def test_falls_back_to_largest_not_exceeding(self):
        legs = {"1": {"a": 1}, "2": {"a": 2}}
        assert _select_leg(legs, 8) == ("2", {"a": 2})
        assert _select_leg(legs, 3) == ("2", {"a": 2})

    def test_no_leg_small_enough(self):
        assert _select_leg({"4": {}}, 2) is None


class TestGate:
    def test_passes_within_tolerance(self, tmp_path):
        assert _run(tmp_path, _current(), _baseline()) == 0

    def test_throughput_regression_fails(self, tmp_path):
        current = _current(
            backends={"processes": {"4": {"throughput_rps": 400.0}}}
        )
        assert _run(tmp_path, current, _baseline()) == 1

    def test_payload_ceiling_is_hard(self, tmp_path):
        # 2.5x over ceiling but throughput fine: still a failure — the
        # ceiling is not scaled by the regression factor.
        current = _current(payload_bytes={"zero_copy_per_task": 5000.0})
        assert _run(tmp_path, current, _baseline()) == 1

    def test_missing_payload_measurement_fails(self, tmp_path):
        current = _current(payload_bytes={})
        assert _run(tmp_path, current, _baseline()) == 1

    def test_expect_min_cpus_guards_runner_shape(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_EXPECT_MIN_CPUS", "2")
        current = _current(effective_cpu_count=1)
        assert _run(tmp_path, current, _baseline()) == 2

    def test_scale_mismatch_is_config_error(self, tmp_path):
        assert _run(tmp_path, _current(scale=0.1), _baseline()) == 2

    def test_legacy_schema_without_legs_rejected(self, tmp_path):
        baseline = {"schema": 2, "scale": 0.01, "backends": {}}
        assert _run(tmp_path, _current(), baseline) == 2

    def test_no_eligible_leg_rejected(self, tmp_path):
        baseline = {"schema": 3, "scale": 0.01, "legs": {"4": {}}}
        assert _run(tmp_path, _current(effective_cpu_count=1), baseline) == 2
