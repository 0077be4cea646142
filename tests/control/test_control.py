"""Tests for the PID controller, WCET model, and control knobs."""

import pytest
from hypothesis import given, strategies as st

from repro.control import (
    PAPER_GAINS,
    ControlConfig,
    Controller,
    PIDController,
    PIDGains,
    WCETModel,
)
from repro.control.controller import (
    MAX_PRIORITY,
    MIN_PRIORITY,
    SHRINK_PATIENCE,
    THETA3,
    THETA4,
    local_knob,
)
from repro.control.pid import INTEGRAL_LIMIT


class TestPIDGains:
    def test_paper_values(self):
        assert (PAPER_GAINS.kp, PAPER_GAINS.ki, PAPER_GAINS.kd) == (1.2, 0.3, 0.2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PIDGains(kp=-1.0)


class TestPIDController:
    def test_proportional_term(self):
        pid = PIDController(PIDGains(kp=2.0, ki=0.0, kd=0.0))
        assert pid.update(3.0) == pytest.approx(6.0)

    def test_integral_accumulates(self):
        pid = PIDController(PIDGains(kp=0.0, ki=1.0, kd=0.0), sample_time=1.0)
        pid.update(1.0)
        assert pid.update(1.0) == pytest.approx(2.0)

    def test_derivative_reacts_to_change(self):
        pid = PIDController(PIDGains(kp=0.0, ki=0.0, kd=1.0), sample_time=1.0)
        pid.update(1.0)  # no derivative on first sample
        assert pid.update(3.0) == pytest.approx(2.0)

    def test_first_sample_has_no_derivative_kick(self):
        pid = PIDController(PIDGains(kp=0.0, ki=0.0, kd=10.0))
        assert pid.update(100.0) == 0.0

    def test_combined_matches_equation_nine(self):
        pid = PIDController(PAPER_GAINS, sample_time=1.0)
        pid.update(2.0)
        # e=4: P=1.2*4, I=0.3*(2+4), D=0.2*(4-2)
        expected = 1.2 * 4 + 0.3 * 6 + 0.2 * 2
        assert pid.update(4.0) == pytest.approx(expected)

    def test_anti_windup_clamps_integral(self):
        pid = PIDController(PIDGains(kp=0.0, ki=1.0, kd=0.0))
        for _ in range(100):
            pid.update(10.0)
        assert pid.integral == INTEGRAL_LIMIT
        for _ in range(100):
            pid.update(-10.0)
        assert pid.integral == -INTEGRAL_LIMIT

    def test_reset(self):
        pid = PIDController()
        pid.update(5.0)
        pid.reset()
        assert pid.integral == 0.0
        assert pid.last_output == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PIDController(sample_time=0.0)
        pid = PIDController()
        with pytest.raises(ValueError):
            pid.update(1.0, dt=0.0)

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_pure_proportional_is_linear_property(self, error, kp):
        pid = PIDController(PIDGains(kp=kp, ki=0.0, kd=0.0))
        assert pid.update(error) == pytest.approx(kp * error)


class TestWCETModel:
    def test_simplified_eq12(self):
        model = WCETModel(theta2=0.2)
        assert model.job_wcet_simplified(100.0, 0.5, 4) == pytest.approx(10.0)

    def test_wcet_decreases_with_workers_and_priority(self):
        model = WCETModel(theta2=1.0)
        base = model.job_wcet_simplified(100.0, 0.25, 2)
        assert model.job_wcet_simplified(100.0, 0.5, 2) < base
        assert model.job_wcet_simplified(100.0, 0.25, 4) < base

    def test_validation(self):
        model = WCETModel()
        with pytest.raises(ValueError):
            WCETModel(theta2=-1)
        with pytest.raises(ValueError):
            model.job_wcet_simplified(1.0, 0.0, 1)
        with pytest.raises(ValueError):
            model.job_wcet_simplified(1.0, 0.5, 0)


class TestLocalKnob:
    def test_lateness_raises_priority(self):
        assert local_knob(1.0, signal=-5.0, reference=10.0) > 1.0

    def test_slack_lowers_priority(self):
        high = local_knob(1.0, -5.0, 10.0)
        assert local_knob(high, +5.0, 10.0) < high

    def test_theta3_scales_the_priority_step(self):
        # Lateness of a quarter deadline: factor 1 + theta3 * 0.25.
        assert local_knob(1.0, -2.5, 10.0) == 1.0 + THETA3 * 0.25

    def test_bounds_respected(self):
        priority = 1.0
        for _ in range(50):
            priority = local_knob(priority, -100.0, 1.0)
        assert priority == MAX_PRIORITY
        for _ in range(50):
            priority = local_knob(priority, +100.0, 1.0)
        assert priority == MIN_PRIORITY

    def test_reference_validation(self):
        # The knob's reference is the controller's deadline.
        with pytest.raises(ValueError):
            Controller(deadline=0.0)
        with pytest.raises(ValueError):
            ControlConfig(sample_period=0.0)


class TestGlobalKnob:
    def test_grows_under_lateness(self):
        knob = Controller(deadline=10.0)
        target = knob.global_knob(4, {"a": -5.0, "b": -3.0})
        # Lateness 0.8 of a deadline grows the pool by round(theta4 * 0.8).
        assert target == 4 + round(THETA4 * 0.8)

    def test_shrinks_only_after_sustained_comfort(self):
        knob = Controller(deadline=10.0)
        signals = {"a": 8.0, "b": 9.0}
        for _ in range(SHRINK_PATIENCE - 1):
            assert knob.global_knob(4, signals) == 4
        assert knob.global_knob(4, signals) == 3

    def test_lateness_resets_shrink_patience(self):
        knob = Controller(deadline=10.0)
        comfortable = {"a": 9.0}
        for _ in range(SHRINK_PATIENCE - 1):
            assert knob.global_knob(4, comfortable) == 4
        assert knob.global_knob(4, {"a": -5.0}) > 4
        # Streak restarted: one more comfortable sample is not enough.
        assert knob.global_knob(4, comfortable) == 4

    def test_holds_when_mixed(self):
        knob = Controller(deadline=10.0)
        assert knob.global_knob(4, {"a": 1.0, "b": 2.0}) == 4

    def test_never_below_one_on_shrink(self):
        knob = Controller(deadline=10.0)
        assert knob.global_knob(1, {"a": 100.0}) == 1
