"""Drivetrain and structural model tests, with independent oracles."""

import math

import pytest
from hypothesis import given, strategies as st

from lammos import defaults
from lammos.mechlib import (
    BRACKET_40X40,
    BRACKET_80X80,
    BRACKET_160X80,
    BracketSpec,
    MaterialSpec,
    MotorSpec,
    PlateSpec,
    VoltageRangeError,
    check_bracket_load,
    check_tslot_holding,
    gram_cm_to_newton_m,
    line_point,
    motor_line,
    motor_operating_point,
    plate_bending_safety_factor,
    screw_back_drive_torque,
)

STALL_3V = gram_cm_to_newton_m(2884.0)
STALL_6V = gram_cm_to_newton_m(3444.0)


class TestMotor:
    def test_catalog_stall_torques_reproduced(self, motor):
        assert motor.stall_torque(3.0) == pytest.approx(STALL_3V, rel=1e-12)
        assert motor.stall_torque(6.0) == pytest.approx(STALL_6V, rel=1e-12)

    def test_stall_at_rated_load(self, motor):
        op = motor_operating_point(motor, 3.0, STALL_3V)
        assert op.speed == 0.0
        assert op.stalled

    def test_no_load_case(self, motor):
        op = motor_operating_point(motor, 6.0, 0.0)
        assert op.speed == motor.free_speed(6.0)
        assert op.current == motor.no_load_current
        assert not op.stalled

    def test_midpoint_interpolation_oracle(self, motor):
        # Independent linear interpolation between the two anchors.
        expected = STALL_3V + (STALL_6V - STALL_3V) * (4.5 - 3.0) / (6.0 - 3.0)
        assert motor.stall_torque(4.5) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx((STALL_3V + STALL_6V) / 2, rel=1e-12)

    def test_no_extrapolation(self, motor):
        with pytest.raises(VoltageRangeError):
            motor_operating_point(motor, 2.9, 0.0)
        with pytest.raises(VoltageRangeError):
            motor_operating_point(motor, 6.1, 0.0)

    @given(loads=st.lists(st.floats(min_value=0.0, max_value=STALL_3V),
                          min_size=2, max_size=20),
           voltage=st.floats(min_value=3.0, max_value=6.0))
    def test_speed_and_current_monotone_in_load(self, loads, voltage):
        motor = defaults.default_motor()
        pts = [motor_operating_point(motor, voltage, l)
               for l in sorted(loads)]
        for a, b in zip(pts, pts[1:]):
            assert b.speed <= a.speed
            assert b.current >= a.current

    @given(voltage=st.floats(min_value=3.0, max_value=6.0),
           load=st.floats(min_value=0.0, max_value=2 * STALL_6V))
    def test_resolved_line_gives_the_same_point(self, voltage, load):
        motor = defaults.default_motor()
        op = motor_operating_point(motor, voltage, load)
        line = motor_line(motor, voltage)
        assert line_point(motor, line, load) == (op.speed, op.current)
        assert line == (motor.stall_torque(voltage), motor.free_speed(voltage),
                        motor.stall_current(voltage))

    def test_current_clamped_at_stall(self, motor):
        op = motor_operating_point(motor, 3.0, 2 * STALL_3V)
        assert op.current == motor.stall_current(3.0)
        assert op.stalled

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            MotorSpec(stall_torque_points=((3.0, 0.28),),
                      free_speed_points=((3.0, 0.75), (6.0, 1.6)),
                      stall_current_points=((3.0, 0.7), (6.0, 1.6)),
                      no_load_current=0.04)
        with pytest.raises(ValueError):
            MotorSpec(stall_torque_points=((3.0, 0.28), (6.0, -1.0)),
                      free_speed_points=((3.0, 0.75), (6.0, 1.6)),
                      stall_current_points=((3.0, 0.7), (6.0, 1.6)),
                      no_load_current=0.04)


class TestScrew:
    def test_back_drive_self_locking(self):
        # M8 coarse with mu = 0.2 is self-locking: no back-drive torque.
        assert screw_back_drive_torque(4.506, 0.008, 0.00125, 0.2) == 0.0

    def test_back_drive_free_thread(self):
        assert screw_back_drive_torque(10.0, 0.008, 0.00125, 0.0) > 0.0


def bracket_oracle(bracket, force, lever):
    """Brute-force re-statement of the envelope, strict inequalities."""
    return force < bracket.max_force and force * lever < bracket.max_moment


class TestBrackets:
    def test_catalog_rows(self):
        assert BRACKET_40X40.max_force == 1000 and BRACKET_40X40.max_moment == 50
        assert BRACKET_80X80.max_force == 2000 and BRACKET_80X80.max_moment == 150
        assert BRACKET_160X80.max_force == 2000 and BRACKET_160X80.max_moment == 150

    def test_pass_inside_envelope(self):
        verdict = check_bracket_load(BRACKET_80X80, 1999.0, 0.05)
        assert verdict.passed  # 99.95 N*m < 150 N*m

    def test_moment_governs(self):
        verdict = check_bracket_load(BRACKET_80X80, 1000.0, 0.2)
        assert not verdict.passed
        assert verdict.governing_constraint == "moment-limit"

    def test_zero_force_infinite_margin(self):
        verdict = check_bracket_load(BRACKET_80X80, 0.0, 0.1)
        assert verdict.passed
        assert verdict.margin == math.inf

    def test_strictness_at_limits(self):
        assert not check_bracket_load(BRACKET_80X80, 2000.0, 0.0).passed
        assert not check_bracket_load(BRACKET_80X80, 1500.0, 0.1).passed

    def test_grid_oracle_equivalence(self):
        # Spec grid: force 0..2500 N step 50, lever 0..0.3 m step 5 mm.
        for bracket in (BRACKET_40X40, BRACKET_80X80, BRACKET_160X80):
            for fi in range(51):
                force = 50.0 * fi
                for li in range(61):
                    lever = 0.005 * li
                    verdict = check_bracket_load(bracket, force, lever)
                    assert verdict.passed == bracket_oracle(bracket, force,
                                                            lever)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            BracketSpec("bad", max_force=0.0, max_moment=1.0)


class TestTslot:
    def test_inclusive_limit(self):
        at_limit = check_tslot_holding(5000.0)
        assert at_limit.passed
        assert at_limit.margin == pytest.approx(1.0)
        assert not check_tslot_holding(5001.0).passed
        assert check_tslot_holding(0.0).passed


class TestPlateBending:
    def test_hand_oracle(self):
        # Independent route: sigma = M*c/I with I = w*h^3/12, c = h/2.
        plate, material = PlateSpec(), MaterialSpec()
        moment = 1000.0 * 0.116
        inertia = plate.thickness * plate.height ** 3 / 12
        sigma = moment * (plate.height / 2) / inertia
        result = plate_bending_safety_factor(plate, material, 1000.0, 0.116)
        assert result.bending_stress == pytest.approx(sigma, rel=1e-12)
        assert result.bending_stress == pytest.approx(48.3e6, rel=1e-2)
        assert result.safety_factor == pytest.approx(5.17, abs=0.01)
        assert not result.failed

    def test_linearity_in_load(self):
        plate, material = PlateSpec(), MaterialSpec()
        sf1 = plate_bending_safety_factor(plate, material, 1000.0, 0.116)
        sf2 = plate_bending_safety_factor(plate, material, 2000.0, 0.116)
        assert sf2.safety_factor == sf1.safety_factor / 2

    @given(load=st.floats(min_value=1.0, max_value=5000.0),
           alpha=st.sampled_from([2.0, 4.0, 0.5, 8.0]))
    def test_inverse_proportionality(self, load, alpha):
        plate, material = PlateSpec(), MaterialSpec()
        base = plate_bending_safety_factor(plate, material, load, 0.116)
        scaled = plate_bending_safety_factor(plate, material, alpha * load,
                                             0.116)
        assert scaled.safety_factor * alpha == pytest.approx(
            base.safety_factor, rel=1e-12)

    def test_three_load_ordering(self):
        plate, material = PlateSpec(), MaterialSpec()
        sfs = [plate_bending_safety_factor(plate, material, f, 0.116
                                           ).safety_factor
               for f in (1000.0, 1500.0, 2000.0)]
        assert sfs[0] > sfs[1] > sfs[2]

    def test_zero_load_rejected(self):
        with pytest.raises(ValueError):
            plate_bending_safety_factor(PlateSpec(), MaterialSpec(), 0.0, 0.1)

    def test_underflowing_stress_is_unboundedly_safe(self):
        result = plate_bending_safety_factor(PlateSpec(), MaterialSpec(),
                                             5e-324, 0.116)
        assert result.bending_stress == 0.0
        assert result.safety_factor == math.inf
        assert not result.failed

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            PlateSpec(thickness=-0.009)

    def test_underflowing_section_modulus_rejected(self):
        # Each dimension is positive, but h^2 * w / 6 underflows to zero.
        with pytest.raises(ValueError, match="section modulus"):
            PlateSpec(length=0.1, height=1e-110, thickness=1e-110)
