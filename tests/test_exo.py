"""Exoskeleton joint-lock tests: holding power and energy comparison."""

import dataclasses

import pytest

from lammos import defaults
from lammos.exo import (
    EnergyComparison,
    ExoJoint,
    LoadTimeline,
    UnholdableLoadError,
    auto_lock_decision,
    energy_comparison,
    hold_power,
    latch_energy,
    lock_structural_check,
)
from lammos.latch import LatchState

DT = 0.005


def unlocked_joint(load=0.0, voltage=3.0, standby=0.1):
    return ExoJoint(motor=defaults.default_motor(),
                    lock=defaults.default_latch_fsm(),
                    supply_voltage=voltage, standby_power=standby,
                    load_torque=load)


def locked_joint(load=0.0, **kwargs):
    joint = unlocked_joint(load, **kwargs)
    lock = dataclasses.replace(
        joint.lock, state=LatchState.LATCHED,
        screw_tip_position=joint.lock.tslot_engagement_position)
    return dataclasses.replace(joint, lock=lock)


class TestHoldPower:
    def test_locked_draws_standby(self):
        assert hold_power(locked_joint(load=0.2)) == 0.1

    def test_locked_constant_in_load(self):
        stall = defaults.default_motor().stall_torque(3.0)
        powers = {hold_power(locked_joint(load=f * stall))
                  for f in (0.0, 0.25, 0.5, 0.9)}
        assert powers == {0.1}

    def test_unlocked_no_load(self):
        joint = unlocked_joint(0.0)
        assert hold_power(joint) == pytest.approx(
            3.0 * joint.motor.no_load_current, rel=1e-12)

    def test_unlocked_half_stall_oracle(self):
        motor = defaults.default_motor()
        stall = motor.stall_torque(3.0)
        joint = unlocked_joint(stall / 2)
        expected = 3.0 * (motor.no_load_current
                          + 0.5 * (motor.stall_current(3.0)
                                   - motor.no_load_current))
        assert hold_power(joint) == pytest.approx(expected, rel=1e-12)

    def test_unholdable_load(self):
        stall = defaults.default_motor().stall_torque(3.0)
        with pytest.raises(UnholdableLoadError):
            hold_power(unlocked_joint(stall * 1.01))


class TestEnergyComparison:
    def test_zero_duration_timeline(self):
        timeline = LoadTimeline(points=((0.0, 0.1),), end_time=0.0)
        result = energy_comparison(unlocked_joint(), timeline, lock_at=None)
        assert result.held_energy == 0.0
        assert result.locked_energy == 0.0
        assert result.savings == 0.0

    def test_half_stall_600s_closed_form(self):
        motor = defaults.default_motor()
        stall = motor.stall_torque(3.0)
        joint = unlocked_joint()
        timeline = LoadTimeline(points=((0.0, stall / 2),), end_time=600.0)
        result = energy_comparison(joint, timeline, lock_at=0.0, dt=DT)
        p_unlocked = hold_power(dataclasses.replace(joint,
                                                    load_torque=stall / 2))
        expected = 600.0 * (p_unlocked - joint.standby_power) - result.latch_energy
        assert result.savings == pytest.approx(expected, rel=1e-9)

    def test_lock_at_end_costs_exactly_latch_energy(self):
        stall = defaults.default_motor().stall_torque(3.0)
        timeline = LoadTimeline(points=((0.0, stall / 2),), end_time=600.0)
        result = energy_comparison(unlocked_joint(), timeline, lock_at=600.0,
                                   dt=DT)
        assert result.savings == -result.latch_energy

    def test_standby_equal_to_hold_never_pays(self):
        joint = unlocked_joint()
        p_no_load = hold_power(joint)
        joint = dataclasses.replace(joint, standby_power=p_no_load)
        timeline = LoadTimeline(points=((0.0, 0.0),), end_time=100.0)
        result = energy_comparison(joint, timeline, lock_at=0.0, dt=DT)
        assert result.savings == pytest.approx(-result.latch_energy, rel=1e-12)

    def test_savings_grow_with_duration(self):
        stall = defaults.default_motor().stall_torque(3.0)
        joint = unlocked_joint()
        savings = []
        for duration in (100.0, 300.0, 600.0):
            timeline = LoadTimeline(points=((0.0, stall / 2),),
                                    end_time=duration)
            savings.append(energy_comparison(joint, timeline, lock_at=0.0,
                                             dt=DT).savings)
        assert savings[0] < savings[1] < savings[2]

    def test_piecewise_loads_integrate_exactly(self):
        motor = defaults.default_motor()
        stall = motor.stall_torque(3.0)
        joint = unlocked_joint()
        timeline = LoadTimeline(points=((0.0, 0.0), (100.0, stall / 2)),
                                end_time=300.0)
        result = energy_comparison(joint, timeline, lock_at=None)
        p0 = hold_power(joint)
        p1 = hold_power(dataclasses.replace(joint, load_torque=stall / 2))
        assert result.held_energy == pytest.approx(100 * p0 + 200 * p1,
                                                   rel=1e-12)
        assert result.savings == 0.0

    def test_unholdable_load_names_timestamp(self):
        stall = defaults.default_motor().stall_torque(3.0)
        timeline = LoadTimeline(points=((0.0, 0.0), (50.0, 2 * stall)),
                                end_time=100.0)
        with pytest.raises(UnholdableLoadError, match="t=50"):
            energy_comparison(unlocked_joint(), timeline, lock_at=None)

    def test_latch_energy_positive(self):
        assert latch_energy(unlocked_joint(), dt=DT) > 0.0


class TestAutoLock:
    def test_below_threshold(self):
        assert not auto_lock_decision(unlocked_joint(), 0.5, 1.0)

    def test_at_threshold_unlocked(self):
        assert auto_lock_decision(unlocked_joint(), 1.0, 1.0)

    def test_already_locked_idempotent(self):
        assert not auto_lock_decision(locked_joint(), 5.0, 1.0)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            auto_lock_decision(unlocked_joint(), 1.0, 0.0)


class TestStructuralGate:
    def test_moderate_load_passes_plate_check(self):
        result = lock_structural_check(load_torque=100.0, lever_arm=0.116)
        assert result.safety_factor > 1.0

    def test_excessive_load_reported_below_one(self):
        result = lock_structural_check(load_torque=1500.0, lever_arm=0.116)
        assert result.safety_factor < 1.0
        assert result.failed


class TestTimeline:
    def test_csv_round_trip(self):
        timeline = LoadTimeline(points=((0.0, 0.1), (10.0, 0.2)),
                                end_time=30.0)
        assert list(timeline.segments()) == [(0.0, 10.0, 0.1),
                                             (10.0, 30.0, 0.2)]

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            LoadTimeline(points=((0.0, 0.1), (0.0, 0.2)), end_time=10.0)

    def test_rejects_negative_load(self):
        with pytest.raises(ValueError):
            LoadTimeline(points=((0.0, -0.1),), end_time=10.0)
