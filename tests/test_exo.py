"""Exoskeleton joint-lock tests: holding power and energy comparison."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from lammos import defaults
from lammos.exo import (
    EnergyComparison,
    ExoJoint,
    LoadTimeline,
    UnholdableLoadError,
    comparison_report,
    energy_comparison,
    hold_power,
    latch_energy,
)
from lammos.latch import (Direction, DriveCommand, LatchFsm, LatchState,
                          run_until)

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


class TestJoint:
    @pytest.mark.parametrize("standby", [-0.1, float("inf"), float("nan")])
    def test_standby_power_must_be_finite_and_non_negative(self, standby):
        with pytest.raises(ValueError, match="standby power"):
            unlocked_joint(standby=standby)


class TestHoldPower:
    def test_locked_draws_standby(self):
        assert hold_power(locked_joint(load=0.2)) == 0.1

    def test_locked_constant_in_load(self):
        stall = defaults.default_motor().stall_torque(3.0)
        powers = {hold_power(locked_joint(load=f * stall))
                  for f in (0.0, 0.25, 0.5, 0.9)}
        assert powers == {0.1}

    def test_locked_above_stall_draws_standby(self):
        stall = defaults.default_motor().stall_torque(3.0)
        assert hold_power(locked_joint(load=1.5 * stall)) == 0.1

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

    def test_load_of_exactly_stall_is_unholdable(self):
        stall = defaults.default_motor().stall_torque(3.0)
        with pytest.raises(UnholdableLoadError):
            hold_power(unlocked_joint(stall))


class TestEnergyComparison:
    def test_a_latched_lock_is_compared_from_housed(self):
        # The comparison starts the lock housed, whatever its given state.
        timeline = LoadTimeline(points=((0.0, 0.2), (30.0, 0.1)),
                                end_time=60.0)
        housed, latched = (energy_comparison(joint, timeline, 6.0, dt=DT)
                           for joint in (unlocked_joint(), locked_joint()))
        assert ([float.hex(x) for x in dataclasses.astuple(latched)]
                == [float.hex(x) for x in dataclasses.astuple(housed)])

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

    @given(voltage=st.floats(3.0, 6.0), standby=st.floats(0.0, 1.0),
           gaps=st.lists(st.floats(0.001, 100.0), min_size=2, max_size=6),
           fractions=st.lists(st.floats(0.0, 0.95), min_size=6, max_size=6))
    def test_never_locking_holds_throughout(self, voltage, standby, gaps,
                                            fractions):
        # Never locking integrates exactly as locking at the end would.
        joint = unlocked_joint(voltage=voltage, standby=standby)
        stall = joint.motor.stall_torque(voltage)
        times = [0.0]
        for gap in gaps:
            times.append(times[-1] + gap)
        timeline = LoadTimeline(points=tuple(
            (t, f * stall) for t, f in zip(times[:-1], fractions)),
            end_time=times[-1])
        result = energy_comparison(joint, timeline, lock_at=None)
        assert result.locked_energy == result.held_energy
        assert result.savings == 0.0
        assert result.latch_energy == 0.0

    def test_unholdable_load_names_timestamp(self):
        stall = defaults.default_motor().stall_torque(3.0)
        timeline = LoadTimeline(points=((0.0, 0.0), (50.0, 2 * stall)),
                                end_time=100.0)
        with pytest.raises(UnholdableLoadError, match="t=50"):
            energy_comparison(unlocked_joint(), timeline, lock_at=None)

    def test_a_study_that_never_locks_does_not_pay_off(self):
        joint = unlocked_joint(load=0.1)
        timeline = LoadTimeline(points=((0.0, 0.1),), end_time=60.0)
        result = energy_comparison(joint, timeline, lock_at=None)
        assert result.savings == 0.0
        report = comparison_report("never", joint, timeline, None, result)
        assert report.endswith("\nlocking does not pay off\n")

    def test_latch_energy_positive(self):
        assert latch_energy(unlocked_joint(), dt=DT) > 0.0

    @pytest.mark.parametrize("dt", [DT, 1e-3])
    def test_latch_energy_is_the_trace_energy_bit_for_bit(self, dt):
        _, trace, _ = run_until(LatchFsm(), DriveCommand(3.0,
                                                         Direction.CLOCKWISE),
                                dt, LatchState.LATCHED)
        # Both equal the per-sample sum of V*I*dt, in that order.
        reference = sum(3.0 * current * dt for current in trace.current)
        assert (latch_energy(unlocked_joint(), dt).hex()
                == trace.energy(lambda t: 3.0, dt).hex() == reference.hex())


class TestTimeline:
    def test_segments_cover_the_timeline(self):
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

    @pytest.mark.parametrize("points, end_time", [
        (((0.5, 0.1),), 10.0),
        (((0.0, 0.1), (5.0, 0.2)), 4.0),
    ], ids=["starts_late", "ends_before_last_point"])
    def test_each_end_of_the_span_is_checked(self, points, end_time):
        with pytest.raises(ValueError, match="start at t=0"):
            LoadTimeline(points=points, end_time=end_time)
