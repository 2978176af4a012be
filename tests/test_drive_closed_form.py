"""The latch drive against the closed-form solution of its model.

The quasi-static model solves exactly, with no stepping:

- a constant-load phase (EngagingFlexNut, Traversing, Loosening,
  Retracting) moves the tip at one speed, so it lasts distance / speed;
- in Tightening the load ramps with the tip depth y past the nut face, so
  y' = A - B*y, y(t) = (A/B)(1 - exp(-B*t)), and the current threshold at
  depth y* is crossed at t* = -ln(1 - B*y*/A)/B;
- the current is affine in the load, so the energy V*integral(i dt) is
  closed-form too.

The oracle below reads only the motor's anchor interpolation and the
mechanism constants, never the kernel's motor line. The kernel's duration
T exceeds the oracle's T* by its entry step and by up to one step at each
of the three phase exits, where the tip is clamped: 0 <= T - T* <= 4*dt.
Its energy is a left Riemann sum of the same integral: |E - E*| <= K*dt*E*,
with K = 0.5 per second of dt. An unlatch's closed form starts from the tip
its latch drive ended at.
"""

import math

import pytest

from lammos import defaults
from lammos.latch import (
    LATCH_TIMEOUT,
    Direction,
    DriveCommand,
    LatchFsm,
    LatchState,
    run_until,
)

LATCH_VOLTAGES = (3.0, 3.1, 3.2, 3.3, 3.4)
UNLATCH_VOLTAGES = (4.03, 4.1, 4.5, 5.0, 6.0)
DTS = (1e-2, 1e-3, 1e-4)
K = 0.5  # energy bound, relative error per second of dt


class Motor:
    """The motor's torque-speed and torque-current lines at one voltage."""

    def __init__(self, voltage):
        motor = defaults.MOTOR
        self.stall = motor.stall_torque(voltage)
        self.free = motor.free_speed(voltage) * defaults.SCREW_THREAD_PITCH
        self.i_0 = motor.no_load_current
        self.i_stall = motor.stall_current(voltage)

    def speed(self, load):  # m/s of tip travel
        return self.free * (1.0 - load / self.stall)

    def current(self, load):
        return self.i_0 + (self.i_stall - self.i_0) * load / self.stall


def latch_closed_form(voltage):
    """(T*, E*) of a Housed -> Latched drive, entry step excluded."""
    m = Motor(voltage)
    friction = defaults.FLEXNUT_FRICTION_TORQUE
    span = defaults.CLAMP_TORQUE - friction
    travel = defaults.TIGHTENING_TRAVEL
    tslot = defaults.BRACKET_THICKNESS + defaults.TSLOT_GAP
    # Engaging and Traversing: the rest position to the nut face at friction.
    t_move = (tslot - defaults.HOUSED_REST_POSITION) / m.speed(friction)
    # Tightening: load = friction + span*y/travel.
    a = m.speed(friction)
    b = m.free * span / (travel * m.stall)
    threshold = defaults.TIGHTENING_CURRENT_THRESHOLD * m.i_stall
    y_star = ((threshold - m.i_0) / (m.i_stall - m.i_0) * m.stall
              - friction) / span * travel
    assert 0.0 < y_star < travel and b * y_star < a  # the ramp latches
    t_star = -math.log1p(-b * y_star / a) / b
    integral_y = (a / b) * t_star - y_star / b
    charge_tight = (m.i_0 * t_star + (m.i_stall - m.i_0) / m.stall
                    * (friction * t_star + span / travel * integral_y))
    charge = m.current(friction) * t_move + charge_tight
    return t_move + t_star, voltage * charge


def unlatch_closed_form(voltage, tip):
    """(T*, E*) of a Latched -> Housed drive from tip position ``tip``,
    entry step excluded."""
    m = Motor(voltage)
    breakaway = defaults.BREAKAWAY_FACTOR * defaults.CLAMP_TORQUE
    friction = defaults.FLEXNUT_FRICTION_TORQUE
    tslot = defaults.BRACKET_THICKNESS + defaults.TSLOT_GAP
    t_loose = (tip - tslot) / m.speed(breakaway)
    t_retract = (tslot - defaults.HOUSED_REST_POSITION) / m.speed(friction)
    charge = (m.current(breakaway) * t_loose
              + m.current(friction) * t_retract)
    return t_loose + t_retract, voltage * charge


def drive(fsm, voltage, direction, dt, stop_state):
    final, trace, _ = run_until(fsm, DriveCommand(voltage, direction), dt,
                                stop_state)
    return final, trace.duration, trace.energy_at(voltage)


def check_against(t, e, t_star, e_star, dt):
    assert 0.0 <= t - t_star <= 4 * dt, (t, t_star, dt)
    assert abs(e - e_star) <= K * dt * e_star, (e, e_star, dt)


@pytest.mark.parametrize("dt", DTS)
def test_drives_match_the_closed_form(dt):
    for v_latch in LATCH_VOLTAGES:
        latched, t, e = drive(LatchFsm(), v_latch, Direction.CLOCKWISE, dt,
                              LatchState.LATCHED)
        assert latched.state is LatchState.LATCHED
        check_against(t, e, *latch_closed_form(v_latch), dt)
        for v_unlatch in UNLATCH_VOLTAGES:
            t_star, e_star = unlatch_closed_form(v_unlatch,
                                                 latched.screw_tip_position)
            final, t, e = drive(latched, v_unlatch,
                                Direction.COUNTERCLOCKWISE, dt,
                                LatchState.HOUSED)
            if final.state is LatchState.HOUSED:
                check_against(t, e, t_star, e_star, dt)
            else:
                # Timed out: only a drive that would end within 4*dt of
                # the limit may, and one past the limit must.
                assert t_star > LATCH_TIMEOUT - 4 * dt, (v_latch, v_unlatch)
            if t_star > LATCH_TIMEOUT:
                assert final.state is not LatchState.HOUSED


def test_the_grid_reaches_the_timeout():
    # After a 3.4 V latch at dt 1e-2, a 4.03 V unlatch cannot reach Housed
    # in time.
    latched, _, _ = drive(LatchFsm(), 3.4, Direction.CLOCKWISE, 1e-2,
                          LatchState.LATCHED)
    t_star, _ = unlatch_closed_form(4.03, latched.screw_tip_position)
    assert t_star == pytest.approx(120.34, abs=0.005)
    assert t_star > LATCH_TIMEOUT
