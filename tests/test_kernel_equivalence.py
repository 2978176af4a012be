"""The fused drive kernel against a fold of the per-step reference engine.

The reference below is the original one-step-at-a-time engine: every step
re-derives the operating point from the voltage anchors and rebuilds the
frozen snapshot. ``run_until``, ``run_schedule`` and ``step`` must
reproduce its samples, events and final snapshot bit for bit, and raise
the same exception wherever it raises.
"""

import dataclasses
import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from lammos import defaults
from lammos.latch import (
    Direction,
    DriveCommand,
    LatchEvent,
    LatchState,
    TraceSample,
    run_schedule,
    run_until,
    step,
)
from lammos.mechlib import OperatingPoint, VoltageRangeError

_LATCHING_STATES = frozenset({
    LatchState.HOUSED, LatchState.ENGAGING_FLEXNUT,
    LatchState.TRAVERSING, LatchState.TIGHTENING,
})
_UNLATCHING_STATES = frozenset({LatchState.LOOSENING, LatchState.RETRACTING})


# -- reference engine ---------------------------------------------------------

def ref_operating_point(motor, supply_voltage, load_torque):
    if load_torque < 0:
        raise ValueError("load torque must be non-negative")
    stall = motor.stall_torque(supply_voltage)
    free = motor.free_speed(supply_voltage)
    i_stall = motor.stall_current(supply_voltage)
    frac = load_torque / stall
    speed = max(0.0, free * (1.0 - frac))
    current = min(i_stall,
                  motor.no_load_current + (i_stall - motor.no_load_current) * frac)
    return OperatingPoint(speed=speed, current=current, stalled=load_torque >= stall)


def ref_load_torque(fsm, state):
    friction = fsm.flexnut_friction_torque
    if state in (LatchState.ENGAGING_FLEXNUT, LatchState.TRAVERSING,
                 LatchState.RETRACTING):
        return friction
    if state is LatchState.TIGHTENING:
        depth = fsm.screw_tip_position - fsm.tslot_engagement_position
        ramp = min(1.0, max(0.0, depth / fsm.tightening_travel))
        return friction + (fsm.clamp_torque - friction) * ramp
    if state is LatchState.LOOSENING:
        return fsm.breakaway_factor * fsm.clamp_torque
    return 0.0


def ref_drive_sample(fsm, cmd):
    if cmd.direction is Direction.OFF:
        return None
    if cmd.direction is Direction.CLOCKWISE:
        if fsm.state not in _LATCHING_STATES:
            return None
        state = (LatchState.ENGAGING_FLEXNUT if fsm.state is LatchState.HOUSED
                 else fsm.state)
    else:
        if fsm.state is LatchState.LATCHED:
            state = LatchState.LOOSENING
        elif fsm.state in _UNLATCHING_STATES:
            state = fsm.state
        else:
            return None
    return ref_operating_point(fsm.motor, cmd.voltage, ref_load_torque(fsm, state))


def ref_step(fsm, cmd, dt):
    replace = dataclasses.replace
    if dt <= 0:
        raise ValueError("dt must be positive")
    if cmd.direction is Direction.OFF:
        return fsm, None
    if cmd.direction is Direction.CLOCKWISE:
        if fsm.state is LatchState.LATCHED:
            return fsm, LatchEvent("already-latched")
        if fsm.state in _UNLATCHING_STATES:
            return fsm, None
        if fsm.state is LatchState.HOUSED:
            return (replace(fsm, state=LatchState.ENGAGING_FLEXNUT),
                    LatchEvent("engaging"))
        op = ref_operating_point(fsm.motor, cmd.voltage,
                                 ref_load_torque(fsm, fsm.state))
        if fsm.state is LatchState.TIGHTENING:
            threshold = (fsm.tightening_current_threshold
                         * fsm.motor.stall_current(cmd.voltage))
            if op.current >= threshold:
                return replace(fsm, state=LatchState.LATCHED), LatchEvent("latched")
        pos = fsm.screw_tip_position + op.speed * fsm.screw.thread_pitch * dt
        if fsm.state is LatchState.ENGAGING_FLEXNUT and pos >= 0.0:
            return (replace(fsm, state=LatchState.TRAVERSING,
                            screw_tip_position=0.0),
                    LatchEvent("crossed-bracket-plane"))
        if (fsm.state is LatchState.TRAVERSING
                and pos >= fsm.tslot_engagement_position):
            return (replace(fsm, state=LatchState.TIGHTENING,
                            screw_tip_position=fsm.tslot_engagement_position),
                    LatchEvent("reached-tslot"))
        return replace(fsm, screw_tip_position=pos), None
    if fsm.state is LatchState.LATCHED:
        return replace(fsm, state=LatchState.LOOSENING), LatchEvent("breakaway")
    if fsm.state not in _UNLATCHING_STATES:
        return fsm, None
    op = ref_operating_point(fsm.motor, cmd.voltage,
                             ref_load_torque(fsm, fsm.state))
    pos = fsm.screw_tip_position - op.speed * fsm.screw.thread_pitch * dt
    if (fsm.state is LatchState.LOOSENING
            and pos <= fsm.tslot_engagement_position):
        return (replace(fsm, state=LatchState.RETRACTING,
                        screw_tip_position=fsm.tslot_engagement_position),
                LatchEvent("screw-clear-of-tslot"))
    if fsm.state is LatchState.RETRACTING and pos <= fsm.housed_rest_position:
        return (replace(fsm, state=LatchState.HOUSED,
                        screw_tip_position=fsm.housed_rest_position),
                LatchEvent("housed"))
    return replace(fsm, screw_tip_position=pos), None


def _ref_fold(fsm, cmd, dt, t0, steps, samples, events, stop_state=None):
    """Appends each step's sample and event; after k steps of the whole
    drive (k = len(samples)) the clock reads t0 + k*dt."""
    for _ in range(steps):
        if fsm.state is stop_state:
            break
        op = ref_drive_sample(fsm, cmd)
        current = op.current if op is not None else 0.0
        fsm, event = ref_step(fsm, cmd, dt)
        t = t0 + (len(samples) + 1) * dt
        samples.append(TraceSample(t=t, current=current,
                                   position=fsm.screw_tip_position,
                                   state=fsm.state))
        if event is not None:
            events.append((t, event))
    return fsm


def ref_one_step(fsm, cmd, dt):
    """One step of the reference fold: (new fsm, event or None)."""
    samples, events = [], []
    fsm = _ref_fold(fsm, cmd, dt, 0.0, 1, samples, events)
    return fsm, events[0][1] if events else None


def ref_run_until(fsm, cmd, dt, stop_state, max_duration=120.0, t0=0.0):
    samples, events = [], []
    fsm = _ref_fold(fsm, cmd, dt, t0, int(round(max_duration / dt)),
                    samples, events, stop_state)
    return fsm, SimpleNamespace(samples=tuple(samples)), events


def ref_run_schedule(fsm, schedule, dt, t0=0.0):
    if dt <= 0:
        raise ValueError("dt must be positive")
    samples, events = [], []
    for cmd, duration in schedule:
        if duration <= 0:
            raise ValueError("non-positive segment duration at "
                             f"t={t0 + len(samples) * dt}")
        fsm = _ref_fold(fsm, cmd, dt, t0, int(round(duration / dt)),
                        samples, events)
    return fsm, SimpleNamespace(samples=tuple(samples)), events


# -- comparison ---------------------------------------------------------------

def _bits(x: float) -> str:
    return x.hex() if isinstance(x, float) else repr(x)


def outcome(run):
    """Everything a drive shows, with floats as exact bit patterns."""
    try:
        fsm, trace, events = run()
    except Exception as exc:  # the exception itself is the outcome
        return ("raised", type(exc), str(exc))
    snapshot = tuple((f.name, _bits(getattr(fsm, f.name)))
                     for f in dataclasses.fields(fsm))
    samples = [(_bits(s.t), _bits(s.current), _bits(s.position), s.state)
               for s in trace.samples]
    return ("ok", snapshot, samples,
            [(_bits(t), type(e), e.name) for t, e in events])


# -- strategies ---------------------------------------------------------------

FSM = defaults.default_latch_fsm()
TSLOT = FSM.tslot_engagement_position

# The motor is characterized over [3, 6] V; draws reach just outside it.
voltages = st.one_of(st.sampled_from([3.0, 6.0, 2.999, 6.001]),
                     st.floats(min_value=2.9, max_value=6.1))
dts = st.floats(min_value=1e-4, max_value=5e-3)
commands = st.builds(DriveCommand, voltages, st.sampled_from(list(Direction)))


@st.composite
def start_states(draw):
    kind = draw(st.sampled_from(["housed", "traversing", "latched",
                                 "loosening"]))
    if kind == "housed":
        return FSM
    if kind == "traversing":
        state = LatchState.TRAVERSING
        pos = draw(st.floats(min_value=0.0, max_value=TSLOT, exclude_max=True))
    else:
        state = (LatchState.LATCHED if kind == "latched"
                 else LatchState.LOOSENING)
        pos = draw(st.floats(min_value=TSLOT,
                             max_value=TSLOT + FSM.tightening_travel))
    return dataclasses.replace(FSM, state=state, screw_tip_position=pos)


CW3 = DriveCommand(3.0, Direction.CLOCKWISE)
CCW6 = DriveCommand(6.0, Direction.COUNTERCLOCKWISE)
LATCHED = dataclasses.replace(FSM, state=LatchState.LATCHED,
                              screw_tip_position=TSLOT + 0.001)


class TestRunUntil:
    @given(fsm=start_states(), cmd=commands, dt=dts,
           stop=st.sampled_from(list(LatchState)),
           steps=st.integers(min_value=-2, max_value=2000),
           t0=st.sampled_from([0.0, 17.5]))
    @example(fsm=FSM, cmd=CW3, dt=5e-3, stop=LatchState.LATCHED, steps=5000,
             t0=0.0)
    @example(fsm=LATCHED, cmd=CCW6, dt=5e-3, stop=LatchState.HOUSED,
             steps=5000, t0=0.0)
    @example(fsm=FSM, cmd=DriveCommand(7.0, Direction.CLOCKWISE), dt=1e-3,
             stop=LatchState.LATCHED, steps=10, t0=0.0)
    @example(fsm=LATCHED, cmd=DriveCommand(2.0, Direction.CLOCKWISE),
             dt=1e-3, stop=LatchState.HOUSED, steps=10, t0=0.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_fold(self, fsm, cmd, dt, stop, steps, t0):
        duration = steps * dt
        assert (outcome(lambda: run_until(fsm, cmd, dt, stop, duration, t0))
                == outcome(lambda: ref_run_until(fsm, cmd, dt, stop,
                                                 duration, t0)))


@st.composite
def schedules(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    return [(draw(commands),
             draw(st.one_of(st.floats(min_value=1e-4, max_value=2.0),
                            st.sampled_from([0.0, -1.0]))))
            for _ in range(n)]


class TestRunSchedule:
    @given(fsm=start_states(), schedule=schedules(), dt=dts)
    @example(fsm=FSM, schedule=[(CW3, 22.0), (CCW6, 15.0)], dt=5e-3)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_fold(self, fsm, schedule, dt):
        assert (outcome(lambda: run_schedule(fsm, schedule, dt))
                == outcome(lambda: ref_run_schedule(fsm, schedule, dt)))


class TestStep:
    @given(fsm=start_states(), cmd=commands, dt=dts)
    @settings(max_examples=100, deadline=None)
    def test_one_step_matches_reference(self, fsm, cmd, dt):
        def wrap(step_fn):
            def run():
                new, event = step_fn(fsm, cmd, dt)
                return new, SimpleNamespace(samples=()), (
                    [(0.0, event)] if event is not None else [])
            return run
        assert outcome(wrap(step)) == outcome(wrap(ref_one_step))

    def test_idle_step_returns_the_same_snapshot(self):
        assert step(FSM, DriveCommand(0.0, Direction.OFF), 1e-3)[0] is FSM

    def test_entry_transitions_check_the_voltage(self):
        # The entry step draws current, so it checks the voltage as
        # run_until does.
        for fsm, cmd in ((FSM, DriveCommand(7.0, Direction.CLOCKWISE)),
                         (LATCHED, DriveCommand(9.0,
                                                Direction.COUNTERCLOCKWISE))):
            with pytest.raises(VoltageRangeError):
                step(fsm, cmd, 1e-3)


def test_no_voltage_check_where_no_current_is_drawn():
    # Out-of-range voltages are harmless while the drive draws nothing.
    for fsm, cmd in ((FSM, DriveCommand(math.inf, Direction.OFF)),
                     (FSM, DriveCommand(9.0, Direction.COUNTERCLOCKWISE)),
                     (LATCHED, DriveCommand(9.0, Direction.CLOCKWISE))):
        final, trace, _ = run_until(fsm, cmd, 1e-3, LatchState.TIGHTENING,
                                    0.01)
        assert final is fsm
        assert all(s.current == 0.0 for s in trace.samples)
