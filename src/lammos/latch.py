"""Motorized-screw latch state machine and trace simulation.

The latch cycle is a fixed seven-state loop: clockwise drive moves
Housed -> EngagingFlexNut -> Traversing -> Tightening -> Latched, and
counterclockwise drive moves Latched -> Loosening -> Retracting -> Housed.
Screw tip position is measured from the bracket's top plane (negative =
housed above the bracket). Dynamics are quasi-static: each fixed step the
motor sits on its torque-speed line for the load of the current state.
Every latch is the one mechanism in ``defaults``, read when a drive runs.
"""

from __future__ import annotations

import enum
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from operator import add, ge, le, mul, neg, sub
from typing import Callable, Iterable, Optional

from . import defaults
from .mechlib import (
    line_point,
    motor_line,
    motor_operating_point,  # noqa: F401  (perfbench/tracer.py wraps it here)
    screw_back_drive_torque,
)

MIN_DT = 1e-5          # s; bounds a LATCH_TIMEOUT drive to 1.2e7 steps
MAX_DT = 0.01          # s; a document's coarsest: latch energy within 0.05%
LATCH_TIMEOUT = 120.0  # s of simulated drive per latch action
TRACE_CSV_HEADER = "t_s,current_A,position_m,state"  # CurrentTrace.write_csv


def check_dt(dt: float, most: float = math.inf) -> None:
    """The timestep rule of every drive: finite and at least MIN_DT; a
    document's is also at most ``most`` (MAX_DT)."""
    if not (MIN_DT <= dt < math.inf):
        raise ValueError(f"timestep out of range: dt {dt} s must be finite "
                         f"and at least {MIN_DT} s")
    if dt > most:
        raise ValueError(f"timestep out of range: dt {dt} s must be at most "
                         f"{most} s")


class LatchStateError(RuntimeError):
    """Operation called in a state where it is undefined."""


class LatchState(enum.Enum):
    HOUSED = "Housed"
    ENGAGING_FLEXNUT = "EngagingFlexNut"
    TRAVERSING = "Traversing"
    TIGHTENING = "Tightening"
    LATCHED = "Latched"
    LOOSENING = "Loosening"
    RETRACTING = "Retracting"


# Legal directed edges of the latch cycle (self-loops are always legal).
LEGAL_EDGES = frozenset({
    (LatchState.HOUSED, LatchState.ENGAGING_FLEXNUT),
    (LatchState.ENGAGING_FLEXNUT, LatchState.TRAVERSING),
    (LatchState.TRAVERSING, LatchState.TIGHTENING),
    (LatchState.TIGHTENING, LatchState.LATCHED),
    (LatchState.LATCHED, LatchState.LOOSENING),
    (LatchState.LOOSENING, LatchState.RETRACTING),
    (LatchState.RETRACTING, LatchState.HOUSED),
})


# The states a clockwise drive acts in; a counterclockwise drive acts in the
# others, and both act in Latched.
_CLOCKWISE_STATES = frozenset({LatchState.HOUSED, LatchState.ENGAGING_FLEXNUT,
                               LatchState.TRAVERSING, LatchState.TIGHTENING})


class Direction(enum.Enum):
    CLOCKWISE = "clockwise"
    COUNTERCLOCKWISE = "counterclockwise"
    OFF = "off"


@dataclass(frozen=True)
class DriveCommand:
    voltage: float
    direction: Direction = Direction.OFF


DRIVE_OFF = DriveCommand(voltage=0.0, direction=Direction.OFF)


@dataclass(frozen=True)
class LatchEvent:
    name: str


@dataclass(frozen=True)
class LatchFsm:
    """Immutable latch snapshot: its state and screw tip position (m,
    relative to the bracket top plane). ``LatchFsm()`` is the housed latch."""

    state: LatchState = LatchState.HOUSED
    screw_tip_position: float = field(
        default_factory=lambda: defaults.HOUSED_REST_POSITION)

    def __post_init__(self):
        if self.state is LatchState.HOUSED and self.screw_tip_position >= 0:
            raise ValueError("Housed requires the tip above the bracket plane")
        if (self.state is LatchState.LATCHED
                and self.screw_tip_position < self.tslot_engagement_position):
            raise ValueError("Latched requires the tip at the T-slot nut")

    @property
    def tslot_engagement_position(self) -> float:
        return defaults.BRACKET_THICKNESS + defaults.TSLOT_GAP


def step(fsm: LatchFsm, cmd: DriveCommand, dt: float):
    """Advance one fixed timestep. Returns (new fsm, event or None).

    At most one state transition fires per step; entry transitions
    (Housed->Engaging, Latched->Loosening) consume the step without motion,
    and positional transitions clamp the tip at the crossed boundary. The
    step is one step of ``run_until``: wherever it draws current it checks
    the voltage, raising VoltageRangeError outside the characterized range.
    """
    check_dt(dt)
    final, _, events = _drive(fsm, ((cmd, 1),), dt, 0.0)
    return final, events[0][1] if events else None


def _drive(fsm: LatchFsm, segments, dt: float, t0: float,
           stop_state: Optional[LatchState] = None):
    """The fixed-step kernel behind every drive entry point.

    Replays (command, step count) segments, stopping on entry to
    ``stop_state``; a count of None is a non-positive schedule duration,
    rejected when reached. Each step samples the current drawn in the
    pre-step state, then fires at most one transition; after k steps the
    clock reads t0 + k*dt. A segment resolves the motor line on its first
    step that draws current, entry transitions included, so an
    out-of-range voltage raises only there. Steps whose outcome is known
    in advance run at C level, bit for bit as one step at a time: a
    constant-load state advances as one run of the loop's own additions up
    to its exit step, and a step that draws nothing is repeated to the
    segment's end. Returns (final fsm, trace, timed events).
    """
    motor = defaults.MOTOR
    pitch = defaults.SCREW.thread_pitch
    friction = defaults.FLEXNUT_FRICTION_TORQUE
    tslot = fsm.tslot_engagement_position
    breakaway = _loosening_load()
    # States the tip moves through at a constant load: the load, and the
    # boundary where the tip is clamped as the exit transition fires.
    moves = {
        LatchState.ENGAGING_FLEXNUT: (friction, 0.0, LatchState.TRAVERSING,
                                      "crossed-bracket-plane"),
        LatchState.TRAVERSING: (friction, tslot, LatchState.TIGHTENING,
                                "reached-tslot"),
        LatchState.LOOSENING: (breakaway, tslot, LatchState.RETRACTING,
                               "screw-clear-of-tslot"),
        # The spring re-seats the motor against the bracket base.
        LatchState.RETRACTING: (friction, defaults.HOUSED_REST_POSITION,
                                LatchState.HOUSED, "housed"),
    }
    state, pos = fsm.state, fsm.screw_tip_position
    currents, positions, states = array("d"), array("d"), []
    events: list[tuple[float, LatchEvent]] = []
    line = voltage = None

    def point(load):  # checks as motor_operating_point: load, then voltage
        nonlocal line
        if load < 0:
            raise ValueError("load torque must be non-negative")
        if line is None:
            line = motor_line(motor, voltage)
        return line_point(motor, line, load)

    for cmd, n in segments:
        if n is None:
            raise ValueError("non-positive segment duration at "
                             f"t={t0 + len(states) * dt}")
        direction, voltage, line = cmd.direction, cmd.voltage, None
        clockwise = direction is Direction.CLOCKWISE
        end = len(states) + n
        while len(states) < end and state is not stop_state:
            left, event = end - len(states), None
            if direction is Direction.OFF or (
                    state is not LatchState.LATCHED
                    and clockwise != (state in _CLOCKWISE_STATES)):
                # No current, no motion, no event (the screw holds by
                # flexnut friction): the step repeats to the segment's end.
                currents.extend(repeat(0.0, left))
                positions.extend(repeat(pos, left))
                states.extend(repeat(state, left))
            elif state is LatchState.TIGHTENING:
                line = line or motor_line(motor, voltage)
                k, pos, tight = _tighten(line, pos, tslot, left, dt,
                                         currents, positions)
                states.extend(repeat(state, k))
                if tight:
                    # LatchFsm's invariant, checked where a per-step
                    # snapshot would have checked it.
                    if pos < tslot:
                        raise ValueError("Latched requires the tip "
                                         "at the T-slot nut")
                    states[-1] = state = LatchState.LATCHED
                    event = "latched"
            elif state in moves:
                # A run of the loop's own additions up to the exit step as
                # the gap estimates it (a short run is extended on the next
                # pass); the exit is the first sample at the limit. A
                # stalled tip short of its limit runs to the segment's end;
                # one on or past it exits on its first step.
                load, limit, exit_state, exit_event = moves[state]
                speed, current = point(load)
                advance = speed * pitch * dt
                gap = limit - pos if clockwise else pos - limit
                span = (int(min(gap / advance + 3, left))
                        if gap > 0 and advance > 0 else left if gap > 0 else 1)
                base = len(positions)
                positions.extend(islice(accumulate(
                    repeat(advance, span), add if clockwise else sub,
                    initial=pos), 1, None))
                i = (bisect_left(positions, limit, base) if clockwise
                     else bisect_left(positions, -limit, base, key=neg))
                pos = positions[-1]
                if i < len(positions) and (ge if clockwise else le)(
                        positions[i], limit):
                    del positions[i + 1:]
                    positions[i] = pos = limit
                    event = exit_event
                currents.extend(repeat(current, len(positions) - base))
                states.extend(repeat(state, len(positions) - base))
                if event is not None:
                    states[-1] = state = exit_state
            else:  # an entry transition, or a clockwise step when Latched
                if state is LatchState.HOUSED:
                    _, sample = point(friction)
                    state, event = LatchState.ENGAGING_FLEXNUT, "engaging"
                elif clockwise:
                    sample, event = 0.0, "already-latched"
                else:
                    _, sample = point(breakaway)
                    state, event = LatchState.LOOSENING, "breakaway"
                currents.append(sample)
                positions.append(pos)
                states.append(state)
            if event is not None:
                events.append((t0 + len(states) * dt, LatchEvent(event)))

    if state is not fsm.state or pos is not fsm.screw_tip_position:
        fsm = LatchFsm(state, pos)
    return fsm, CurrentTrace(t0, dt, currents, positions, states), events


@dataclass(frozen=True)
class TraceSample:
    t: float
    current: float
    position: float
    state: LatchState


@dataclass(frozen=True)
class CurrentTrace:
    """A drive's samples as columns: sample k (0-based) ends step k + 1, at
    t0 + (k + 1)*dt, and ``state`` holds LatchState members."""

    t0: float
    dt: float
    current: array
    position: array
    state: list

    def _times(self):
        t0, dt = self.t0, self.dt
        return (t0 + k * dt for k in range(1, len(self.state) + 1))

    @property
    def samples(self) -> tuple[TraceSample, ...]:
        """The samples as frozen TraceSamples, built on each access."""
        return tuple(map(TraceSample, self._times(), self.current,
                         self.position, self.state))

    def write_csv(self, fh, prefix: str = "") -> None:
        """Write one ``TRACE_CSV_HEADER`` row per sample, after ``prefix``,
        to the open text file ``fh``; numbers as ``csv_number`` writes them."""
        fh.writelines("%s%.9g,%.9g,%.9g,%s\n" % (prefix, t, i, x, s.value)
                      for t, i, x, s in zip(self._times(), self.current,
                                            self.position, self.state))

    @property
    def duration(self) -> float:
        return self.t0 + len(self.state) * self.dt

    def energy(self, voltage_for: Callable[[float], float], dt: float) -> float:
        """Integrate V*I*dt over the trace given a t -> V lookup."""
        return integrate_energy(map(voltage_for, self._times()),
                                self.current, dt)


def integrate_energy(volts: Iterable[float], currents: Iterable[float],
                     dt: float) -> float:
    """The sum of V*I*dt over paired voltages and currents, taken in C."""
    return sum(map(mul, map(mul, volts, currents), repeat(dt)))


def run_schedule(fsm: LatchFsm, schedule: Iterable[tuple[DriveCommand, float]],
                 dt: float, t0: float = 0.0):
    """Replay a command schedule. Returns (final fsm, trace, timed events)."""
    check_dt(dt)
    segments = ((cmd, None if duration <= 0 else int(round(duration / dt)))
                for cmd, duration in schedule)
    return _drive(fsm, segments, dt, t0)


def run_until(fsm: LatchFsm, cmd: DriveCommand, dt: float,
              stop_state: LatchState, max_duration: float = LATCH_TIMEOUT,
              t0: float = 0.0):
    """Drive with one command until a state is reached (or time out)."""
    check_dt(dt)
    return _drive(fsm, ((cmd, int(round(max_duration / dt))),), dt, t0,
                  stop_state)


def _tighten(line, pos: float, tslot: float, n: int, dt: float,
             currents, positions):
    """Up to ``n`` clockwise Tightening steps on motor ``line`` from tip
    position ``pos``, appending each step's current and position; the step
    whose current reaches the threshold latches instead of moving. Returns
    (steps taken, final position, whether the last step latched)."""
    stall, free, i_stall = line
    i_0 = defaults.MOTOR.no_load_current
    friction = defaults.FLEXNUT_FRICTION_TORQUE
    clamp_span, slope = defaults.CLAMP_TORQUE - friction, i_stall - i_0
    travel, pitch = defaults.TIGHTENING_TRAVEL, defaults.SCREW.thread_pitch
    latch_current = defaults.TIGHTENING_CURRENT_THRESHOLD * i_stall
    add_current, add_position = currents.append, positions.append
    for k in range(1, n + 1):
        # The motor line (mechlib.line_point) at a load ramping from
        # friction to the clamp torque over the tightening travel; each
        # conditional is the min or max it replaces, NaN and -0.0 included.
        ramp = (pos - tslot) / travel
        ramp = 0.0 if not ramp > 0.0 else ramp if ramp < 1.0 else 1.0
        frac = (friction + clamp_span * ramp) / stall
        current = i_0 + slope * frac
        current = current if current < i_stall else i_stall
        add_current(current)
        if current >= latch_current:
            add_position(pos)
            return k, pos, True
        speed = free * (1.0 - frac)
        pos = pos + (speed if speed > 0.0 else 0.0) * pitch * dt
        add_position(pos)
    return n, pos, False


def _loosening_load() -> float:
    """The load of every Loosening step: the breakaway torque."""
    return defaults.BREAKAWAY_FACTOR * defaults.CLAMP_TORQUE


def can_latch(voltage: float) -> bool:
    """True iff a clockwise drive at ``voltage`` can reach Latched: the
    kernel's Tightening rule at full ramp, where the current peaks.
    Raises VoltageRangeError outside the motor's characterized range."""
    # A tip past the whole travel sits at full ramp.
    return _tighten(motor_line(defaults.MOTOR, voltage), math.inf, 0.0, 1,
                    0.0, [], [])[2]


def can_unlatch(voltage: float) -> bool:
    """True iff a counterclockwise drive at ``voltage`` moves the tip out of
    Latched: the motor turns against the kernel's Loosening load.
    Raises VoltageRangeError outside the motor's characterized range."""
    line = motor_line(defaults.MOTOR, voltage)
    return line_point(defaults.MOTOR, line, _loosening_load())[0] > 0


def holds_housed_without_power(fsm: LatchFsm) -> bool:
    """True iff flexnut friction beats the spring-induced back-drive torque."""
    if fsm.state is not LatchState.HOUSED:
        raise LatchStateError("holds_housed_without_power requires Housed state")
    backdrive = screw_back_drive_torque(defaults.SCREW,
                                        defaults.SPRING.max_load)
    return backdrive < defaults.FLEXNUT_FRICTION_TORQUE


def static_power(fsm: LatchFsm, cmd: Optional[DriveCommand] = None) -> float:
    """Electrical power drawn; exactly zero whenever no drive is active."""
    if cmd is None or cmd.direction is Direction.OFF:
        return 0.0
    # The first step's sample is the current drawn now; dt does not affect it.
    current = _drive(fsm, ((cmd, 1),), 1.0, 0.0)[1].current[0]
    return cmd.voltage * current if current else 0.0
