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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import defaults
from .mechlib import (
    line_point,
    motor_line,
    motor_operating_point,  # noqa: F401  (perfbench/tracer.py wraps it here)
    screw_back_drive_torque,
)

MIN_DT = 1e-5          # s; bounds a LATCH_TIMEOUT drive to 1.2e7 steps
LATCH_TIMEOUT = 120.0  # s of simulated drive per latch action


def check_dt(dt: float) -> None:
    """The timestep rule of every drive: finite and at least MIN_DT."""
    if not (MIN_DT <= dt < math.inf):
        raise ValueError(f"non-positive timestep: dt {dt} s must be finite "
                         f"and at least {MIN_DT} s")


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
    out-of-range voltage raises only there. Returns (final fsm, trace,
    timed events).
    """
    motor = defaults.MOTOR
    pitch = defaults.SCREW.thread_pitch
    friction = defaults.FLEXNUT_FRICTION_TORQUE
    travel = defaults.TIGHTENING_TRAVEL
    tslot = fsm.tslot_engagement_position
    breakaway = _loosening_load()
    # States the tip moves through at a constant load: the direction that
    # moves it (clockwise?), the load, and the boundary where the tip is
    # clamped as the exit transition fires.
    moves = {
        LatchState.ENGAGING_FLEXNUT: (True, friction, 0.0,
                                      LatchState.TRAVERSING,
                                      "crossed-bracket-plane"),
        LatchState.TRAVERSING: (True, friction, tslot, LatchState.TIGHTENING,
                                "reached-tslot"),
        LatchState.LOOSENING: (False, breakaway, tslot, LatchState.RETRACTING,
                               "screw-clear-of-tslot"),
        # The spring re-seats the motor against the bracket base.
        LatchState.RETRACTING: (False, friction, defaults.HOUSED_REST_POSITION,
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
        # The constant-load state being driven, with its current, advance
        # per step, boundary and exit; resolved once per entry.
        moving = None
        for _ in range(n):
            if state is stop_state:
                break
            event = None
            if state is not moving:
                sample = 0.0
                if direction is Direction.OFF:
                    pass  # the screw holds by flexnut friction
                elif state is LatchState.TIGHTENING:
                    if clockwise:
                        line = line or motor_line(motor, voltage)
                        speed, sample, tight = _tightening(
                            line, min(1.0, max(0.0, (pos - tslot) / travel)))
                        if tight:
                            # LatchFsm's invariant, checked where a per-step
                            # snapshot would have checked it.
                            if pos < tslot:
                                raise ValueError("Latched requires the tip "
                                                 "at the T-slot nut")
                            state, event = LatchState.LATCHED, "latched"
                        else:
                            pos = pos + speed * pitch * dt
                elif state is LatchState.LATCHED:
                    if clockwise:
                        event = "already-latched"
                    else:
                        _, sample = point(breakaway)
                        state, event = LatchState.LOOSENING, "breakaway"
                elif state is LatchState.HOUSED:
                    if clockwise:
                        _, sample = point(friction)
                        state, event = LatchState.ENGAGING_FLEXNUT, "engaging"
                elif moves[state][0] is clockwise:
                    _, load, limit, exit_state, exit_event = moves[state]
                    speed, current = point(load)
                    moving, advance = state, speed * pitch * dt
            if state is moving and event is None:
                sample = current
                if clockwise:
                    pos = pos + advance
                    if pos >= limit:
                        state, pos, event = exit_state, limit, exit_event
                else:
                    pos = pos - advance
                    if pos <= limit:
                        state, pos, event = exit_state, limit, exit_event
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

    def csv_rows(self, prefix: str = "") -> list[str]:
        """One ``t_s,current_A,position_m,state`` row per sample, after
        ``prefix``; numbers as ``csv_number`` writes them."""
        return ["%s%.9g,%.9g,%.9g,%s" % (prefix, t, i, x, s.value)
                for t, i, x, s in zip(self._times(), self.current,
                                      self.position, self.state)]

    def to_csv(self) -> str:
        return "\n".join(["t_s,current_A,position_m,state",
                          *self.csv_rows()]) + "\n"

    @property
    def duration(self) -> float:
        return self.t0 + len(self.state) * self.dt

    def energy(self, voltage_for: Callable[[float], float], dt: float) -> float:
        """Integrate V*I*dt over the trace given a t -> V lookup."""
        return sum(voltage_for(t) * current * dt
                   for t, current in zip(self._times(), self.current))


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


def _tightening(line, ramp: float):
    """A Tightening step on motor ``line`` at ``ramp`` (0 at the nut face,
    1 at full clamp): (speed, current, whether the current latches)."""
    friction = defaults.FLEXNUT_FRICTION_TORQUE
    load = friction + (defaults.CLAMP_TORQUE - friction) * ramp
    speed, current = line_point(defaults.MOTOR, line, load)
    tight = current >= defaults.TIGHTENING_CURRENT_THRESHOLD * line[2]
    return speed, current, tight


def _loosening_load() -> float:
    """The load of every Loosening step: the breakaway torque."""
    return defaults.BREAKAWAY_FACTOR * defaults.CLAMP_TORQUE


def can_latch(voltage: float) -> bool:
    """True iff a clockwise drive at ``voltage`` can reach Latched: the
    kernel's Tightening rule at full ramp, where the current peaks.
    Raises VoltageRangeError outside the motor's characterized range."""
    return _tightening(motor_line(defaults.MOTOR, voltage), 1.0)[2]


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
