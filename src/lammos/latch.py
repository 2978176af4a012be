"""Motorized-screw latch state machine and trace simulation.

The latch cycle is a fixed seven-state loop: clockwise drive moves
Housed -> EngagingFlexNut -> Traversing -> Tightening -> Latched, and
counterclockwise drive moves Latched -> Loosening -> Retracting -> Housed.
Screw tip position is measured from the bracket's top plane (negative =
housed above the bracket). Dynamics are quasi-static: each fixed step the
motor sits on its torque-speed line for the load of the current state.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from .mechlib import (
    MotorSpec,
    ScrewSpec,
    SpringSpec,
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
    """Immutable latch snapshot plus its fixed mechanism parameters."""

    motor: MotorSpec
    screw: ScrewSpec
    spring: SpringSpec
    state: LatchState = LatchState.HOUSED
    screw_tip_position: float = -0.003      # m, relative to bracket top plane
    flexnut_friction_torque: float = 0.02   # N*m, non-catalog default
    bracket_thickness: float = 0.009        # m
    tslot_gap: float = 0.003                # m, bracket underside to nut face
    tightening_current_threshold: float = 0.9  # fraction of stall current
    clamp_torque: float = 0.26              # N*m at full engagement
    breakaway_factor: float = 1.15          # unscrew breakaway vs clamp torque
    housed_rest_position: float = -0.003    # m, spring-seated tip position
    tightening_travel: float = 0.00125      # m of torque ramp past the nut face

    def __post_init__(self):
        if self.housed_rest_position >= 0:
            raise ValueError("housed rest position must be above the bracket plane")
        if self.bracket_thickness <= 0 or self.tslot_gap < 0:
            raise ValueError("invalid bracket geometry")
        if not (0 < self.tightening_current_threshold <= 1):
            raise ValueError("tightening threshold must be in (0, 1]")
        if self.clamp_torque <= self.flexnut_friction_torque:
            raise ValueError("clamp torque must exceed flexnut friction")
        travel = (self.bracket_thickness + self.tslot_gap + self.tightening_travel
                  - self.housed_rest_position)
        if travel > self.screw.length:
            raise ValueError("latched travel exceeds screw length")
        if self.state is LatchState.HOUSED and self.screw_tip_position >= 0:
            raise ValueError("Housed requires the tip above the bracket plane")
        if (self.state is LatchState.LATCHED
                and self.screw_tip_position < self.tslot_engagement_position):
            raise ValueError("Latched requires the tip at the T-slot nut")

    @property
    def tslot_engagement_position(self) -> float:
        return self.bracket_thickness + self.tslot_gap


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
    motor = fsm.motor
    pitch = fsm.screw.thread_pitch
    friction = fsm.flexnut_friction_torque
    clamp = fsm.clamp_torque
    travel = fsm.tightening_travel
    tslot = fsm.tslot_engagement_position
    breakaway = fsm.breakaway_factor * clamp
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
        LatchState.RETRACTING: (False, friction, fsm.housed_rest_position,
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
                        depth = pos - tslot
                        ramp = min(1.0, max(0.0, depth / travel))
                        speed, sample = point(
                            friction + (clamp - friction) * ramp)
                        threshold = fsm.tightening_current_threshold * line[2]
                        if sample >= threshold:
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
        fsm = replace(fsm, state=state, screw_tip_position=pos)
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
        return self.t0 + len(self.state) * self.dt if self.state else 0.0

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


def can_latch(fsm: LatchFsm, voltage: float) -> bool:
    """True iff a clockwise drive at ``voltage`` can reach Latched: the
    kernel's Tightening comparison at full ramp, where the current peaks.
    Raises VoltageRangeError outside the motor's characterized range."""
    line = motor_line(fsm.motor, voltage)
    friction = fsm.flexnut_friction_torque
    _, current = line_point(fsm.motor, line,
                            friction + (fsm.clamp_torque - friction) * 1.0)
    return current >= fsm.tightening_current_threshold * line[2]


def holds_housed_without_power(fsm: LatchFsm) -> bool:
    """True iff flexnut friction beats the spring-induced back-drive torque."""
    if fsm.state is not LatchState.HOUSED:
        raise LatchStateError("holds_housed_without_power requires Housed state")
    backdrive = screw_back_drive_torque(fsm.screw, fsm.spring.max_load)
    return backdrive < fsm.flexnut_friction_torque


def static_power(fsm: LatchFsm, cmd: Optional[DriveCommand] = None) -> float:
    """Electrical power drawn; exactly zero whenever no drive is active."""
    if cmd is None or cmd.direction is Direction.OFF:
        return 0.0
    # The first step's sample is the current drawn now; dt does not affect it.
    current = _drive(fsm, ((cmd, 1),), 1.0, 0.0)[1].current[0]
    return cmd.voltage * current if current else 0.0
