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
from itertools import accumulate, chain, islice, repeat
from operator import add, ge, le, mul
from typing import Callable, Iterable, NamedTuple, Optional, Union

from . import defaults
from .mechlib import (
    CSV_NUMBER,
    line_point,
    motor_line,
    motor_operating_point,  # noqa: F401  (perfbench/tracer.py wraps it here)
    screw_back_drive_torque,
)

MIN_DT = 1e-5          # s; bounds a LATCH_TIMEOUT drive to 1.2e7 steps
MAX_DT = 0.01          # s; a document's coarsest: latch energy within 0.05%
LATCH_TIMEOUT = 120.0  # s of simulated drive per latch action
TRACE_CSV_HEADER = "t_s,current_A,position_m,state"  # CurrentTrace.write_csv
CSV_BLOCK = 64         # trace CSV rows formatted per write: bounds its memory


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
        if not math.isfinite(self.screw_tip_position):
            raise ValueError("the screw tip position must be finite")
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
    out-of-range voltage raises only there. The drive is recorded as runs
    (see ``Run``), bit for bit the samples of one step at a time: a step
    that draws nothing is held to the segment's end, and a constant-load
    state advances to its exit step as found by ``_fold``, without
    generating its positions. Returns (final fsm, trace, timed events).
    """
    motor = defaults.MOTOR
    pitch = defaults.SCREW_THREAD_PITCH
    friction = defaults.FLEXNUT_FRICTION_TORQUE
    tslot = fsm.tslot_engagement_position
    breakaway = _loosening_load()
    S, cw, ccw = LatchState, Direction.CLOCKWISE, Direction.COUNTERCLOCKWISE
    # The cycle, one row per (state, direction) that acts; a pair it lacks
    # holds. A row is the step's load (None: no current), the boundary where
    # the tip is clamped as the exit transition fires (None: an entry step,
    # which does not move the tip), the next state and the event. The
    # Tightening load ramps from friction at the T-slot nut (``_tighten``).
    cycle = {
        (S.HOUSED, cw): (friction, None, S.ENGAGING_FLEXNUT, "engaging"),
        (S.ENGAGING_FLEXNUT, cw): (friction, 0.0, S.TRAVERSING,
                                   "crossed-bracket-plane"),
        (S.TRAVERSING, cw): (friction, tslot, S.TIGHTENING, "reached-tslot"),
        (S.TIGHTENING, cw): (friction, tslot, S.LATCHED, "latched"),
        (S.LATCHED, cw): (None, None, S.LATCHED, "already-latched"),
        (S.LATCHED, ccw): (breakaway, None, S.LOOSENING, "breakaway"),
        (S.LOOSENING, ccw): (breakaway, tslot, S.RETRACTING,
                             "screw-clear-of-tslot"),
        # The spring re-seats the motor against the bracket base.
        (S.RETRACTING, ccw): (friction, defaults.HOUSED_REST_POSITION,
                              S.HOUSED, "housed"),
    }
    state, pos = fsm.state, fsm.screw_tip_position
    runs: list[Run] = []
    events: list[tuple[float, LatchEvent]] = []
    steps = 0
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
                             f"t={t0 + steps * dt}")
        direction, voltage, line = cmd.direction, cmd.voltage, None
        clockwise = direction is cw
        end = steps + n
        while steps < end and state is not stop_state:
            left, row = end - steps, cycle.get((state, direction))
            if row is None:
                # No current, no motion, no event (the screw holds by
                # flexnut friction): the step repeats to the segment's end.
                run, event = Run(left, state, 0.0, pos, None, pos, state), None
            elif state is S.TIGHTENING:
                line = line or motor_line(motor, voltage)
                k, tip, tight, *columns = _tighten(line, pos, tslot, left, dt)
                # LatchFsm's invariant, checked where a per-step snapshot
                # would have checked it.
                if tight and tip < tslot:
                    raise ValueError("Latched requires the tip at the T-slot "
                                     "nut")
                after, event = row[2:] if tight else (state, None)
                run = Run(k, state, *columns, None, tip, after)
            else:
                load, limit, after, event = row
                if limit is None:  # an entry step
                    sample = 0.0 if load is None else point(load)[1]
                    run = Run(1, after, sample, pos, None, pos, after)
                else:
                    speed, current = point(load)
                    advance = speed * pitch * dt
                    # The loop subtracts counterclockwise; adding the negated
                    # advance is the same IEEE operation, bit for bit.
                    delta = advance if clockwise else -advance
                    k, tip, reached = _fold(pos, delta, limit, left,
                                            clockwise)
                    if reached:
                        tip = limit
                    else:
                        after, event = state, None
                    run = Run(k, state, current, pos, delta, tip, after)
            runs.append(run)
            steps += run.n
            state, pos = run.end_state, run.end
            if event is not None:
                events.append((t0 + steps * dt, LatchEvent(event)))

    if state is not fsm.state or pos is not fsm.screw_tip_position:
        fsm = LatchFsm(state, pos)
    return fsm, CurrentTrace(t0, dt, tuple(runs)), events


def _fold(pos: float, delta: float, limit: float, n: int,
          clockwise: bool) -> tuple[int, float, bool]:
    """Up to ``n`` of the loop's steps ``pos = pos + delta``, stopping at the
    first result at or past ``limit`` (``>=`` clockwise, ``<=`` counter-
    clockwise). Returns (steps taken, last result, whether it reached the
    limit), bit for bit the per-step fold, sign of zero included.

    A binade holds the floats of one sign and exponent, an ulp u apart. A
    step whose exact result stays inside the tip's binade adds a multiple d
    of u that depends on the tip only through its last bit, and only at an
    exact tie, which leaves the tip even. So once two real additions in a
    row add the same d inside one binade, each later step inside it adds d
    too: j steps on, the tip is exactly r + j*d, which moves one way, and
    the exit step is a search over j. Steps that leave a binade or cross
    zero are real additions; one that does not move the tip stalls it.
    """
    reached = ge if clockwise else le
    k, last = 0, None
    while k < n:
        r = pos + delta
        k += 1
        if reached(r, limit):
            return k, r, True
        if r == pos:  # every later step repeats this one
            return n, r, False
        u, d = math.ulp(r), None
        if pos * r > 0 and math.ulp(pos) == u:
            d = r - pos  # exact within a binade
            if d == last:
                big, step = int(abs(r) / u), int(abs(d) / u)  # exact integers
                # Whole steps left inside [2**52 u, 2**53 u), one ulp clear
                # of the edge the tip moves toward.
                room = min((2 ** 53 - 1 - big if (r > 0) == clockwise
                            else big - 2 ** 52 - 1) // step, n - k)
                if room > 0:
                    if reached(r + room * d, limit):
                        j = bisect_left(range(room + 1), True, 1, key=(
                            lambda j: reached(r + j * d, limit)))
                        return k + j, r + j * d, True
                    k += room
                    r = r + room * d
        pos, last = r, d
    return n, pos, False


class Run(NamedTuple):
    """``n`` consecutive samples of a drive in ``state``, the last of them at
    tip position ``end`` in ``end_state`` (an exit transition clamps the tip
    and fires there). A sample's current is ``current``, or an array of each
    sample's; its tip position is ``start`` held (``delta`` None),
    ``start`` plus the loop's own additions of ``delta``, or an array of
    each sample's (Tightening)."""

    n: int
    state: LatchState
    current: Union[float, array]
    start: Union[float, array]
    delta: Optional[float]
    end: float
    end_state: LatchState

    def currents(self) -> Iterable[float]:
        current = self.current
        return current if isinstance(current, array) else repeat(current,
                                                                 self.n)

    def positions(self) -> Iterable[float]:
        n, start, delta = self.n, self.start, self.delta
        if isinstance(start, array):
            return start
        if delta is None:
            return repeat(start, n)
        return chain(islice(accumulate(repeat(delta, n - 1), add,
                                       initial=start), 1, None), (self.end,))

    def states(self) -> Iterable[LatchState]:
        return chain(repeat(self.state, self.n - 1), (self.end_state,))


@dataclass(frozen=True)
class TraceSample:
    t: float
    current: float
    position: float
    state: LatchState


@dataclass(frozen=True)
class CurrentTrace:
    """A drive's samples as its runs (see ``Run``): sample k (0-based) ends
    step k + 1, at t0 + (k + 1)*dt. The columns ``current``, ``position``
    and ``state`` (LatchState members) are built from the runs on access."""

    t0: float
    dt: float
    runs: tuple[Run, ...]

    @property
    def steps(self) -> int:
        return sum(run.n for run in self.runs)

    def _times(self):
        return map(add, repeat(self.t0), map(mul, range(1, self.steps + 1),
                                             repeat(self.dt)))

    def _currents(self):
        return chain.from_iterable(run.currents() for run in self.runs)

    def _positions(self):
        return chain.from_iterable(run.positions() for run in self.runs)

    def _states(self):
        return chain.from_iterable(run.states() for run in self.runs)

    @property
    def current(self) -> array:
        return array("d", self._currents())

    @property
    def position(self) -> array:
        return array("d", self._positions())

    @property
    def state(self) -> list:
        return list(self._states())

    @property
    def samples(self) -> tuple[TraceSample, ...]:
        """The samples as frozen TraceSamples, built on each access."""
        return tuple(map(TraceSample, self._times(), self._currents(),
                         self._positions(), self._states()))

    def write_csv(self, fh, prefix: str = "") -> None:
        """Write one ``TRACE_CSV_HEADER`` row per sample, after ``prefix``,
        to the open text file ``fh``; numbers in ``mechlib.CSV_NUMBER``.

        A run's prefix, state and constant current are formatted once into
        a row template; its rows fill that template ``CSV_BLOCK`` at a time,
        and one last write holds the rest and the row of its end state. The
        bytes are those of formatting each sample alone."""
        write, times = fh.write, self._times()
        prefix, number = prefix.replace("%", "%%"), CSV_NUMBER + ","
        for run in self.runs:
            if isinstance(run.current, array):
                rows = zip(islice(times, run.n), run.current, run.positions())
                row = prefix + number * 3
            else:
                rows = zip(islice(times, run.n), run.positions())
                row = prefix + number + number % run.current + number
            template = row + run.state.value + "\n"
            blocks, rest = divmod(run.n - 1, CSV_BLOCK)
            block = template * CSV_BLOCK
            for _ in range(blocks):
                write(block % tuple(chain.from_iterable(islice(rows,
                                                               CSV_BLOCK))))
            write((template * rest + row + run.end_state.value + "\n")
                  % tuple(chain.from_iterable(rows)))

    @property
    def duration(self) -> float:
        return self.t0 + self.steps * self.dt

    def energy(self, voltage_for: Callable[[float], float], dt: float) -> float:
        """Integrate V*I*dt over the trace given a t -> V lookup. ``dt`` must
        be the trace's own."""
        if dt != self.dt:
            raise ValueError(f"dt {dt} is not the trace's dt {self.dt}")
        return sum(map(mul, map(mul, map(voltage_for, self._times()),
                                self._currents()), repeat(dt)))

    def energy_at(self, voltage: float) -> float:
        """``energy(lambda t: voltage, dt)`` bit for bit, with the trace's
        own dt: the same terms under one ``sum()``, a constant-current
        run's as one repeated term."""
        dt = self.dt
        return sum(chain.from_iterable(
            map(mul, map(mul, repeat(voltage), run.current), repeat(dt))
            if isinstance(run.current, array)
            else repeat(voltage * run.current * dt, run.n)
            for run in self.runs))


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


def _tighten(line, pos: float, tslot: float, n: int, dt: float):
    """Up to ``n`` clockwise Tightening steps on motor ``line`` from tip
    position ``pos``; the step whose current reaches the threshold latches
    instead of moving. Returns (steps taken, final position, whether it
    latched, then the steps' currents and positions as ``array('d')``)."""
    stall, free, i_stall = line
    i_0 = defaults.MOTOR.no_load_current
    friction = defaults.FLEXNUT_FRICTION_TORQUE
    clamp_span, slope = defaults.CLAMP_TORQUE - friction, i_stall - i_0
    travel, pitch = defaults.TIGHTENING_TRAVEL, defaults.SCREW_THREAD_PITCH
    latch_current = defaults.TIGHTENING_CURRENT_THRESHOLD * i_stall
    currents, positions = array("d"), array("d")
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
            return k, pos, True, currents, positions
        speed = free * (1.0 - frac)
        pos = pos + (speed if speed > 0.0 else 0.0) * pitch * dt
        add_position(pos)
    return n, pos, False, currents, positions


def _loosening_load() -> float:
    """The load of every Loosening step: the breakaway torque."""
    return defaults.BREAKAWAY_FACTOR * defaults.CLAMP_TORQUE


def can_latch(voltage: float) -> bool:
    """True iff a clockwise drive at ``voltage`` can reach Latched: the
    kernel's Tightening rule at full ramp, where the current peaks.
    Raises VoltageRangeError outside the motor's characterized range."""
    # A tip past the whole travel sits at full ramp.
    return _tighten(motor_line(defaults.MOTOR, voltage), math.inf, 0.0, 1,
                    0.0)[2]


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
    backdrive = screw_back_drive_torque(
        defaults.SPRING_MAX_LOAD, defaults.SCREW_NOMINAL_DIAMETER,
        defaults.SCREW_THREAD_PITCH, defaults.SCREW_THREAD_FRICTION)
    return backdrive < defaults.FLEXNUT_FRICTION_TORQUE


def static_power(fsm: LatchFsm, cmd: Optional[DriveCommand] = None) -> float:
    """Electrical power drawn; exactly zero whenever no drive is active."""
    if cmd is None or cmd.direction is Direction.OFF:
        return 0.0
    # The first step's sample is the current drawn now; dt does not affect it.
    current = _drive(fsm, ((cmd, 1),), 1.0, 0.0)[1].current[0]
    return cmd.voltage * current if current else 0.0
