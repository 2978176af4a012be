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

from lammos import defaults, latch
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
    friction = defaults.FLEXNUT_FRICTION_TORQUE
    if state in (LatchState.ENGAGING_FLEXNUT, LatchState.TRAVERSING,
                 LatchState.RETRACTING):
        return friction
    if state is LatchState.TIGHTENING:
        depth = fsm.screw_tip_position - fsm.tslot_engagement_position
        ramp = min(1.0, max(0.0, depth / defaults.TIGHTENING_TRAVEL))
        return friction + (defaults.CLAMP_TORQUE - friction) * ramp
    if state is LatchState.LOOSENING:
        return defaults.BREAKAWAY_FACTOR * defaults.CLAMP_TORQUE
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
    return ref_operating_point(defaults.MOTOR, cmd.voltage,
                               ref_load_torque(fsm, state))


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
        op = ref_operating_point(defaults.MOTOR, cmd.voltage,
                                 ref_load_torque(fsm, fsm.state))
        if fsm.state is LatchState.TIGHTENING:
            threshold = (defaults.TIGHTENING_CURRENT_THRESHOLD
                         * defaults.MOTOR.stall_current(cmd.voltage))
            if op.current >= threshold:
                return replace(fsm, state=LatchState.LATCHED), LatchEvent("latched")
        pos = (fsm.screw_tip_position
               + op.speed * defaults.SCREW_THREAD_PITCH * dt)
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
    op = ref_operating_point(defaults.MOTOR, cmd.voltage,
                             ref_load_torque(fsm, fsm.state))
    pos = (fsm.screw_tip_position
           - op.speed * defaults.SCREW_THREAD_PITCH * dt)
    if (fsm.state is LatchState.LOOSENING
            and pos <= fsm.tslot_engagement_position):
        return (replace(fsm, state=LatchState.RETRACTING,
                        screw_tip_position=fsm.tslot_engagement_position),
                LatchEvent("screw-clear-of-tslot"))
    rest = defaults.HOUSED_REST_POSITION
    if fsm.state is LatchState.RETRACTING and pos <= rest:
        return (replace(fsm, state=LatchState.HOUSED, screw_tip_position=rest),
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
                             max_value=TSLOT + defaults.TIGHTENING_TRAVEL))
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


# One valid tip in each state, so that every (state, direction) pair of the
# cycle, holds included, is driven from a start of its own.
_CYCLE_STARTS = {
    LatchState.HOUSED: -3e-3,
    LatchState.ENGAGING_FLEXNUT: -1e-3,
    LatchState.TRAVERSING: 5e-3,
    LatchState.TIGHTENING: TSLOT + 0.5e-3,
    LatchState.LATCHED: TSLOT + 1e-3,
    LatchState.LOOSENING: TSLOT + 1e-3,
    LatchState.RETRACTING: 5e-3,
}


@pytest.mark.parametrize("voltage", [3.0, 6.0])
@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("state", list(LatchState))
def test_every_pair_of_the_cycle_matches_reference(state, direction,
                                                   voltage):
    fsm = dataclasses.replace(FSM, state=state,
                              screw_tip_position=_CYCLE_STARTS[state])
    cmd = DriveCommand(voltage, direction)

    def one_step(step_fn):
        def run():
            new, event = step_fn(fsm, cmd, 1e-3)
            return new, SimpleNamespace(samples=()), (
                [(0.0, event)] if event is not None else [])
        return run
    assert outcome(one_step(step)) == outcome(one_step(ref_one_step))
    for stop in (LatchState.LATCHED, LatchState.HOUSED):
        assert (outcome(lambda: run_until(fsm, cmd, 1e-3, stop, 5.0))
                == outcome(lambda: ref_run_until(fsm, cmd, 1e-3, stop, 5.0)))


# -- runs, holds and Tightening of the kernel ---------------------------------

def ref_drive(fsm, segments, dt, t0=0.0, stop_state=None):
    """The reference fold over (command, step count) segments, stopping on
    entry to ``stop_state``, as ``latch._drive`` replays them."""
    samples, events = [], []
    for cmd, n in segments:
        fsm = _ref_fold(fsm, cmd, dt, t0, n, samples, events, stop_state)
    return fsm, SimpleNamespace(samples=tuple(samples)), events


REST = defaults.HOUSED_REST_POSITION
TIGHT = TSLOT + defaults.TIGHTENING_TRAVEL
# The tip positions each state allows, as closed ranges.
_RANGES = {
    LatchState.HOUSED: (REST - 1e-3, -1e-9),
    LatchState.ENGAGING_FLEXNUT: (REST, 0.0),
    LatchState.TRAVERSING: (0.0, TSLOT),
    LatchState.TIGHTENING: (TSLOT, TIGHT),
    LatchState.LATCHED: (TSLOT, TIGHT),
    LatchState.LOOSENING: (TSLOT, TIGHT),
    LatchState.RETRACTING: (REST, TSLOT),
}


@st.composite
def any_start_states(draw):
    """A snapshot in any of the seven states, often on a boundary."""
    state = draw(st.sampled_from(list(LatchState)))
    lo, hi = _RANGES[state]
    pos = draw(st.sampled_from([lo, hi]) | st.floats(min_value=lo,
                                                       max_value=hi))
    return dataclasses.replace(FSM, state=state, screw_tip_position=pos)


@st.composite
def near_exit_states(draw):
    """A snapshot in any state, within 1.5 mm of the end of its range that
    its drive moves toward."""
    state = draw(st.sampled_from(list(LatchState)))
    lo, hi = _RANGES[state]
    d = draw(st.floats(min_value=0.0, max_value=1.5e-3))
    pos = max(lo, hi - d) if state in _LATCHING_STATES else min(hi, lo + d)
    return dataclasses.replace(FSM, state=state, screw_tip_position=pos)


drive_segments = st.lists(st.tuples(commands,
                                   st.integers(min_value=0, max_value=1500)),
                          max_size=4)


def _transition_steps(fsm, cmd, dt, steps):
    """The steps (1-based) at which the reference changes state."""
    samples = ref_drive(fsm, [(cmd, steps)], dt)[1].samples
    return [k for k, (a, b) in enumerate(
        zip([fsm.state] + [s.state for s in samples],
            [s.state for s in samples]), 1) if a is not b]


OFF = DriveCommand(0.0, Direction.OFF)
CCW32 = DriveCommand(3.2, Direction.COUNTERCLOCKWISE)
AT_TSLOT = dataclasses.replace(FSM, state=LatchState.LATCHED,
                               screw_tip_position=TSLOT)


class TestDrive:
    @given(fsm=any_start_states(), segments=drive_segments, dt=dts,
           stop=st.none() | st.sampled_from(list(LatchState)),
           t0=st.sampled_from([0.0, 17.5]))
    # A stalled Loosening already on its limit exits on its first step.
    @example(fsm=AT_TSLOT, segments=[(OFF, 500), (CCW32, 2)], dt=1e-3,
             stop=LatchState.HOUSED, t0=0.0)
    # Holds: long OFF and wrong-direction segments in each direction.
    @example(fsm=LATCHED, segments=[(OFF, 500), (CW3, 400), (CCW6, 3),
                                    (CW3, 700), (OFF, 2)],
             dt=1e-3, stop=None, t0=17.5)
    @example(fsm=FSM, segments=[(CCW6, 900), (CW3, 5), (OFF, 300),
                                (CCW6, 50)],
             dt=5e-3, stop=LatchState.LATCHED, t0=0.0)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_fold(self, fsm, segments, dt, stop, t0):
        assert (outcome(lambda: latch._drive(fsm, segments, dt, t0, stop))
                == outcome(lambda: ref_drive(fsm, segments, dt, t0, stop)))

    def test_stalled_phase_on_its_limit_exits_at_once(self):
        final, _, events = latch._drive(AT_TSLOT, [(OFF, 500), (CCW32, 2)],
                                        1e-3, 0.0, LatchState.HOUSED)
        assert (final.state, final.screw_tip_position) == (
            LatchState.RETRACTING, TSLOT)
        assert [e.name for _, e in events] == ["breakaway",
                                               "screw-clear-of-tslot"]

    @given(fsm=near_exit_states(), voltage=st.floats(min_value=3.0,
                                                     max_value=6.0),
           then=commands, dt=st.floats(min_value=2e-3, max_value=5e-3))
    @example(fsm=FSM, voltage=3.0, then=CW3, dt=5e-3)
    @example(fsm=LATCHED, voltage=6.0, then=OFF, dt=5e-3)
    @settings(max_examples=25, deadline=None)
    def test_segment_cut_at_each_exit_step(self, fsm, voltage, then, dt):
        # A segment that drives the way the state moves and ends at a
        # transition's step k, one before it or one after it, followed by
        # a second command.
        cmd = DriveCommand(voltage, Direction.CLOCKWISE
                           if fsm.state in _LATCHING_STATES
                           else Direction.COUNTERCLOCKWISE)
        for k in _transition_steps(fsm, cmd, dt, 400)[:4]:
            for n in (k - 1, k, k + 1):
                drive = [(cmd, n), (then, 40)]
                assert (outcome(lambda: latch._drive(fsm, drive, dt, 0.0))
                        == outcome(lambda: ref_drive(fsm, drive, dt)))

    def test_slow_unlatch_times_out_as_the_reference(self):
        # At 3.95 V the latch breaks free but does not reach Housed within
        # LATCH_TIMEOUT.
        cmd = DriveCommand(3.95, Direction.COUNTERCLOCKWISE)
        result = outcome(lambda: run_until(LATCHED, cmd, 5e-3,
                                           LatchState.HOUSED))
        assert result == outcome(lambda: ref_run_until(
            LATCHED, cmd, 5e-3, LatchState.HOUSED))
        assert len(result[2]) == round(latch.LATCH_TIMEOUT / 5e-3)


# -- the closed-form fold of a constant-load phase ----------------------------

def plain_fold(pos, advance, limit, n, clockwise):
    """The loop's own fold, one ``+=`` or ``-=`` at a time, stopping at the
    first result at or past ``limit``."""
    for k in range(1, n + 1):
        if clockwise:
            pos += advance
            if pos >= limit:
                return k, pos, True
        else:
            pos -= advance
            if pos <= limit:
                return k, pos, True
    return n, pos, False


def closed_fold(pos, advance, limit, n, clockwise):
    return latch._fold(pos, advance if clockwise else -advance, limit, n,
                       clockwise)


@st.composite
def free_folds(draw):
    """A start within 1.5 phase lengths of zero either side, so that runs
    cross binades and zero in both directions."""
    advance = draw(st.floats(min_value=1e-12, max_value=1e-3)
                   | st.integers(1, 64).map(lambda k: k * 2.0 ** -30))
    n = draw(st.just(1) | st.integers(min_value=1, max_value=5000))
    span = n * advance
    start = draw(st.sampled_from([0.0, -0.0])
                 | st.floats(min_value=-1.5, max_value=1.5).map(
                     lambda f: f * span))
    return start, advance, n


@st.composite
def tie_folds(draw):
    """A start on the grid of a binade (often near its edges) and an advance
    that is an odd number of half ulps there: every step is an exact tie."""
    exponent = draw(st.integers(min_value=-40, max_value=10))
    u = math.ldexp(1.0, exponent - 52)
    m = draw(st.integers(0, 5000) | st.integers(2 ** 52 - 5000, 2 ** 52 - 1)
             | st.integers(0, 2 ** 52 - 1))
    start = draw(st.sampled_from([1.0, -1.0])) * (math.ldexp(1.0, exponent)
                                                   + m * u)
    advance = (draw(st.integers(0, 1000)) + 0.5) * u
    n = draw(st.just(1) | st.integers(min_value=1, max_value=5000))
    return start, advance, n


@st.composite
def stalled_folds(draw):
    """An advance under half an ulp of the start, or exactly zero."""
    start = draw(st.sampled_from([0.0, -0.0])
                 | st.floats(min_value=-1e6, max_value=1e6))
    frac = draw(st.sampled_from([0.0]) | st.floats(min_value=0.0,
                                                    max_value=0.5,
                                                    exclude_max=True))
    n = draw(st.just(1) | st.integers(min_value=1, max_value=5000))
    return start, frac * math.ulp(start), n


@st.composite
def folds(draw):
    start, advance, n = draw(free_folds() | tie_folds() | stalled_folds())
    clockwise = draw(st.booleans())
    # A limit behind the start (already reached), about ``steps`` advances
    # ahead of it, or past the run's end.
    steps = draw(st.sampled_from([-2, 0, None]) | st.integers(1, n))
    ahead = ((n + 1) * advance + 1.0 if steps is None
             else (steps + 0.5) * advance)
    limit = start + (ahead if clockwise else -ahead)
    return start, advance, limit, n, clockwise


class TestFold:
    @given(case=folds())
    # Exact zeros: the loop's zero is +0.0 either way, and a stalled -0.0
    # stays -0.0 counterclockwise but becomes +0.0 clockwise.
    @example(case=(-1e-6, 1e-6, 1.0, 3, True))
    @example(case=(1e-6, 1e-6, -1.0, 3, False))
    @example(case=(-0.0, 0.0, 1.0, 3, True))
    @example(case=(-0.0, 0.0, -1.0, 3, False))
    @example(case=(0.0, 0.0, -1.0, 3, False))
    # Ties toward zero whose grid walk would land on the binade's edge,
    # where the exact result rounds on the finer grid below it.
    @example(case=(1 + 8 * 2.0 ** -52, 2.5 * 2.0 ** -52, 0.0, 10, False))
    @example(case=(-1 - 8 * 2.0 ** -52, 2.5 * 2.0 ** -52, 0.0, 10, True))
    # A long run through several binades to an exit mid-binade.
    @example(case=(-0.011, 1.2345e-6, 0.00634, 20000, True))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_per_step_fold(self, case):
        def seen(fold):
            k, end, reached = fold(*case)
            return k, reached, end.hex()
        assert seen(closed_fold) == seen(plain_fold)

    def test_a_long_drive_takes_few_real_additions(self, monkeypatch):
        # Each real addition in ``_fold`` asks ``math.ulp`` for its result's
        # ulp. A 6 V unlatch at the finest dt is over 1.3e6 constant-load
        # steps; folded one addition at a time it makes 2.65e6 such calls.
        latched = run_until(latch.LatchFsm(),
                            DriveCommand(3.0, Direction.CLOCKWISE),
                            latch.MIN_DT, LatchState.LATCHED)[0]
        ulps = []
        counting = SimpleNamespace(**vars(math))
        counting.ulp = lambda x: ulps.append(x) or math.ulp(x)
        monkeypatch.setattr(latch, "math", counting)
        final, trace, _ = run_until(latched,
                                    DriveCommand(6.0,
                                                 Direction.COUNTERCLOCKWISE),
                                    latch.MIN_DT, LatchState.HOUSED)
        assert final.state is LatchState.HOUSED
        assert trace.steps > 1_300_000
        assert len(ulps) <= 1000
