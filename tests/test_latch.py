"""Latch state-machine behavior, trace determinism, and cycle properties."""

import dataclasses
import io
import itertools
import math
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lammos import defaults, exo
from lammos.dewalop import default_unit
from lammos.latch import (
    DRIVE_OFF,
    MIN_DT,
    Direction,
    DriveCommand,
    LatchFsm,
    LatchState,
    LatchStateError,
    LEGAL_EDGES,
    TRACE_CSV_HEADER,
    can_latch,
    can_unlatch,
    holds_housed_without_power,
    run_schedule,
    run_until,
    static_power,
    step,
)

CW3 = DriveCommand(3.0, Direction.CLOCKWISE)
CCW6 = DriveCommand(6.0, Direction.COUNTERCLOCKWISE)


def full_latch(fsm, dt=0.001):
    final, trace, events = run_until(fsm, CW3, dt, LatchState.LATCHED)
    assert final.state is LatchState.LATCHED
    return final, trace, events


class TestStep:
    def test_idle_is_identity(self, fsm):
        new, event = step(fsm, DRIVE_OFF, 0.5)
        assert new == fsm
        assert event is None

    def test_clockwise_reaches_latched(self, fsm):
        final, trace, events = full_latch(fsm)
        names = [e.name for _, e in events]
        assert names == ["engaging", "crossed-bracket-plane", "reached-tslot",
                         "latched"]
        threshold = (defaults.TIGHTENING_CURRENT_THRESHOLD
                     * defaults.MOTOR.stall_current(3.0))
        assert trace.samples[-1].current >= threshold

    def test_latched_position_invariant(self, fsm):
        final, _, _ = full_latch(fsm)
        assert final.screw_tip_position >= (defaults.BRACKET_THICKNESS
                                            + defaults.TSLOT_GAP)

    def test_breakaway_peak_is_unlatch_maximum(self, fsm):
        latched, _, _ = full_latch(fsm)
        housed, trace, events = run_until(latched, CCW6, 0.001,
                                          LatchState.HOUSED)
        assert housed.state is LatchState.HOUSED
        peak = max(s.current for s in trace.samples)
        assert trace.samples[0].current == peak
        steady = trace.samples[-10].current
        assert steady < peak

    def test_already_latched_noop(self, fsm):
        latched, _, _ = full_latch(fsm)
        new, event = step(latched, CW3, 0.001)
        assert new == latched
        assert event.name == "already-latched"

    def test_drive_off_mid_travel_holds(self, fsm):
        mid, _, _ = run_until(fsm, CW3, 0.001, LatchState.TRAVERSING,
                              max_duration=10.0)
        assert mid.state is LatchState.TRAVERSING
        held, event = step(mid, DRIVE_OFF, 1.0)
        assert held == mid and event is None

    def test_unlatch_at_3v_stalls(self, fsm):
        # Breakaway torque exceeds the 3 V stall torque: no motion.
        latched, _, _ = full_latch(fsm)
        ccw3 = DriveCommand(3.0, Direction.COUNTERCLOCKWISE)
        loosening, _ = step(latched, ccw3, 0.001)
        stuck, _ = step(loosening, ccw3, 0.001)
        assert stuck.state is LatchState.LOOSENING
        assert stuck.screw_tip_position == loosening.screw_tip_position

    def test_nonpositive_dt_rejected(self, fsm):
        with pytest.raises(ValueError):
            step(fsm, CW3, 0.0)

    @pytest.mark.parametrize("position", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("state", list(LatchState))
    def test_non_finite_tip_rejected(self, state, position):
        # A NaN tip never reaches a limit, so a drive from it would run to
        # LATCH_TIMEOUT.
        with pytest.raises(ValueError, match="must be finite"):
            LatchFsm(state, position)


class TestSimulateTrace:
    def test_empty_schedule(self, fsm):
        trace = run_schedule(fsm, [], 0.001)[1]
        assert trace.samples == ()

    def test_full_cycle_state_sequence(self, fsm):
        _, latch_trace, _ = full_latch(fsm)
        latch_time = latch_trace.duration + 0.5
        schedule = [(CW3, latch_time), (CCW6, 30.0)]
        trace = run_schedule(fsm, schedule, 0.001)[1]
        seen = [k for k, _ in itertools.groupby(s.state for s in trace.samples)]
        assert seen == [
            LatchState.ENGAGING_FLEXNUT, LatchState.TRAVERSING,
            LatchState.TIGHTENING, LatchState.LATCHED, LatchState.LOOSENING,
            LatchState.RETRACTING, LatchState.HOUSED,
        ]

    def test_timestamps_strictly_increasing(self, fsm):
        trace = run_schedule(fsm, [(CW3, 0.05), (DRIVE_OFF, 0.05)], 0.001)[1]
        times = [s.t for s in trace.samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_determinism_bit_identical(self, fsm):
        schedule = [(CW3, 2.0), (DRIVE_OFF, 0.5), (CW3, 1.0)]
        a = run_schedule(fsm, schedule, 0.001)[1]
        b = run_schedule(fsm, schedule, 0.001)[1]
        assert a == b

    def test_dt_halving_consistency(self, fsm):
        schedule = [(CW3, 3.0)]
        coarse = run_schedule(fsm, schedule, 0.002)[1]
        fine = run_schedule(fsm, schedule, 0.001)[1]
        assert coarse.samples[-1].state == fine.samples[-1].state
        max_advance = (defaults.MOTOR.free_speed(3.0)
                       * defaults.SCREW_THREAD_PITCH * 0.002)
        assert abs(coarse.samples[-1].position
                   - fine.samples[-1].position) <= max_advance

    def test_csv_header_and_digits(self, fsm):
        trace = run_schedule(fsm, [(CW3, 0.003)], 0.001)[1]
        fh = io.StringIO()
        trace.write_csv(fh, "a,")
        lines = fh.getvalue().splitlines()
        assert TRACE_CSV_HEADER == "t_s,current_A,position_m,state"
        assert len(lines) == 3
        assert lines[0] == "a,0.001,%.9g,%.9g,EngagingFlexNut" % (
            trace.current[0], trace.position[0])
        assert fh.getvalue().endswith("\n")

    def test_write_csv_streams_rows(self, fsm):
        # A 3 V drive to Latched is 20,631 rows; building them as one list
        # and one joined string peaked near 4 MB.
        trace = full_latch(fsm)[1]
        with open(os.devnull, "w") as fh:
            tracemalloc.start()
            try:
                trace.write_csv(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 0.5e6

    def test_nonpositive_duration_rejected(self, fsm):
        with pytest.raises(ValueError):
            run_schedule(fsm, [(CW3, 0.0)], 0.001)[1]


class TestTimeBase:
    def test_clock_counts_steps(self, fsm):
        # Sample k ends step k + 1; the clock does not accumulate dt.
        for t0, end in ((0.0, 20.631), (17.5, 17.5 + 20.631)):
            _, trace, events = run_until(fsm, CW3, 1e-3, LatchState.LATCHED,
                                         t0=t0)
            samples = trace.samples
            assert all(s.t == t0 + (k + 1) * 1e-3
                       for k, s in enumerate(samples))
            assert {t for t, _ in events} <= {s.t for s in samples}
            assert trace.duration == samples[-1].t == events[-1][0] == end

    def test_zero_step_drive_ends_at_t0(self, fsm):
        latched, _, _ = full_latch(fsm)
        final, trace, events = run_until(latched, CW3, 1e-3,
                                         LatchState.LATCHED, t0=17.5)
        assert (final, len(trace.state), events) == (latched, 0, [])
        assert trace.duration == 17.5

    def test_energy_takes_only_the_trace_dt(self, fsm):
        # Another dt would scale the energy; the trace has one time base.
        trace = run_schedule(fsm, [(CW3, 0.05)], 1e-3)[1]
        assert trace.energy(lambda t: 3.0, trace.dt) > 0.0
        with pytest.raises(ValueError, match="dt"):
            trace.energy(lambda t: 3.0, 2 * trace.dt)

    def test_drive_keeps_columns_not_objects(self, fsm):
        # Two float columns and one state reference per step, plus the
        # columns' growth; a frozen sample per step kept about 200 B.
        tracemalloc.start()
        try:
            _, trace, _ = run_until(fsm, CW3, 1e-4, LatchState.LATCHED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(trace.state) <= 48

    def test_drive_keeps_only_its_tightening_steps(self, fsm):
        # The constant-load phases are runs of a few numbers each; only
        # Tightening keeps a current and a position per step (34,104 of the
        # drive's 206,281 steps), plus the arrays' growth.
        tracemalloc.start()
        try:
            _, trace, _ = run_until(fsm, CW3, 1e-4, LatchState.LATCHED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tightening = trace.state.count(LatchState.TIGHTENING) + 1
        assert peak <= 24 * tightening


@pytest.fixture
def short_lock(monkeypatch):
    """The housed latch with the mechanism's travel cut a hundredfold, so
    that a full drive at MIN_DT takes about 1/100 of the 2e6 steps of the
    real one."""
    for name, value in (("HOUSED_REST_POSITION", -3e-5),
                        ("BRACKET_THICKNESS", 9e-5), ("TSLOT_GAP", 3e-5),
                        ("TIGHTENING_TRAVEL", 1.25e-5)):
        monkeypatch.setattr(defaults, name, value)
    return LatchFsm()


# Every latch entry point, driven clockwise with one timestep.
ENTRY_POINTS = {
    "run_until": lambda fsm, dt: run_until(fsm, CW3, dt, LatchState.LATCHED,
                                           max_duration=0.01),
    "run_schedule": lambda fsm, dt: run_schedule(fsm, [(CW3, 0.01)], dt),
    "step": lambda fsm, dt: step(fsm, CW3, dt),
    "exo.latch_energy": lambda fsm, dt: exo.latch_energy(
        exo.ExoJoint(motor=defaults.MOTOR, lock=fsm), dt),
}


class TestDtRule:
    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf, 1e-6])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejects_bad_timestep(self, short_lock, entry, dt):
        with pytest.raises(ValueError, match="timestep out of range"):
            ENTRY_POINTS[entry](short_lock, dt)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_accepts_min_dt(self, short_lock, entry):
        assert ENTRY_POINTS[entry](short_lock, MIN_DT)


class TestHousedStatics:
    def test_default_mechanism_holds(self, fsm):
        assert holds_housed_without_power(fsm)

    def test_housed_latch_reads_rest_position_when_built(self, monkeypatch):
        monkeypatch.setattr(defaults, "HOUSED_REST_POSITION", -2e-3)
        unit = default_unit()
        positions = {LatchFsm().screw_tip_position,
                     defaults.default_latch_fsm().screw_tip_position,
                     *(latch.screw_tip_position for leg in unit.legs
                       for latch in (leg.angle_latch, leg.flat_latch))}
        assert positions == {-2e-3}

    def test_backdrive_oracle_margin(self):
        # The M8/mu=0.2 thread is self-locking, so any friction holds.
        from lammos.mechlib import screw_back_drive_torque
        backdrive = screw_back_drive_torque(
            defaults.SPRING_MAX_LOAD, defaults.SCREW_NOMINAL_DIAMETER,
            defaults.SCREW_THREAD_PITCH, defaults.SCREW_THREAD_FRICTION)
        assert backdrive < defaults.FLEXNUT_FRICTION_TORQUE / 2

    def test_zero_friction_fails(self, fsm, monkeypatch):
        monkeypatch.setattr(defaults, "FLEXNUT_FRICTION_TORQUE", 0.0)
        assert not holds_housed_without_power(fsm)

    def test_wrong_state_raises(self, fsm):
        mid, _, _ = run_until(fsm, CW3, 0.001, LatchState.TRAVERSING,
                              max_duration=10.0)
        with pytest.raises(LatchStateError):
            holds_housed_without_power(mid)


class TestMechanism:
    def test_constants_are_consistent(self):
        # The one mechanism every latch snapshot is driven by.
        d = defaults
        assert d.HOUSED_REST_POSITION < 0, "rest above the bracket plane"
        assert d.BRACKET_THICKNESS > 0 and d.TSLOT_GAP >= 0, "bracket geometry"
        assert 0 < d.TIGHTENING_CURRENT_THRESHOLD <= 1, "threshold in (0, 1]"
        assert d.CLAMP_TORQUE > d.FLEXNUT_FRICTION_TORQUE, "clamp > friction"
        travel = (d.BRACKET_THICKNESS + d.TSLOT_GAP + d.TIGHTENING_TRAVEL
                  - d.HOUSED_REST_POSITION)
        assert travel <= d.SCREW_LENGTH, "latched travel within the screw"
        assert d.SCREW_THREAD_PITCH > 0, "thread pitch"
        assert d.SCREW_LENGTH > 0, "screw length"
        assert 0 <= d.SCREW_THREAD_FRICTION < 1, "friction in [0, 1)"
        assert d.SPRING_WIRE_DIAMETER > 0, "spring wire"
        assert d.SPRING_OUTER_WIDTH > d.SPRING_WIRE_DIAMETER, "spring geometry"
        assert d.SPRING_ACTIVE_COILS > 0, "active coils"
        assert d.SPRING_SHEAR_MODULUS > 0 and d.SPRING_MAX_LOAD > 0, \
            "shear modulus and max load"


class TestStaticPower:
    def test_zero_without_drive_in_any_state(self, fsm):
        latched, _, _ = full_latch(fsm)
        for snapshot in (fsm, latched):
            assert static_power(snapshot) == 0.0
            assert static_power(snapshot, DRIVE_OFF) == 0.0

    def test_positive_while_driving(self, fsm):
        mid, _, _ = run_until(fsm, CW3, 0.001, LatchState.TRAVERSING,
                              max_duration=10.0)
        assert static_power(mid, CW3) > 0.0


@st.composite
def idle_schedules(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    return [(DRIVE_OFF, draw(st.floats(min_value=0.001, max_value=5.0)))
            for _ in range(n)]


class TestProperties:
    @given(schedule=idle_schedules())
    @settings(max_examples=200, deadline=None)
    def test_no_accidental_latching(self, schedule):
        fsm = defaults.default_latch_fsm()
        final, trace, _ = run_schedule(fsm, schedule, 0.01)
        assert final.state is LatchState.HOUSED
        assert all(s.position < 0 for s in trace.samples)
        assert all(s.current == 0.0 for s in trace.samples)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_schedules_use_legal_edges_only(self, seed):
        rng = random.Random(seed)
        fsm = defaults.default_latch_fsm()
        commands = [CW3, CCW6, DRIVE_OFF,
                    DriveCommand(4.5, Direction.CLOCKWISE),
                    DriveCommand(6.0, Direction.CLOCKWISE),
                    DriveCommand(3.0, Direction.COUNTERCLOCKWISE)]
        schedule = [(rng.choice(commands), rng.uniform(0.01, 2.0))
                    for _ in range(rng.randint(1, 8))]
        _, trace, _ = run_schedule(fsm, schedule, 0.005)
        states = [fsm.state] + [s.state for s in trace.samples]
        for a, b in zip(states, states[1:]):
            assert a == b or (a, b) in LEGAL_EDGES, f"illegal edge {a}->{b}"

    def test_tightening_current_non_decreasing(self, fsm):
        _, trace, _ = full_latch(fsm)
        currents = [s.current for s in trace.samples
                    if s.state is LatchState.TIGHTENING]
        assert len(currents) > 2
        assert all(b >= a for a, b in zip(currents, currents[1:]))

    @pytest.mark.parametrize("voltage", [3.0, 3.40, 3.41, 3.42, 3.43, 3.5, 6.0])
    def test_can_latch_matches_drive(self, fsm, voltage):
        cmd = DriveCommand(voltage, Direction.CLOCKWISE)
        final, _, _ = run_until(fsm, cmd, 0.005, LatchState.LATCHED)
        assert can_latch(voltage) is (final.state is LatchState.LATCHED)

    @pytest.mark.parametrize("voltage", [3.0, 3.5, 3.88, 3.89, 4.0, 6.0])
    def test_can_unlatch_matches_drive(self, fsm, voltage):
        # Below about 3.883 V the stall torque is under the breakaway torque,
        # and a counterclockwise drive stalls in Loosening.
        latched, _, _ = full_latch(fsm, 0.005)
        cmd = DriveCommand(voltage, Direction.COUNTERCLOCKWISE)
        final, _, _ = run_schedule(latched, [(cmd, 0.5)], 0.005)
        moved = final.screw_tip_position < latched.screw_tip_position
        assert can_unlatch(voltage) is moved

    def test_single_motor_suffices(self, fsm, monkeypatch):
        # The whole latch cycle is driven by the one MotorSpec in defaults,
        # read when the drive runs: a motor twice as fast latches sooner.
        latched, trace, _ = full_latch(fsm)
        _, unlatch, _ = run_until(latched, CCW6, 0.001, LatchState.HOUSED)
        motor = defaults.MOTOR
        monkeypatch.setattr(defaults, "MOTOR", dataclasses.replace(
            motor, free_speed_points=tuple(
                (v, 2 * speed) for v, speed in motor.free_speed_points)))
        fast_latched, fast, _ = full_latch(fsm)
        _, fast_unlatch, _ = run_until(fast_latched, CCW6, 0.001,
                                       LatchState.HOUSED)
        assert fast.duration < trace.duration
        assert fast_unlatch.duration < unlatch.duration
