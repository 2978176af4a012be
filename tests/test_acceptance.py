"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`."""

import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest

from lammos import defaults, sequence
from lammos.cli import main as cli_main
from lammos.dewalop import (
    PipeEnvironment,
    default_unit,
    insertion_clearance,
    insertion_force_required,
    leg_load_path,
)
from lammos.exo import ExoJoint, LoadTimeline, energy_comparison, hold_power
from lammos.latch import (
    DRIVE_OFF,
    Direction,
    DriveCommand,
    LEGAL_EDGES,
    LatchState,
    run_schedule,
    run_until,
    static_power,
)
from lammos.mechlib import (
    BRACKET_40X40,
    BRACKET_80X80,
    BRACKET_160X80,
    MaterialSpec,
    PlateSpec,
    check_bracket_load,
    check_tslot_holding,
    gram_cm_to_newton_m,
    plate_bending_safety_factor,
)

CW3 = DriveCommand(3.0, Direction.CLOCKWISE)
CCW6 = DriveCommand(6.0, Direction.COUNTERCLOCKWISE)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_file(filename: str):
    """Run a file in ``scenarios/`` through ``parse``, at dt = 0.005 s."""
    raw = json.loads((SCENARIOS / filename).read_text())
    scenario, diags, usage = sequence.parse(raw, dt=0.005)
    assert (diags, usage) == ([], [])
    return sequence.run_scenario(scenario)


def report(criterion: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok, criterion


def test_criterion_1_table_anchored_constants(motor):
    ok = True
    ok &= abs(motor.stall_torque(3.0) / gram_cm_to_newton_m(2884.0) - 1) <= 1e-12
    ok &= abs(motor.stall_torque(6.0) / gram_cm_to_newton_m(3444.0) - 1) <= 1e-12
    ok &= defaults.SPRING_MAX_LOAD == 4.506
    ok &= check_tslot_holding(5000.0).passed
    ok &= not check_tslot_holding(5000.0 + 1e-9).passed
    envelopes = {
        BRACKET_40X40.designation: (1000.0, 50.0),
        BRACKET_80X80.designation: (2000.0, 150.0),
        BRACKET_160X80.designation: (2000.0, 150.0),
    }
    for bracket in (BRACKET_40X40, BRACKET_80X80, BRACKET_160X80):
        max_force, max_moment = envelopes[bracket.designation]
        ok &= bracket.max_force == max_force
        ok &= bracket.max_moment == max_moment
        ok &= not check_bracket_load(bracket, max_force, 0.0).passed  # strict
        ok &= check_bracket_load(bracket, max_force - 1e-6, 0.0).passed
    report("1: table-anchored constants exact", bool(ok))


def test_criterion_2_bracket_grid_oracle():
    disagreements = 0
    pairs = 0
    for bracket in (BRACKET_40X40, BRACKET_80X80, BRACKET_160X80):
        for fi in range(101):          # force 0..2500 N step 25
            force = 25.0 * fi
            for li in range(61):       # lever 0..0.3 m step 5 mm
                lever = 0.005 * li
                pairs += 1
                oracle = (force < bracket.max_force
                          and force * lever < bracket.max_moment)
                if check_bracket_load(bracket, force, lever).passed != oracle:
                    disagreements += 1
    report(f"2: bracket oracle equivalence over {pairs} pairs",
           pairs >= 15_000 and disagreements == 0)


def test_criterion_3_safety_factor_study(capsys):
    code = cli_main(["sf", "--load", "1000", "1500", "2000"])
    lines = capsys.readouterr().out.strip().splitlines()
    with capsys.disabled():
        ok = code == 0
        sfs = [float(line.split(",")[2]) for line in lines[1:]]
        plate, material = PlateSpec(), MaterialSpec()
        for sf, load in zip(sfs, (1000.0, 1500.0, 2000.0)):
            # Independent beam-theory oracle: sigma = M*c/I.
            inertia = plate.thickness * plate.height ** 3 / 12
            sigma = load * plate.length * (plate.height / 2) / inertia
            ok &= abs(sf / (material.yield_strength / sigma) - 1) <= 1e-9
        ok &= sfs[0] > sfs[1] > sfs[2]
        exact = plate_bending_safety_factor(plate, material, 1000.0,
                                            plate.length).safety_factor
        exact_2000 = plate_bending_safety_factor(plate, material, 2000.0,
                                                 plate.length).safety_factor
        ok &= exact_2000 == exact / 2
        ok &= abs(exact - 5.17) < 0.01
        report("3: safety-factor study matches beam-theory oracle", bool(ok))


def test_criterion_4_latch_fsm_properties(fsm):
    rng = random.Random(20260826)
    # (a) idle schedules never leave Housed.
    ok_idle = True
    for _ in range(10_000):
        schedule = [(DRIVE_OFF, rng.uniform(0.01, 2.0))
                    for _ in range(rng.randint(1, 4))]
        final, trace, _ = run_schedule(fsm, schedule, 0.05)
        ok_idle &= final.state is LatchState.HOUSED
        ok_idle &= all(s.position < 0 for s in trace.samples)
    report("4a: 10,000 idle schedules never leave Housed", ok_idle)

    # (b) randomized drive schedules only use legal edges.
    commands = [CW3, CCW6, DRIVE_OFF, DriveCommand(4.5, Direction.CLOCKWISE),
                DriveCommand(6.0, Direction.CLOCKWISE),
                DriveCommand(3.0, Direction.COUNTERCLOCKWISE)]
    ok_edges = True
    for _ in range(1_000):
        schedule = [(rng.choice(commands), rng.uniform(0.01, 1.0))
                    for _ in range(rng.randint(1, 6))]
        _, trace, _ = run_schedule(fsm, schedule, 0.01)
        states = [fsm.state] + [s.state for s in trace.samples]
        ok_edges &= all(a == b or (a, b) in LEGAL_EDGES
                        for a, b in zip(states, states[1:]))
    report("4b: 1,000 randomized schedules use legal edges only", ok_edges)

    # (c) full latch at 3 V, unlatch at 6 V: breakaway peak, 7-state cycle.
    latched, latch_trace, _ = run_until(fsm, CW3, 0.001, LatchState.LATCHED)
    housed, unlatch_trace, _ = run_until(latched, CCW6, 0.001,
                                         LatchState.HOUSED)
    peak = max(s.current for s in unlatch_trace.samples)
    ok_cycle = unlatch_trace.samples[0].current == peak
    all_samples = list(latch_trace.samples) + list(unlatch_trace.samples)
    seen = [k for k, _ in itertools.groupby(s.state for s in all_samples)]
    cycle = [LatchState.ENGAGING_FLEXNUT, LatchState.TRAVERSING,
             LatchState.TIGHTENING, LatchState.LATCHED, LatchState.LOOSENING,
             LatchState.RETRACTING, LatchState.HOUSED]
    ok_cycle &= seen == cycle and housed.state is LatchState.HOUSED
    report("4c: latch/unlatch trace shows breakaway peak and 7-state cycle",
           ok_cycle)


def test_criterion_5_insertion_numbers():
    pipe800 = PipeEnvironment(0.800)
    ok = insertion_clearance(pipe800, True) == 0.116
    ok &= insertion_clearance(pipe800, False) == -0.030
    ok &= insertion_force_required(pipe800, False) == 400.0
    report("5: insertion clearances and push force exact", bool(ok))


def test_criterion_6_five_step_scenario():
    unit, log, verdict, traces = run_file("canonical_800mm.json")
    ok = verdict.passed
    for leg in unit.legs:
        path = leg_load_path(leg, 2000.0)
        ok &= path.structure_share == 2000.0
        ok &= path.actuator_share == 0.0
        ok &= path.ok
    housed = default_unit()
    overload = leg_load_path(housed.legs[0], 2000.0)
    ok &= "actuator overload" in overload.failures
    report("6: five-step scenario, 2000 N to structure, overload flagged",
           bool(ok))


def test_criterion_7_round_trip():
    restored, _, verdict, _ = run_file("roundtrip_800mm.json")
    ok = verdict.passed and restored == default_unit()
    report("7: forward + reverse restores the exact initial state", ok)


def test_criterion_8_static_power(fsm):
    latched, _, _ = run_until(fsm, CW3, 0.005, LatchState.LATCHED)
    mid, _, _ = run_until(fsm, CW3, 0.005, LatchState.TRAVERSING)
    ok = all(static_power(s) == 0.0 for s in (fsm, latched, mid))
    ok &= all(static_power(s, DRIVE_OFF) == 0.0 for s in (fsm, latched, mid))
    joint = ExoJoint(motor=defaults.default_motor(),
                     lock=dataclasses.replace(
                         latched, state=LatchState.LATCHED))
    stall = joint.motor.stall_torque(3.0)
    powers = {hold_power(dataclasses.replace(joint, load_torque=f * stall))
              for f in (0.0, 0.3, 0.6, 0.9)}
    ok &= powers == {joint.standby_power}
    report("8: zero static power; locked joints draw exactly standby", bool(ok))


def test_criterion_9_energy_comparison():
    motor = defaults.default_motor()
    stall = motor.stall_torque(3.0)
    joint = ExoJoint(motor=motor, lock=defaults.default_latch_fsm(),
                     supply_voltage=3.0, standby_power=0.1)
    timeline = LoadTimeline(points=((0.0, stall / 2),), end_time=600.0)
    at_start = energy_comparison(joint, timeline, lock_at=0.0, dt=0.005)
    i_half = (motor.no_load_current
              + 0.5 * (motor.stall_current(3.0) - motor.no_load_current))
    closed_form = 600.0 * (3.0 * i_half - 0.1) - at_start.latch_energy
    ok = abs(at_start.savings / closed_form - 1) <= 1e-9
    at_end = energy_comparison(joint, timeline, lock_at=600.0, dt=0.005)
    ok &= at_end.savings == -at_end.latch_energy
    report("9: energy savings match the closed-form integral oracle", bool(ok))


def test_criterion_10_determinism(tmp_path):
    scenarios = (
        "canonical_800mm.json",
        "exo_hold_600s.json",
    )
    from pathlib import Path
    base = Path(__file__).resolve().parent.parent / "scenarios"
    ok = True
    for name in scenarios:
        out_a, out_b = tmp_path / f"a-{name}", tmp_path / f"b-{name}"
        for out in (out_a, out_b):
            code = cli_main(["run", "--config", str(base / name),
                             "--out", str(out), "--dt", "0.005"])
            ok &= code == 0
        for file_a in sorted(out_a.iterdir()):
            ok &= file_a.read_bytes() == (out_b / file_a.name).read_bytes()
    report("10: byte-identical artifacts on identical reruns", bool(ok))
