"""Scenario engine tests: canonical procedure, ordering, abort, round trip."""

import json
import re
from pathlib import Path

import pytest

from lammos.dewalop import PipeEnvironment, default_unit, leg_load_path
from lammos.latch import LatchState
from lammos.sequence import (
    _ACTIONS,
    Scenario,
    StepSpec,
    parse,
    run_scenario,
    snapshot_hash,
    validate,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Coarser timestep keeps full-procedure runs fast; behavior is dt-robust.
FAST_DT = 0.005


def read_doc(filename):
    return json.loads((SCENARIOS / filename).read_text())


CANONICAL_STEPS = read_doc("canonical_800mm.json")["steps"]


def build_scenario(raw, dt=None):
    scenario, diags, usage = parse(raw, dt)
    assert (diags, usage) == ([], [])
    return scenario


def run_file(filename, dt=FAST_DT):
    return run_scenario(build_scenario(read_doc(filename), dt))


def run_canonical():
    return run_file("canonical_800mm.json")


class TestCanonicalScenario:
    def test_succeeds_with_all_latches_engaged(self):
        unit, log, verdict, traces = run_canonical()
        assert verdict.passed
        assert unit.in_pipe and unit.centered
        for leg in unit.legs:
            assert leg.angle_latch.state is LatchState.LATCHED
            assert leg.flat_latch.state is LatchState.LATCHED

    def test_final_state_routes_load_to_structure(self):
        unit, _, verdict, _ = run_canonical()
        assert verdict.passed
        path = leg_load_path(unit.legs[0], 2000.0)
        assert path.structure_share == 2000.0
        assert path.actuator_share == 0.0
        assert path.ok

    def test_event_log_timestamps_non_decreasing(self):
        _, log, _, _ = run_canonical()
        times = [e.t for e in log.entries]
        assert times == sorted(times)

    def test_every_latch_transition_has_one_drive_actor(self):
        _, log, _, _ = run_canonical()
        latched_events = [e for e in log.entries if e.event == "latched"]
        assert len(latched_events) == 2  # one angle drive, one flat drive
        assert {e.actor for e in latched_events} == {"latch_angle",
                                                     "latch_flat"}


class TestOrderingAndAbort:
    def test_skipping_raise_fails_at_latch_angle(self):
        scenario = build_scenario({
            "name": "broken", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800}, "dt_s": FAST_DT,
            "steps": [
                {"action": "lower_legs"},
                {"action": "move_into_pipe"},
                {"action": "latch_angle"},
            ],
        })
        unit, log, verdict, _ = run_scenario(scenario)
        assert not verdict.passed
        assert verdict.failed_action == "latch_angle"
        assert verdict.reason == "hinge not perpendicular"
        assert verdict.offending_leg is not None

    def test_abort_returns_pre_step_snapshot(self):
        scenario = build_scenario({
            "name": "aborting", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800}, "dt_s": FAST_DT,
            "steps": [
                {"action": "lower_legs"},
                {"action": "move_into_pipe"},
                {"action": "latch_angle"},  # fails: legs still lowered
            ],
        })
        unit, _, verdict, _ = run_scenario(scenario)
        assert not verdict.passed
        # State equals what the first two (successful) steps produced.
        prefix = build_scenario({
            "name": "prefix", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800}, "dt_s": FAST_DT,
            "steps": [
                {"action": "lower_legs"},
                {"action": "move_into_pipe"},
            ],
        })
        prefix_unit, _, prefix_verdict, _ = run_scenario(prefix)
        assert prefix_verdict.passed
        assert unit == prefix_unit

    def test_latching_latched_latches_takes_no_time(self):
        # The second latch_angle drives zero steps: the clock stays put.
        scenario = build_scenario({
            "name": "relatch", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800}, "dt_s": FAST_DT,
            "steps": [{"action": a} for a in (
                "lower_legs", "move_into_pipe", "raise_legs", "latch_angle",
                "latch_angle", "extend_legs")],
        })
        _, log, verdict, _ = run_scenario(scenario)
        assert verdict.passed
        assert [(e.t, e.event) for e in log.entries[-4:-1]] == [
            (23.635, "all angle latches engaged"),
            (23.635, "all angle latches engaged"),
            (24.635, "wall press complete, unit centered")]

    def test_unlatch_flat_requires_engaged_latch(self):
        scenario = build_scenario({
            "name": "premature-unlatch", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800}, "dt_s": FAST_DT,
            "steps": [{"action": "unlatch_flat"}],
        })
        _, _, verdict, _ = run_scenario(scenario)
        assert not verdict.passed
        assert verdict.reason == "flat latch not engaged"


class TestRoundTrip:
    def test_forward_then_reverse_restores_initial_state(self):
        initial = default_unit()
        restored, _, verdict, _ = run_file("roundtrip_800mm.json")
        assert verdict.passed
        assert restored == initial
        assert snapshot_hash(restored) == snapshot_hash(initial)

    def test_reverse_final_posture(self):
        restored, _, verdict, _ = run_file("roundtrip_800mm.json")
        assert verdict.passed
        assert not restored.in_pipe
        for leg in restored.ring_legs("top"):
            assert leg.hinge_angle != 0.0
        for leg in restored.legs:
            assert leg.angle_latch.state is LatchState.HOUSED
            assert leg.flat_latch.state is LatchState.HOUSED


class TestDeterminism:
    def test_identical_scenarios_identical_logs(self):
        _, log_a, _, _ = run_canonical()
        _, log_b, _, _ = run_canonical()
        assert log_a == log_b
        assert log_a.to_csv() == log_b.to_csv()


class TestValidate:
    def test_canonical_clean(self):
        diags = validate({
            "name": "ok", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800}, "dt_s": 0.001,
            "steps": CANONICAL_STEPS,
        })
        assert diags == []

    def test_pipe_out_of_range(self):
        diags = validate({
            "name": "wide", "type": "dewalop",
            "pipe": {"inner_diameter_m": 1.200},
            "steps": CANONICAL_STEPS,
        })
        assert any("pipe out of operating range" in d for d in diags)

    def test_non_positive_timestep(self):
        diags = validate({
            "name": "frozen", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800}, "dt_s": 0,
            "steps": CANONICAL_STEPS,
        })
        assert any("non-positive timestep" in d for d in diags)

    def test_name_and_dt_reported_with_the_pipe(self):
        diags = validate({**read_doc("pipe_out_of_range.json"),
                          "name": "../x", "dt_s": 0})
        assert diags == [
            "scenario name '../x' must be non-empty and printable, "
            "without '/'",
            "non-positive timestep: dt 0 s must be finite and at least "
            "1e-05 s",
            "pipe out of operating range: 1.2 m not in [0.8, 1.0] m",
        ]

    def test_name_reported_with_the_exo_voltage(self):
        diags = validate({**read_doc("exo_hold_600s.json"),
                          "name": "a/b", "supply_voltage_V": 7.0})
        assert diags == [
            "scenario name 'a/b' must be non-empty and printable, "
            "without '/'",
            "voltage 7.0 V outside characterized range [3.0, 6.0] V",
        ]

    @pytest.mark.parametrize("step, diag", [
        ({"action": "latch_angle", "angle_deg": 45,
          "acknowledge_push_force": True},
         "step 4: latch_angle does not read 'angle_deg'"),
        ({"action": "exit_pipe", "voltage_V": 3.5},
         "step 4: exit_pipe does not read 'voltage_V'"),
        ({"action": "raise_legs", "voltage_V": 9.0},
         "step 4: raise_legs does not read 'voltage_V'"),
    ], ids=["latch_angle", "exit_pipe", "raise_legs"])
    def test_parameter_the_action_does_not_read(self, step, diag):
        diags = validate({
            "name": "unread", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800},
            "steps": [*CANONICAL_STEPS[:3], step],
        })
        assert diags == [diag]

    def test_voltage_that_never_unlatches(self):
        diags = validate({
            "name": "stalled", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800},
            "steps": [*CANONICAL_STEPS,
                      {"action": "unlatch_flat", "voltage_V": 3.5}],
        })
        assert diags == [
            "step 7: unlatch_flat at 3.5 V never unlatches: the stall torque "
            "stays below the breakaway torque"]

    def test_each_broken_exo_part_reported(self):
        diags = validate({
            "name": "broken", "type": "exo", "supply_voltage_V": 9.0,
            "standby_power_W": -1, "end_time_s": 10, "lock_at_s": 50,
            "load_timeline": [{"t_s": 0.5, "load_Nm": -1}]})
        assert diags == [
            "voltage 9.0 V outside characterized range [3.0, 6.0] V",
            "loads must be non-negative",
            "lock_at must fall within the timeline",
        ]

    def test_unknown_action(self):
        diags = validate({
            "name": "odd", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800},
            "steps": [{"action": "teleport"}],
        })
        assert any("unknown action" in d for d in diags)

    def test_empty_steps(self):
        diags = validate({
            "name": "empty", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800}, "steps": [],
        })
        assert any("no steps" in d for d in diags)

    def test_empty_steps_reported_alongside_name_and_pipe(self):
        diags = validate({
            "name": "../x", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.7}, "steps": [],
        })
        assert diags == [
            "scenario name '../x' must be non-empty and printable, "
            "without '/'",
            "pipe out of operating range: 0.7 m not in [0.8, 1.0] m",
            "scenario has no steps",
        ]


class TestScenarioTypes:
    def test_step_spec_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            StepSpec(action="fly")

    def test_scenario_requires_steps(self):
        with pytest.raises(ValueError):
            Scenario(name="x", pipe=PipeEnvironment(0.800), steps=())

    def test_manual_push_path_requires_acknowledgement(self):
        base = {
            "name": "raised-insertion", "type": "dewalop",
            "pipe": {"inner_diameter_m": 0.800}, "dt_s": FAST_DT,
        }
        refused = build_scenario({**base, "steps": [
            {"action": "raise_legs"},
            {"action": "move_into_pipe"},
        ]})
        _, _, verdict, _ = run_scenario(refused)
        assert not verdict.passed
        assert "acknowledged push force" in verdict.reason

        acknowledged = build_scenario({**base, "steps": [
            {"action": "raise_legs"},
            {"action": "move_into_pipe", "acknowledge_push_force": True},
        ]})
        _, log, verdict, _ = run_scenario(acknowledged)
        assert verdict.passed
        assert any("manual push 400 N" in e.event for e in log.entries)


class TestReadme:
    def test_action_table_matches_actions(self):
        # README's action table lists each action once, with exactly the
        # parameters it reads and the direction it drives.
        readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| Action | Parameters it reads | Drives |\n")[1]
        rows = table.split("\n\n")[0].splitlines()[1:]
        listed = []
        for row in rows:
            actions, reads, drives = row.strip("|").split("|")
            direction = drives.split(",")[0].strip()
            for action in re.findall(r"`(\w+)`", actions):
                listed.append((action, set(re.findall(r'"(\w+)"', reads)),
                               None if direction == "—" else direction))
        assert sorted(action for action, _, _ in listed) == sorted(_ACTIONS)
        for action, reads, direction in listed:
            _, kinds, drive = _ACTIONS[action]
            assert reads == set(kinds), action
            assert direction == (drive and drive.value), action
