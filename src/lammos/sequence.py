"""Supervisory scenario engine for the five-step reconfiguration procedure.

Executes an ordered list of actions against a maintenance-unit snapshot
with machine-checked pre/postconditions, an append-only event log, and a
deterministic verdict. A failed condition aborts the run and returns the
snapshot taken before the failing step.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from . import defaults
from .dewalop import (
    InsertionError,
    LegStateError,
    MaintenanceUnit,
    PipeEnvironment,
    default_unit,
    insertion_clearance,
    insertion_force_required,
    lower_leg,
    wall_press,
)
from .latch import (
    CurrentTrace,
    Direction,
    DriveCommand,
    LatchFsm,
    LatchState,
    run_until,
)
from .mechlib import csv_number

ACTIONS = (
    "lower_legs", "move_into_pipe", "raise_legs", "latch_angle",
    "extend_legs", "latch_flat", "unlatch_flat", "retract_legs",
    "unlatch_angle", "exit_pipe",
)

# Wall-clock allotted to purely mechanical (non-latch) actions in the log.
MECHANICAL_ACTION_DURATION = 1.0  # s
LATCH_TIMEOUT = 120.0             # s of simulated drive per latch action


@dataclass(frozen=True)
class StepSpec:
    action: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")


@dataclass(frozen=True)
class Scenario:
    name: str
    robot: MaintenanceUnit
    pipe: PipeEnvironment
    steps: tuple[StepSpec, ...]
    dt: float = defaults.DEFAULT_DT

    def __post_init__(self):
        if not self.steps:
            raise ValueError("scenario must contain at least one step")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class EventEntry:
    t: float
    actor: str
    event: str
    snapshot_hash: str


@dataclass(frozen=True)
class EventLog:
    entries: tuple[EventEntry, ...] = ()

    def appended(self, entry: EventEntry) -> "EventLog":
        if self.entries and entry.t < self.entries[-1].t:
            raise ValueError("event log timestamps must be non-decreasing")
        return EventLog(entries=self.entries + (entry,))

    def to_csv(self) -> str:
        lines = ["t_s,actor,event,hash"]
        for e in self.entries:
            lines.append("{},{},{},{}".format(
                csv_number(e.t), e.actor, e.event, e.snapshot_hash))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Verdict:
    passed: bool
    failed_step: Optional[int] = None
    failed_action: Optional[str] = None
    reason: Optional[str] = None
    offending_leg: Optional[str] = None


def _fsm_snapshot(fsm: LatchFsm) -> list:
    return [fsm.state.value, fsm.screw_tip_position]


def unit_snapshot(unit: MaintenanceUnit) -> dict:
    """Canonical field-ordered serialization used for log hashes."""
    return {
        "centered": unit.centered,
        "in_pipe": unit.in_pipe,
        "legs": [
            {
                "angle_latch": _fsm_snapshot(leg.angle_latch),
                "azimuth_deg": leg.azimuth_deg,
                "extension_m": leg.extension,
                "flat_latch": _fsm_snapshot(leg.flat_latch),
                "hinge_rad": leg.hinge_angle,
                "leg_id": leg.leg_id,
            }
            for leg in unit.legs
        ],
    }


def snapshot_hash(unit: MaintenanceUnit) -> str:
    blob = json.dumps(unit_snapshot(unit), sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class _Run:
    """Mutable bookkeeping for one scenario execution."""

    scenario: Scenario
    unit: MaintenanceUnit
    t: float = 0.0
    log: EventLog = field(default_factory=EventLog)
    traces: list[tuple[str, CurrentTrace]] = field(default_factory=list)

    def emit(self, actor: str, event: str):
        self.log = self.log.appended(EventEntry(
            t=self.t, actor=actor, event=event,
            snapshot_hash=snapshot_hash(self.unit)))


class _StepFailure(Exception):
    def __init__(self, reason: str, leg: Optional[str] = None):
        super().__init__(reason)
        self.reason = reason
        self.leg = leg


def _drive_latches(run: _Run, which: str, direction: Direction,
                   voltage: float, stop_state: LatchState, actor: str):
    """Drive every leg's selected latch to a target state.

    Legs with identical latch snapshots share one simulation (the mechanism
    configs are identical, so the traces are too).
    """
    memo: dict[LatchFsm, tuple] = {}
    cmd = DriveCommand(voltage=voltage, direction=direction)
    longest = 0.0
    representative = None
    for leg in run.unit.legs:
        fsm = getattr(leg, which)
        if fsm not in memo:
            memo[fsm] = run_until(fsm, cmd, run.scenario.dt, stop_state,
                                  max_duration=LATCH_TIMEOUT, t0=run.t)
        final, trace, events = memo[fsm]
        if final.state is not stop_state:
            raise _StepFailure(
                f"{which} did not reach {stop_state.value} within "
                f"{LATCH_TIMEOUT:.0f} s", leg=leg.leg_id)
        run.unit = run.unit.with_leg(replace(leg, **{which: final}))
        longest = max(longest, trace.duration - run.t)
        if representative is None:
            representative = (trace, events)
    trace, events = representative
    run.traces.append((actor, trace))
    for t_event, ev in events:
        t_save, run.t = run.t, t_event
        run.emit(actor, ev.name)
        run.t = t_save
    run.t += longest


def _do_lower_legs(run: _Run, params: dict):
    angle = params.get("angle_rad", run.unit.lowering_angle)
    for leg in run.unit.ring_legs("top"):
        try:
            run.unit = run.unit.with_leg(lower_leg(leg, angle))
        except LegStateError as exc:
            raise _StepFailure(str(exc), leg=leg.leg_id)
    run.t += MECHANICAL_ACTION_DURATION
    run.emit("lower_legs", f"top legs lowered to {math.degrees(angle):.1f} deg")


def _do_move_into_pipe(run: _Run, params: dict):
    lowered = all(l.hinge_angle != 0.0 for l in run.unit.ring_legs("top"))
    clearance = insertion_clearance(run.unit, run.scenario.pipe, lowered)
    if clearance < 0:
        if not params.get("acknowledge_push_force", False):
            raise _StepFailure(
                f"clearance {clearance:.3f} m requires acknowledged push force")
        try:
            force = insertion_force_required(run.unit, run.scenario.pipe, lowered)
        except InsertionError as exc:
            raise _StepFailure(str(exc))
        run.emit("move_into_pipe", f"manual push {force:.0f} N per leg acknowledged")
    run.unit = replace(run.unit, in_pipe=True)
    run.t += MECHANICAL_ACTION_DURATION
    run.emit("move_into_pipe", f"inserted with clearance {clearance:.3f} m")


def _do_raise_legs(run: _Run, params: dict):
    for leg in run.unit.ring_legs("top"):
        try:
            run.unit = run.unit.with_leg(lower_leg(leg, 0.0))
        except LegStateError as exc:
            raise _StepFailure(str(exc), leg=leg.leg_id)
    run.t += MECHANICAL_ACTION_DURATION
    run.emit("raise_legs", "top legs perpendicular to unit axis")


def _do_latch_angle(run: _Run, params: dict):
    for leg in run.unit.legs:
        if leg.hinge_angle != 0.0:
            raise _StepFailure("hinge not perpendicular", leg=leg.leg_id)
    _drive_latches(run, "angle_latch", Direction.CLOCKWISE,
                   params.get("voltage_V", defaults.LATCH_VOLTAGE),
                   LatchState.LATCHED, "latch_angle")
    for leg in run.unit.legs:
        if leg.angle_latch.state is not LatchState.LATCHED:
            raise _StepFailure("angle latch not engaged", leg=leg.leg_id)
    run.emit("latch_angle", "all angle latches engaged")


def _do_extend_legs(run: _Run, params: dict):
    try:
        result = wall_press(run.unit, run.scenario.pipe)
    except LegStateError as exc:
        raise _StepFailure(str(exc))
    if not result.centered:
        raise _StepFailure("wall press did not center the unit")
    run.unit = result.unit
    run.t += MECHANICAL_ACTION_DURATION
    run.emit("extend_legs", "wall press complete, unit centered")


def _do_latch_flat(run: _Run, params: dict):
    if not run.unit.centered:
        raise _StepFailure("unit not centered; wall press required before latching")
    _drive_latches(run, "flat_latch", Direction.CLOCKWISE,
                   params.get("voltage_V", defaults.LATCH_VOLTAGE),
                   LatchState.LATCHED, "latch_flat")
    run.emit("latch_flat", "legs integrated into structure")


def _do_unlatch_flat(run: _Run, params: dict):
    for leg in run.unit.legs:
        if leg.flat_latch.state is not LatchState.LATCHED:
            raise _StepFailure("flat latch not engaged", leg=leg.leg_id)
    _drive_latches(run, "flat_latch", Direction.COUNTERCLOCKWISE,
                   params.get("voltage_V", defaults.UNLATCH_VOLTAGE),
                   LatchState.HOUSED, "unlatch_flat")
    run.emit("unlatch_flat", "flat latches housed")


def _do_retract_legs(run: _Run, params: dict):
    for leg in run.unit.legs:
        if leg.flat_latch.state is LatchState.LATCHED:
            raise _StepFailure("extension frozen by flat latch", leg=leg.leg_id)
        run.unit = run.unit.with_leg(replace(leg, extension=0.0))
    run.unit = replace(run.unit, centered=False)
    run.t += MECHANICAL_ACTION_DURATION
    run.emit("retract_legs", "legs retracted")


def _do_unlatch_angle(run: _Run, params: dict):
    for leg in run.unit.legs:
        if leg.angle_latch.state is not LatchState.LATCHED:
            raise _StepFailure("angle latch not engaged", leg=leg.leg_id)
        if leg.extension != 0.0:
            raise _StepFailure("retract legs before unlatching the hinge",
                               leg=leg.leg_id)
    _drive_latches(run, "angle_latch", Direction.COUNTERCLOCKWISE,
                   params.get("voltage_V", defaults.UNLATCH_VOLTAGE),
                   LatchState.HOUSED, "unlatch_angle")
    run.emit("unlatch_angle", "angle latches housed")


def _do_exit_pipe(run: _Run, params: dict):
    if not run.unit.in_pipe:
        raise _StepFailure("robot is not inside the pipe")
    run.unit = replace(run.unit, in_pipe=False)
    run.t += MECHANICAL_ACTION_DURATION
    run.emit("exit_pipe", "robot outside the pipe")


_HANDLERS = {
    "lower_legs": _do_lower_legs,
    "move_into_pipe": _do_move_into_pipe,
    "raise_legs": _do_raise_legs,
    "latch_angle": _do_latch_angle,
    "extend_legs": _do_extend_legs,
    "latch_flat": _do_latch_flat,
    "unlatch_flat": _do_unlatch_flat,
    "retract_legs": _do_retract_legs,
    "unlatch_angle": _do_unlatch_angle,
    "exit_pipe": _do_exit_pipe,
}


def run_scenario(scenario: Scenario):
    """Execute a scenario. Returns (final unit, event log, verdict, traces)."""
    run = _Run(scenario=scenario, unit=scenario.robot)
    run.emit("scenario", f"start {scenario.name}")
    for index, step in enumerate(scenario.steps):
        before = run.unit
        before_t, before_log, before_traces = run.t, run.log, list(run.traces)
        try:
            _HANDLERS[step.action](run, step.parameters)
        except _StepFailure as failure:
            # Abort safety: surface the snapshot taken before the step.
            run.unit, run.t = before, before_t
            run.log, run.traces = before_log, before_traces
            run.emit("scenario", f"abort at step {index + 1} ({step.action}): "
                                 f"{failure.reason}")
            verdict = Verdict(passed=False, failed_step=index + 1,
                              failed_action=step.action, reason=failure.reason,
                              offending_leg=failure.leg)
            return before, run.log, verdict, tuple(run.traces)
    run.emit("scenario", f"complete {scenario.name}")
    return run.unit, run.log, Verdict(passed=True), tuple(run.traces)


# -- scenario files -----------------------------------------------------------

def validate(raw: Any) -> list[str]:
    """Static diagnostics for a parsed scenario document (no execution)."""
    diags: list[str] = []
    if not isinstance(raw, dict):
        return ["scenario document must be a JSON object"]
    kind = raw.get("type", "dewalop")
    if kind == "exo":
        from . import exo
        return exo.validate_config(raw)
    if kind != "dewalop":
        return [f"unknown scenario type {kind!r}"]
    if not raw.get("name"):
        diags.append("missing scenario name")
    pipe = raw.get("pipe", {})
    diameter = pipe.get("inner_diameter_m")
    if diameter is None:
        diags.append("missing pipe.inner_diameter_m")
    elif not (defaults.PIPE_DIAMETER_MIN <= diameter <= defaults.PIPE_DIAMETER_MAX):
        diags.append(f"pipe out of operating range: {diameter} m not in "
                     f"[{defaults.PIPE_DIAMETER_MIN}, {defaults.PIPE_DIAMETER_MAX}] m")
    dt = raw.get("dt_s", defaults.DEFAULT_DT)
    if not isinstance(dt, (int, float)) or dt <= 0:
        diags.append("non-positive timestep")
    steps = raw.get("steps", [])
    if not steps:
        diags.append("scenario has no steps")
    for i, step in enumerate(steps):
        action = step.get("action") if isinstance(step, dict) else None
        if action not in ACTIONS:
            diags.append(f"step {i + 1}: unknown action {action!r}")
            continue
        angle = step.get("angle_deg")
        if angle is not None and not (0 < angle < 90):
            diags.append(f"step {i + 1}: lowering angle {angle} deg out of (0, 90)")
    return diags


def build_scenario(raw: dict) -> Scenario:
    """Construct an executable scenario from a validated document."""
    diags = validate(raw)
    if diags:
        raise ValueError("; ".join(diags))
    pipe = PipeEnvironment(inner_diameter=raw["pipe"]["inner_diameter_m"])
    steps = []
    for step in raw["steps"]:
        params = {k: v for k, v in step.items() if k != "action"}
        if "angle_deg" in params:
            params["angle_rad"] = math.radians(params.pop("angle_deg"))
        steps.append(StepSpec(action=step["action"], parameters=params))
    return Scenario(name=raw["name"], robot=default_unit(), pipe=pipe,
                    steps=tuple(steps), dt=raw.get("dt_s", defaults.DEFAULT_DT))


def canonical_steps() -> list[dict]:
    """The published five-step insertion/reconfiguration procedure."""
    return [
        {"action": "lower_legs"},
        {"action": "move_into_pipe"},
        {"action": "raise_legs"},
        {"action": "latch_angle"},
        {"action": "extend_legs"},
        {"action": "latch_flat"},
    ]


def reverse_steps() -> list[dict]:
    return [
        {"action": "unlatch_flat"},
        {"action": "retract_legs"},
        {"action": "unlatch_angle"},
        {"action": "lower_legs"},
        {"action": "exit_pipe"},
    ]


def canonical_scenario(diameter_m: float = 0.800,
                       dt: float = defaults.DEFAULT_DT) -> Scenario:
    return build_scenario({
        "name": "canonical-insertion",
        "type": "dewalop",
        "pipe": {"inner_diameter_m": diameter_m},
        "dt_s": dt,
        "steps": canonical_steps(),
    })


def reverse_scenario(diameter_m: float = 0.800,
                     dt: float = defaults.DEFAULT_DT,
                     robot: MaintenanceUnit | None = None) -> Scenario:
    scenario = build_scenario({
        "name": "canonical-reverse",
        "type": "dewalop",
        "pipe": {"inner_diameter_m": diameter_m},
        "dt_s": dt,
        "steps": reverse_steps(),
    })
    if robot is not None:
        scenario = replace(scenario, robot=robot)
    return scenario
