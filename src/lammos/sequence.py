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
    LATCH_TIMEOUT,
    CurrentTrace,
    Direction,
    DriveCommand,
    LatchFsm,
    LatchState,
    can_latch,
    can_unlatch,
    check_dt,
    run_until,
)
from .mechlib import csv_number

# Wall-clock allotted to purely mechanical (non-latch) actions in the log.
MECHANICAL_ACTION_DURATION = 1.0  # s


@dataclass(frozen=True)
class StepSpec:
    action: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        for name in self.parameters:
            if name not in _ACTIONS[self.action][1]:
                raise ValueError(f"{self.action} does not read {name!r}")
        angle = self.parameters.get("angle_deg")
        if angle is not None and not (0 < angle < 90):
            raise ValueError(f"lowering angle {angle} deg out of (0, 90)")
        if "voltage_V" in self.parameters:
            voltage = self.parameters["voltage_V"]
            cw = _ACTIONS[self.action][2] is Direction.CLOCKWISE
            # Raises VoltageRangeError outside the motor's characterized range.
            if not (can_latch if cw else can_unlatch)(voltage):
                raise ValueError(f"{self.action} at {voltage} V never " + (
                    "latches: the tightening current stays below threshold"
                    if cw else "unlatches: the stall torque stays below the "
                    "breakaway torque"))


def _check_name(name: str) -> None:
    """The rule on the name of every scenario, which names its files."""
    if not (name and name.isprintable() and "/" not in name):
        raise ValueError(f"scenario name {name!r} must be non-empty and "
                         "printable, without '/'")


def _check_steps(steps) -> None:
    """The rule that a procedure has at least one step."""
    if not steps:
        raise ValueError("scenario has no steps")


@dataclass(frozen=True)
class Scenario:
    """A procedure for the maintenance unit, from ``default_unit()``."""

    name: str
    pipe: PipeEnvironment
    steps: tuple[StepSpec, ...]
    dt: float = defaults.DEFAULT_DT

    def __post_init__(self):
        _check_steps(self.steps)
        _check_name(self.name)
        check_dt(self.dt)


@dataclass(frozen=True)
class ExoScenario:
    """A joint-lock study: the joint, its load timeline and when it locks."""

    name: str
    joint: "exo.ExoJoint"
    timeline: "exo.LoadTimeline"
    lock_at: Optional[float]
    dt: float = defaults.DEFAULT_DT

    def __post_init__(self):
        _check_name(self.name)
        check_dt(self.dt)


@dataclass(frozen=True)
class EventEntry:
    t: float
    actor: str
    event: str
    snapshot_hash: str


@dataclass(frozen=True)
class EventLog:
    entries: tuple[EventEntry, ...] = ()

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
    """Mutable bookkeeping for one scenario execution. ``entries`` and
    ``traces`` only grow, except that a failed step cuts them back."""

    scenario: Scenario
    unit: MaintenanceUnit
    t: float = 0.0
    entries: list[EventEntry] = field(default_factory=list)
    traces: list[tuple[str, CurrentTrace]] = field(default_factory=list)

    def emit(self, actor: str, event: str, t: Optional[float] = None):
        """Log an event at ``t`` (default: now) against the current unit."""
        t = self.t if t is None else t
        if self.entries and t < self.entries[-1].t:
            raise ValueError("event log timestamps must be non-decreasing")
        self.entries.append(EventEntry(t=t, actor=actor, event=event,
                                       snapshot_hash=snapshot_hash(self.unit)))


class _StepFailure(Exception):
    def __init__(self, reason: str, leg: Optional[str] = None):
        super().__init__(reason)
        self.reason = reason
        self.leg = leg


def _drive_latches(run: _Run, which: str, params: dict, actor: str):
    """Drive every leg's selected latch as ``actor``'s row in ``_ACTIONS``
    says: clockwise to Latched, counterclockwise to Housed.

    Each distinct starting latch is driven once, in leg order (every latch
    is the one mechanism, so legs that start alike end alike). The first
    leg's drive is logged; the clock advances by the longest drive.
    """
    direction = _ACTIONS[actor][2]
    cw = direction is Direction.CLOCKWISE
    stop_state = LatchState.LATCHED if cw else LatchState.HOUSED
    cmd = DriveCommand(params.get("voltage_V", defaults.LATCH_VOLTAGE if cw
                                  else defaults.UNLATCH_VOLTAGE), direction)
    drives: dict[LatchFsm, tuple] = {}
    for leg in run.unit.legs:
        fsm = getattr(leg, which)
        if fsm not in drives:
            drives[fsm] = run_until(fsm, cmd, run.scenario.dt, stop_state,
                                    t0=run.t)
        if drives[fsm][0].state is not stop_state:
            raise _StepFailure(
                f"{which} did not reach {stop_state.value} within "
                f"{LATCH_TIMEOUT:.0f} s", leg=leg.leg_id)
    run.unit = replace(run.unit, legs=tuple(
        replace(leg, **{which: drives[getattr(leg, which)][0]})
        for leg in run.unit.legs))
    _, trace, events = next(iter(drives.values()))
    run.traces.append((actor, trace))
    for t_event, ev in events:
        run.emit(actor, ev.name, t_event)
    # Floored: a drive already at its target takes no step and ends at t0.
    run.t += max(0.0, *(drive[1].duration - run.t
                        for drive in drives.values()))


def _turn_top_legs(run: _Run, angle: float):
    """Turn every top leg about its hinge to ``angle`` (0: perpendicular)."""
    for leg in run.unit.ring_legs("top"):
        try:
            run.unit = run.unit.with_leg(lower_leg(leg, angle))
        except LegStateError as exc:
            raise _StepFailure(str(exc), leg=leg.leg_id)
    run.t += MECHANICAL_ACTION_DURATION


def _do_lower_legs(run: _Run, params: dict):
    angle = (math.radians(params["angle_deg"]) if "angle_deg" in params
             else defaults.LOWERING_ANGLE)
    _turn_top_legs(run, angle)
    run.emit("lower_legs", f"top legs lowered to {math.degrees(angle):.1f} deg")


def _do_move_into_pipe(run: _Run, params: dict):
    lowered = all(l.hinge_angle != 0.0 for l in run.unit.ring_legs("top"))
    clearance = insertion_clearance(run.scenario.pipe, lowered)
    if clearance < 0:
        if not params.get("acknowledge_push_force", False):
            raise _StepFailure(
                f"clearance {clearance:.3f} m requires acknowledged push force")
        try:
            force = insertion_force_required(run.scenario.pipe, lowered)
        except InsertionError as exc:
            raise _StepFailure(str(exc))
        run.emit("move_into_pipe", f"manual push {force:.0f} N per leg acknowledged")
    run.unit = replace(run.unit, in_pipe=True)
    run.t += MECHANICAL_ACTION_DURATION
    run.emit("move_into_pipe", f"inserted with clearance {clearance:.3f} m")


def _do_raise_legs(run: _Run, params: dict):
    _turn_top_legs(run, 0.0)
    run.emit("raise_legs", "top legs perpendicular to unit axis")


def _do_latch_angle(run: _Run, params: dict):
    for leg in run.unit.legs:
        if leg.hinge_angle != 0.0:
            raise _StepFailure("hinge not perpendicular", leg=leg.leg_id)
    _drive_latches(run, "angle_latch", params, "latch_angle")
    run.emit("latch_angle", "all angle latches engaged")


def _do_extend_legs(run: _Run, params: dict):
    try:
        run.unit = wall_press(run.unit, run.scenario.pipe)
    except LegStateError as exc:
        raise _StepFailure(str(exc))
    run.t += MECHANICAL_ACTION_DURATION
    run.emit("extend_legs", "wall press complete, unit centered")


def _do_latch_flat(run: _Run, params: dict):
    if not run.unit.centered:
        raise _StepFailure("unit not centered; wall press required before latching")
    _drive_latches(run, "flat_latch", params, "latch_flat")
    run.emit("latch_flat", "legs integrated into structure")


def _do_unlatch_flat(run: _Run, params: dict):
    for leg in run.unit.legs:
        if leg.flat_latch.state is not LatchState.LATCHED:
            raise _StepFailure("flat latch not engaged", leg=leg.leg_id)
    _drive_latches(run, "flat_latch", params, "unlatch_flat")
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
    _drive_latches(run, "angle_latch", params, "unlatch_angle")
    run.emit("unlatch_angle", "angle latches housed")


def _do_exit_pipe(run: _Run, params: dict):
    if not run.unit.in_pipe:
        raise _StepFailure("robot is not inside the pipe")
    run.unit = replace(run.unit, in_pipe=False)
    run.t += MECHANICAL_ACTION_DURATION
    run.emit("exit_pipe", "robot outside the pipe")


# Every action: its handler, the JSON kind (as in ``_SHAPES``) of each step
# parameter it reads, and the direction a latch action drives.
_VOLTAGE = {"voltage_V": float}
_ACTIONS = {
    "lower_legs": (_do_lower_legs, {"angle_deg": float}, None),
    "move_into_pipe": (_do_move_into_pipe, {"acknowledge_push_force": bool}, None),
    "raise_legs": (_do_raise_legs, {}, None),
    "latch_angle": (_do_latch_angle, _VOLTAGE, Direction.CLOCKWISE),
    "extend_legs": (_do_extend_legs, {}, None),
    "latch_flat": (_do_latch_flat, _VOLTAGE, Direction.CLOCKWISE),
    "unlatch_flat": (_do_unlatch_flat, _VOLTAGE, Direction.COUNTERCLOCKWISE),
    "retract_legs": (_do_retract_legs, {}, None),
    "unlatch_angle": (_do_unlatch_angle, _VOLTAGE, Direction.COUNTERCLOCKWISE),
    "exit_pipe": (_do_exit_pipe, {}, None),
}


def run_scenario(scenario: Scenario):
    """Execute a scenario. Returns (final unit, event log, verdict, traces)."""
    run = _Run(scenario=scenario, unit=default_unit())
    run.emit("scenario", f"start {scenario.name}")
    verdict = Verdict(passed=True)
    for number, step in enumerate(scenario.steps, 1):
        before = run.unit, run.t, len(run.entries), len(run.traces)
        try:
            _ACTIONS[step.action][0](run, step.parameters)
        except _StepFailure as failure:
            # Abort safety: undo the step, back to the snapshot before it.
            run.unit, run.t, logged, traced = before
            del run.entries[logged:], run.traces[traced:]
            run.emit("scenario", f"abort at step {number} ({step.action}): "
                                 f"{failure.reason}")
            verdict = Verdict(passed=False, failed_step=number,
                              failed_action=step.action, reason=failure.reason,
                              offending_leg=failure.leg)
            break
    else:
        run.emit("scenario", f"complete {scenario.name}")
    return run.unit, EventLog(tuple(run.entries)), verdict, tuple(run.traces)


# -- scenario files -----------------------------------------------------------

# A document's shape: an object maps its keys to shapes, a one-item list is a
# list of that shape, and a type (or a tuple of types) is a JSON value; float
# stands for any finite number. A step's keys are those some action reads.
_COMMON = {"name": str, "type": str, "dt_s": float}
_STEP_PARAMETERS = {name: kind for _, reads, _ in _ACTIONS.values()
                    for name, kind in reads.items()}
_SHAPES = {
    "dewalop": {**_COMMON, "pipe": {"inner_diameter_m": float},
                "steps": [{"action": str, **_STEP_PARAMETERS}]},
    "exo": {**_COMMON, "supply_voltage_V": float, "standby_power_W": float,
            "end_time_s": float, "lock_at_s": (float, type(None)),
            "load_timeline": [{"t_s": float, "load_Nm": float}]},
}
_OPTIONAL = {"type", "dt_s", *_STEP_PARAMETERS, "supply_voltage_V",
             "standby_power_W", "lock_at_s"}
_KIND_NAMES = {float: "a finite number", str: "a string", bool: "true or false",
               type(None): "null"}


def _shape_errors(value, shape, path: str) -> list[str]:
    """Where ``value``, at JSON path ``path``, breaks ``shape``."""
    if isinstance(shape, list):
        if type(value) is not list:
            return [f"{path}: expected a list"]
        return [error for i, item in enumerate(value)
                for error in _shape_errors(item, shape[0], f"{path}[{i}]")]
    if isinstance(shape, dict):
        if type(value) is not dict:
            return [f"{path}: expected an object"]
        errors = [f"{path}: unknown key {key!r}" for key in value
                  if key not in shape]
        for key, sub in shape.items():
            if key in value:
                errors += _shape_errors(value[key], sub, f"{path}.{key}")
            elif key not in _OPTIONAL:
                errors.append(f"{path}.{key}: missing")
        return errors
    kinds = shape if isinstance(shape, tuple) else (shape,)
    kind = float if type(value) is int else type(value)
    if kind in kinds and (kind is not float or abs(value) < 1e300):
        return []  # a number must be finite and far from overflow
    return [f"{path}: expected {' or '.join(map(_KIND_NAMES.get, kinds))}"]


def _build(diags: list[str], prefix: str, make, *args):
    """``make(*args)``, or None with its ValueError's args in ``diags``."""
    try:
        return make(*args)
    except ValueError as exc:
        diags += [prefix + str(arg) for arg in exc.args]


def parse(raw: Any, dt: Optional[float] = None):
    """Check a scenario document and build its frozen config.

    Returns (config, diagnostics, usage). ``usage`` holds the JSON type and
    shape errors, each with its path, and stops the build; ``diagnostics``
    each domain rule broken, as its constructor words it. The name, dt and
    step count are checked apart from the other rules, so each is reported
    alongside them. ``config``, a Scenario or an ExoScenario, is None unless
    both lists are empty. ``dt`` overrides the document's ``dt_s``.
    """
    kind = raw.get("type", "dewalop") if type(raw) is dict else "dewalop"
    usage = (_shape_errors(raw, _SHAPES[kind], "$") if kind in ("dewalop", "exo")
             else [f"$.type: unknown scenario type {kind!r}"])
    if usage:
        return None, [], usage
    dt = raw.get("dt_s", defaults.DEFAULT_DT) if dt is None else dt
    diags: list[str] = []
    _build(diags, "", _check_name, raw["name"])
    _build(diags, "", check_dt, dt)
    if kind == "exo":
        from . import exo
        make, parts = ExoScenario, _build(diags, "", exo.build_joint, raw)
    else:
        pipe = _build(diags, "", PipeEnvironment,
                      raw["pipe"]["inner_diameter_m"])
        _build(diags, "", _check_steps, raw["steps"])
        steps = tuple(
            _build(diags, f"step {i}: ", StepSpec, step["action"],
                   {k: v for k, v in step.items() if k != "action"})
            for i, step in enumerate(raw["steps"], 1))
        make, parts = Scenario, (pipe, steps)
    config = (None if diags
              else _build(diags, "", make, raw["name"], *parts, dt))
    return config, diags, []


def validate(raw: Any) -> list[str]:
    """Every problem ``parse`` finds in a scenario document."""
    _, diags, usage = parse(raw)
    return usage + diags
