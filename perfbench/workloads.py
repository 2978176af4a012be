"""Seeded input generators for the three workloads.

Each generator yields blocks of operations. A block is the unit the run
loop stops on, so every run sees the same mix: one round trip, nine exo
sweeps of which exactly one never locks, or one batch of 36 preflight calls
of which 12 are malformed. Every operation carries the
result it should produce, derived from the generator's intent and the
reference facts recorded on the commit that defined the benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

import grids

WORKLOADS = ("insertion_roundtrip", "exo_sweep", "preflight_batch")

ROUNDTRIP_NAME = "bench-roundtrip"
PREFLIGHT_NAME = "bench-preflight"

# Events the scenario engine logs for each mechanical action.
MECH_EVENTS = {
    "lower_legs": "top legs lowered to 20.0 deg",
    "raise_legs": "top legs perpendicular to unit axis",
    "extend_legs": "wall press complete, unit centered",
    "retract_legs": "legs retracted",
    "exit_pipe": "robot outside the pipe",
}
# action -> (latch, direction, completion event)
LATCH_ACTIONS = {
    "latch_angle": ("angle", "cw", "all angle latches engaged"),
    "latch_flat": ("flat", "cw", "legs integrated into structure"),
    "unlatch_flat": ("flat", "ccw", "flat latches housed"),
    "unlatch_angle": ("angle", "ccw", "angle latches housed"),
}
LEG_IDS = ("top-0", "top-120", "top-240", "bottom-0", "bottom-120", "bottom-240")
LOWERED_CLEARANCE_MM = 116
RAISED_CLEARANCE_MM = -30


@dataclass
class Op:
    """One call that produces one user-visible result."""

    kind: str
    call: str                      # "cli" or "exo"
    expect: dict
    argv: list = field(default_factory=list)   # "{doc}" / "{out}" filled in
    doc: Optional[dict] = None     # document handed to the program
    malformed: bool = False        # boundary-contract probe


def _dewalop_doc(name, diameter_mm, steps):
    return {"name": name, "type": "dewalop",
            "pipe": {"inner_diameter_m": diameter_mm / 1000},
            "dt_s": grids.DT, "steps": steps}


def _clearance(diameter_mm, lowered):
    """Insertion clearance in mm; the 10 mm diameter grid keeps it whole."""
    base = LOWERED_CLEARANCE_MM if lowered else RAISED_CLEARANCE_MM
    return base + (diameter_mm - 800) // 2


def expected_run(name, diameter_mm, steps, ref, abort=None):
    """Expected verdict, event log, latch traces and final latch states.

    ``abort`` is (step number, reason, offending leg or None) for a step that
    must fail before it changes anything.
    """
    t = 0.0
    events = [[t, "scenario", f"start {name}"]]
    traces = []
    lowered = True
    latches = {"angle": "Housed", "flat": "Housed"}
    cw_voltage = {}
    for number, step in enumerate(steps, 1):
        action = step["action"]
        if abort and abort[0] == number:
            events.append([t, "scenario",
                           f"abort at step {number} ({action}): {abort[1]}"])
            verdict = {"passed": False, "step": number, "action": action,
                       "leg": abort[2]}
            break
        if action in MECH_EVENTS:
            lowered = {"lower_legs": True, "raise_legs": False}.get(action, lowered)
            t += 1.0
            events.append([t, action, MECH_EVENTS[action]])
        elif action == "move_into_pipe":
            clearance_mm = _clearance(diameter_mm, lowered)
            if clearance_mm < 0:
                events.append([t, action, "manual push 400 N per leg acknowledged"])
            t += 1.0
            events.append([t, action,
                           f"inserted with clearance {clearance_mm / 1000:.3f} m"])
        else:
            which, direction, done = LATCH_ACTIONS[action]
            voltage = step["voltage_V"]
            if direction == "cw":
                cw_voltage[which] = voltage
                facts = ref["cw"][grids.cw_key(voltage)]
                latches[which] = "Latched"
            else:
                facts = ref["ccw"][grids.ccw_key(cw_voltage[which], voltage)]
                latches[which] = "Housed"
            events += [[t + off, action, ev] for off, ev in facts["events"]]
            traces.append({"actor": action, "t0": t, "voltage": voltage,
                           "samples": facts["samples"], "states": facts["states"],
                           "energy_J": facts["energy_J"]})
            t += facts["duration_s"]
            events.append([t, action, done])
    else:
        events.append([t, "scenario", f"complete {name}"])
        verdict = {"passed": True}
    return {"exit": 0 if verdict["passed"] else 1, "name": name,
            "verdict": verdict, "events": events, "traces": traces,
            "final_latches": [[leg, latches["angle"], latches["flat"]]
                              for leg in LEG_IDS]}


def _run_op(kind, name, diameter_mm, steps, ref, abort=None):
    return Op(kind=kind, call="cli",
              argv=["run", "--config", "{doc}", "--out", "{out}"],
              doc=_dewalop_doc(name, diameter_mm, steps),
              expect=dict(expected_run(name, diameter_mm, steps, ref, abort),
                          type="run"))


# -- insertion_roundtrip ------------------------------------------------------

def _roundtrip_steps(v_angle, v_flat, v_unflat, v_unangle):
    return [
        {"action": "lower_legs"},
        {"action": "move_into_pipe"},
        {"action": "raise_legs"},
        {"action": "latch_angle", "voltage_V": v_angle},
        {"action": "extend_legs"},
        {"action": "latch_flat", "voltage_V": v_flat},
        {"action": "unlatch_flat", "voltage_V": v_unflat},
        {"action": "retract_legs"},
        {"action": "unlatch_angle", "voltage_V": v_unangle},
        {"action": "lower_legs"},
        {"action": "exit_pipe"},
    ]


def insertion_blocks(rng: random.Random, ref: dict) -> Iterator[list[Op]]:
    """One round trip per block. The flat latch mirrors the angle latch's
    grid index in each direction, so every trip drives about the same
    number of steps while all four voltages still vary with the seed."""
    last = len(grids.CW_VOLTAGES) - 1
    while True:
        i, j = rng.randint(0, last), rng.randint(0, last)
        steps = _roundtrip_steps(grids.CW_VOLTAGES[i], grids.CW_VOLTAGES[last - i],
                                 grids.CCW_VOLTAGES[j], grids.CCW_VOLTAGES[last - j])
        yield [_run_op("roundtrip", ROUNDTRIP_NAME,
                       rng.choice(grids.DIAMETERS_MM), steps, ref)]


# -- exo_sweep ----------------------------------------------------------------

def _exo_doc(rng, ref, locks=True):
    voltage = rng.choice(grids.EXO_VOLTAGES)
    fraction = rng.choice(grids.EXO_LOAD_FRACTIONS)
    hold = rng.choice(grids.EXO_HOLD_S)
    load = fraction * ref["stall_torque_Nm"][f"{voltage:.1f}"]
    doc = {"name": "exo-sweep", "type": "exo", "supply_voltage_V": voltage,
           "standby_power_W": grids.EXO_STANDBY_W, "end_time_s": hold,
           "dt_s": grids.DT, "load_timeline": [{"t_s": 0.0, "load_Nm": load}]}
    if locks:
        doc["lock_at_s"] = rng.choice(grids.EXO_LOCK_FRACTIONS) * hold
    return doc, grids.hold_key(voltage, fraction)


def expected_exo(doc, hold_key, ref):
    power = ref["hold_power_W"][hold_key]
    end = doc["end_time_s"]
    held = power * end
    lock_at = doc.get("lock_at_s")
    if lock_at is None:
        return {"held": held, "locked": held, "latch": 0.0, "savings": 0.0}
    latch = ref["cw"][grids.cw_key(3.0)]["energy_J"]
    locked = power * lock_at + doc["standby_power_W"] * (end - lock_at) + latch
    return {"held": held, "locked": locked, "latch": latch,
            "savings": held - locked}


EXO_BLOCK = 9
EXO_UNLOCKED = 1  # ops per block that leave lock_at_s unset (11%)


def exo_blocks(rng: random.Random, ref: dict) -> Iterator[list[Op]]:
    """Blocks of nine in seeded order; exactly one leaves lock_at_s unset.

    The repository's own exo callers (scripts/exo_lock_study.py and
    scenarios/exo_hold_600s.json) always lock, so nearly every op does; the
    one unset op per block keeps the hold-only path covered."""
    while True:
        unlocked = set(rng.sample(range(EXO_BLOCK), EXO_UNLOCKED))
        block = []
        for i in range(EXO_BLOCK):
            doc, key = _exo_doc(rng, ref, locks=i not in unlocked)
            block.append(Op(kind="exo_unlocked" if i in unlocked else "exo_locked",
                            call="exo", doc=doc,
                            expect=dict(expected_exo(doc, key, ref), type="exo")))
        yield block


# -- preflight_batch ----------------------------------------------------------

def _check_op(kind, doc, exit_code, diag_keywords=(), malformed=False):
    return Op(kind=kind, call="cli", argv=["check", "{doc}"], doc=doc,
              malformed=malformed,
              expect={"type": "check", "exit": exit_code,
                      "diags": list(diag_keywords)})


def _malformed_run(kind, doc, extra=()):
    return Op(kind=kind, call="cli", malformed=True, doc=doc,
              argv=["run", "--config", "{doc}", "--out", "{out}", *extra],
              expect={"type": "run", "exit": 2})


MECH_ONLY = ["lower_legs", "move_into_pipe", "raise_legs", "extend_legs",
             "retract_legs", "lower_legs", "exit_pipe"]


def _steps(*actions):
    return [{"action": a} for a in actions]


def _well_formed(rng, ref):
    d = rng.choice(grids.DIAMETERS_MM)
    narrow = rng.choice([mm for mm in grids.DIAMETERS_MM if mm < 860])
    exo_doc, _ = _exo_doc(rng, ref, locks=rng.random() < 0.75)
    bad_d = rng.choice((0.5, 0.6, 0.7, 1.1, 1.2, 1.5))
    bad_angle = rng.choice((95, 120, -5, 0, 90))
    loads = rng.sample(grids.SF_LOADS_N, rng.randint(1, 4))
    yield_pa = rng.choice(grids.SF_YIELDS_PA)
    name = PREFLIGHT_NAME
    pushed = [{"action": "raise_legs"},
              {"action": "move_into_pipe", "acknowledge_push_force": True},
              {"action": "extend_legs"}, {"action": "exit_pipe"}]
    canonical = _roundtrip_steps(3.0, 3.0, 6.0, 6.0)
    bad_pipe = _dewalop_doc(name, 800, _steps("lower_legs", "move_into_pipe"))
    bad_pipe["pipe"]["inner_diameter_m"] = bad_d
    bad_steps = _dewalop_doc(name, d, [
        {"action": rng.choice(("fly", "jump", "dig"))},
        {"action": "lower_legs", "angle_deg": bad_angle}])
    return [
        _check_op("check_dewalop", _dewalop_doc(name, d, canonical), 0),
        _check_op("check_exo", exo_doc, 0),
        _check_op("check_pipe_range", bad_pipe, 1, ["pipe out of operating range"]),
        _check_op("check_steps", bad_steps, 1, ["unknown action", "lowering angle"]),
        _run_op("run_mechanical", name, d, _steps(*MECH_ONLY), ref),
        _run_op("run_pushed", name, narrow, pushed, ref),
        _run_op("abort_ordering", name, d,
                _steps("lower_legs", "move_into_pipe", "latch_angle", "extend_legs"),
                ref, abort=(3, "hinge not perpendicular", "top-0")),
        _run_op("abort_unpushed", name, narrow,
                _steps("raise_legs", "move_into_pipe", "exit_pipe"), ref,
                abort=(2, f"clearance {_clearance(narrow, False) / 1000:.3f} m "
                          "requires acknowledged push force", None)),
        _run_op("abort_uncentered", name, d,
                _steps("lower_legs", "move_into_pipe", "raise_legs", "latch_flat"),
                ref, abort=(4, "unit not centered; wall press required before "
                               "latching", None)),
        _run_op("abort_not_latched", name, d,
                _steps("lower_legs", "move_into_pipe", "raise_legs", "unlatch_flat"),
                ref, abort=(4, "flat latch not engaged", "top-0")),
        _run_op("abort_outside", name, d, _steps("exit_pipe", "lower_legs"), ref,
                abort=(1, "robot is not inside the pipe", None)),
        Op(kind="sf", call="cli",
           argv=["sf", "--load", *(f"{x:g}" for x in loads),
                 "--yield", f"{yield_pa:g}"],
           expect={"type": "sf", "exit": 0,
                   "rows": [[x, *ref["sf"][grids.sf_key(yield_pa, x)]]
                            for x in loads]}),
    ]


def _malformed(rng, ref):
    """Boundary inputs that should exit 2 (usage error) under the exit-code
    contract; on the seed code each one crashes or returns another code."""
    d = rng.choice(grids.DIAMETERS_MM)
    mech = _dewalop_doc(PREFLIGHT_NAME, d, _steps(*MECH_ONLY))
    exo_doc, _ = _exo_doc(rng, ref)
    load = exo_doc["load_timeline"][0]["load_Nm"]
    over_voltage = _roundtrip_steps(3.0, 3.0, 6.0, 6.0)
    over_voltage[3]["voltage_V"] = rng.choice((7.0, 2.5))

    def check(kind, doc):
        return _check_op(kind, doc, 2, malformed=True)
    return [
        check("bad_pipe_type", {**mech, "pipe": [d / 1000]}),
        check("bad_diameter_type", {**mech, "pipe": {"inner_diameter_m": str(d / 1000)}}),
        check("bad_angle_type", {**mech, "steps": [
            {"action": "lower_legs", "angle_deg": "20"}]}),
        check("bad_load_type", {**exo_doc, "load_timeline": [
            {"t_s": 0.0, "load_Nm": str(load)}]}),
        check("bad_voltage_type",
              {**exo_doc, "supply_voltage_V": str(exo_doc["supply_voltage_V"])}),
        check("bad_lock_type", {**exo_doc, "lock_at_s": "5"}),
        check("bad_steps_type", {**mech, "steps": "lower_legs"}),
        _malformed_run("bad_step_voltage",
                       _dewalop_doc(PREFLIGHT_NAME, d, over_voltage)),
        _malformed_run("bad_exo_dt", {**exo_doc, "dt_s": -0.001, "lock_at_s": 0.0}),
        _malformed_run("bad_dt_zero", mech, ("--dt", "0")),
        _malformed_run("bad_dt_nan", mech, ("--dt", "nan")),
        _malformed_run("bad_name_path", {**mech, "name": "../escape"}),
    ]


def preflight_blocks(rng: random.Random, ref: dict) -> Iterator[list[Op]]:
    """36 calls per block: 12 well-formed kinds twice and 12 malformed once."""
    while True:
        block = _well_formed(rng, ref) + _well_formed(rng, ref) + _malformed(rng, ref)
        rng.shuffle(block)
        yield block


GENERATORS = {"insertion_roundtrip": insertion_blocks, "exo_sweep": exo_blocks,
              "preflight_batch": preflight_blocks}


def blocks(workload: str, seed: int, ref: dict) -> Iterator[list[Op]]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), ref)
