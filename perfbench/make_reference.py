#!/usr/bin/env python3
"""Record the reference facts the output checker compares against.

Run from the repository root on the commit the benchmark was defined on:

    python3 perfbench/make_reference.py > perfbench/reference.json

It simulates every latch drive, hold power and safety-factor row that the
grids in ``grids.py`` can produce and stores the results. The checker
allows later commits to differ from these within stated tolerances.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import grids  # noqa: E402
from lammos import defaults, exo  # noqa: E402
from lammos.latch import Direction, DriveCommand, LatchState, run_until  # noqa: E402
from lammos.mechlib import (  # noqa: E402
    MaterialSpec, PlateSpec, plate_bending_safety_factor)


def drive_facts(fsm, direction, voltage, stop_state):
    final, trace, events = run_until(fsm, DriveCommand(voltage, direction),
                                     grids.DT, stop_state)
    states = []
    for s in trace.samples:
        if not states or states[-1] != s.state.value:
            states.append(s.state.value)
    facts = {
        "final_state": final.state.value,
        "samples": len(trace.samples),
        "duration_s": trace.duration,
        "events": [[t, ev.name] for t, ev in events],
        "states": states,
        "energy_J": trace.energy(lambda t: voltage, grids.DT),
    }
    return final, facts


def main():
    housed = defaults.default_latch_fsm()
    cw, ccw = {}, {}
    for v_cw in grids.CW_VOLTAGES:
        latched, cw[grids.cw_key(v_cw)] = drive_facts(
            housed, Direction.CLOCKWISE, v_cw, LatchState.LATCHED)
        for v_ccw in grids.CCW_VOLTAGES:
            _, ccw[grids.ccw_key(v_cw, v_ccw)] = drive_facts(
                latched, Direction.COUNTERCLOCKWISE, v_ccw, LatchState.HOUSED)

    motor = defaults.default_motor()
    stall = {f"{v:.1f}": motor.stall_torque(v) for v in grids.EXO_VOLTAGES}
    hold = {}
    for v in grids.EXO_VOLTAGES:
        for frac in grids.EXO_LOAD_FRACTIONS:
            joint = exo.ExoJoint(motor=motor, lock=housed, supply_voltage=v,
                                 standby_power=grids.EXO_STANDBY_W,
                                 load_torque=frac * stall[f"{v:.1f}"])
            hold[grids.hold_key(v, frac)] = exo.hold_power(joint)

    plate = PlateSpec()
    sf = {}
    for y in grids.SF_YIELDS_PA:
        for load in grids.SF_LOADS_N:
            r = plate_bending_safety_factor(
                plate, MaterialSpec(yield_strength=y), load, plate.length)
            sf[grids.sf_key(y, load)] = [r.bending_stress, r.safety_factor]

    json.dump({"cw": cw, "ccw": ccw, "stall_torque_Nm": stall,
               "hold_power_W": hold, "sf": sf}, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
