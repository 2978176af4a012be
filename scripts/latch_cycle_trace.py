#!/usr/bin/env python3
"""Simulate one full latch/unlatch cycle and dump its current trace.

Reproduces the characteristic current-vs-time shape: low current while the
screw follows the flexible nut, a rise while tightening at 3 V, then the
breakaway peak at the start of counterclockwise drive at 6 V.

Usage: python3 scripts/latch_cycle_trace.py [output.csv]
"""

import sys

from lammos import defaults
from lammos.latch import (
    TRACE_CSV_HEADER,
    Direction,
    DriveCommand,
    LatchState,
    run_until,
)


def main():
    out = sys.argv[1] if len(sys.argv) > 1 else "latch_cycle_trace.csv"
    fsm = defaults.default_latch_fsm()
    dt = defaults.DEFAULT_DT

    cw = DriveCommand(defaults.LATCH_VOLTAGE, Direction.CLOCKWISE)
    latched, latch_trace, latch_events = run_until(fsm, cw, dt,
                                                   LatchState.LATCHED)
    ccw = DriveCommand(defaults.UNLATCH_VOLTAGE, Direction.COUNTERCLOCKWISE)
    housed, unlatch_trace, unlatch_events = run_until(
        latched, ccw, dt, LatchState.HOUSED, t0=latch_trace.duration)

    peak = max(unlatch_trace.current)
    print(f"latch at {defaults.LATCH_VOLTAGE} V:   "
          f"{latch_trace.duration:.2f} s, "
          f"final current {latch_trace.current[-1] * 1000:.0f} mA")
    print(f"unlatch at {defaults.UNLATCH_VOLTAGE} V: "
          f"{unlatch_trace.duration - latch_trace.duration:.2f} s, "
          f"breakaway peak {peak * 1000:.0f} mA")
    for t, event in latch_events + unlatch_events:
        print(f"  t={t:8.3f} s  {event.name}")

    with open(out, "w") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        latch_trace.write_csv(fh)
        unlatch_trace.write_csv(fh)
    print(f"trace written to {out}")


if __name__ == "__main__":
    main()
