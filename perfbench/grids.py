"""Parameter grids shared by the input generator and the reference recorder.

Every seeded input is drawn from these grids, so each latch drive, hold
power and safety-factor row a workload can produce has a recorded
reference value in ``reference.json``.
"""

DT = 0.001  # s, the default timestep users run

# Clockwise (latching) drives complete on the seed code for 3.0 to 3.4 V;
# at 3.45 V the tightening current never reaches the threshold.
CW_VOLTAGES = tuple(round(3.0 + 0.05 * i, 2) for i in range(9))
# Counterclockwise drives complete from about 4.5 V; 4.0 V times out.
# The range is kept narrow so every round trip costs about the same.
CCW_VOLTAGES = tuple(round(5.0 + 0.125 * i, 3) for i in range(9))

# Pipe diameters on a 10 mm grid, so every clearance is a whole millimetre.
DIAMETERS_MM = tuple(range(800, 1001, 10))

EXO_VOLTAGES = (3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0)
EXO_LOAD_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
EXO_HOLD_S = (10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1200.0, 1800.0)
EXO_LOCK_FRACTIONS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
EXO_STANDBY_W = 0.1

SF_LOADS_N = tuple(250.0 * i for i in range(1, 21))
SF_YIELDS_PA = (250e6, 355e6)


def cw_key(v_cw: float) -> str:
    return f"{v_cw:.2f}"


def ccw_key(v_cw: float, v_ccw: float) -> str:
    return f"{v_cw:.2f}>{v_ccw:.3f}"


def hold_key(voltage: float, fraction: float) -> str:
    return f"{voltage:.1f}|{fraction:.1f}"


def sf_key(yield_pa: float, load: float) -> str:
    return f"{yield_pa:g}|{load:g}"
