"""Drivetrain and structural element models: motor operating points, the
screw's back-drive torque (its self-lock), bracket/T-slot load envelopes
and plate bending safety factors. The screw and the seating spring are
constants in ``defaults``.

Unit conventions: SI throughout (m, N, N*m, Pa, A, V). Motor speeds are
rev/s at the gearbox output. Catalog values quoted in g*cm are converted
once, at construction, with standard gravity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

STANDARD_GRAVITY = 9.80665  # m/s^2

TSLOT_MAX_FORCE_N = 5000.0  # inclusive holding limit of the profile nut
CSV_NUMBER = "%.9g"  # the number format of every CSV artifact


class VoltageRangeError(ValueError):
    """Supply voltage outside the motor's characterized anchor range."""


def csv_number(x: float) -> str:
    """``x`` in ``CSV_NUMBER``: nine significant digits."""
    return CSV_NUMBER % x


def gram_cm_to_newton_m(torque_gcm: float) -> float:
    """Convert a g*cm torque rating to N*m."""
    return torque_gcm * 1e-5 * STANDARD_GRAVITY


def _as_sorted_anchors(points) -> tuple[tuple[float, float], ...]:
    pts = tuple((float(v), float(x)) for v, x in points)
    if len(pts) < 2:
        raise ValueError("need at least two voltage anchors")
    voltages = [v for v, _ in pts]
    if voltages != sorted(set(voltages)):
        raise ValueError("anchors must be sorted by strictly increasing voltage")
    return pts


def _interp(points: tuple[tuple[float, float], ...], voltage: float) -> float:
    lo, hi = points[0][0], points[-1][0]
    if not (lo <= voltage <= hi):
        raise VoltageRangeError(
            f"voltage {voltage} V outside characterized range [{lo}, {hi}] V"
        )
    for (v0, x0), (v1, x1) in zip(points, points[1:]):
        if v0 <= voltage <= v1:
            f = (voltage - v0) / (v1 - v0)
            return x0 + f * (x1 - x0)


@dataclass(frozen=True)
class MotorSpec:
    """Micro geared motor characterized by anchor points over voltage."""

    stall_torque_points: tuple[tuple[float, float], ...]  # (V, N*m at output)
    free_speed_points: tuple[tuple[float, float], ...]    # (V, rev/s at output)
    stall_current_points: tuple[tuple[float, float], ...] # (V, A)
    no_load_current: float  # A

    def __post_init__(self):
        object.__setattr__(self, "stall_torque_points",
                           _as_sorted_anchors(self.stall_torque_points))
        object.__setattr__(self, "free_speed_points",
                           _as_sorted_anchors(self.free_speed_points))
        object.__setattr__(self, "stall_current_points",
                           _as_sorted_anchors(self.stall_current_points))
        if any(t <= 0 for _, t in self.stall_torque_points):
            raise ValueError("stall torque must be strictly positive at every anchor")
        if any(s <= 0 for _, s in self.free_speed_points):
            raise ValueError("free speed must be strictly positive at every anchor")
        if self.no_load_current < 0:
            raise ValueError("no-load current must be non-negative")

    def stall_torque(self, voltage: float) -> float:
        return _interp(self.stall_torque_points, voltage)

    def free_speed(self, voltage: float) -> float:
        return _interp(self.free_speed_points, voltage)

    def stall_current(self, voltage: float) -> float:
        return _interp(self.stall_current_points, voltage)


@dataclass(frozen=True)
class OperatingPoint:
    speed: float    # rev/s at gearbox output
    current: float  # A
    stalled: bool


def motor_line(motor: MotorSpec,
               supply_voltage: float) -> tuple[float, float, float]:
    """Stall torque, free speed and stall current at one supply voltage."""
    return (motor.stall_torque(supply_voltage),
            motor.free_speed(supply_voltage),
            motor.stall_current(supply_voltage))


def line_point(motor: MotorSpec, line: tuple[float, float, float],
               load_torque: float) -> tuple[float, float]:
    """Speed and current at a load on a line resolved by ``motor_line``."""
    stall, free, i_stall = line
    frac = load_torque / stall
    speed = max(0.0, free * (1.0 - frac))
    current = min(i_stall,
                  motor.no_load_current + (i_stall - motor.no_load_current) * frac)
    return speed, current


def motor_operating_point(motor: MotorSpec, supply_voltage: float,
                          load_torque: float) -> OperatingPoint:
    """Quasi-static operating point on the linear torque-speed line."""
    if load_torque < 0:
        raise ValueError("load torque must be non-negative")
    line = motor_line(motor, supply_voltage)
    speed, current = line_point(motor, line, load_torque)
    return OperatingPoint(speed=speed, current=current,
                          stalled=load_torque >= line[0])


def screw_back_drive_torque(axial_force: float, nominal_diameter: float,
                            lead: float, mu: float) -> float:
    """Torque an axial push can induce on a screw through its thread, at a
    mean diameter of 0.9 times the nominal one.

    Zero for self-locking threads (friction term dominates the lead).
    """
    if axial_force < 0:
        raise ValueError("axial force must be non-negative")
    d_m = 0.9 * nominal_diameter
    torque = (axial_force * d_m / 2.0
              * (lead - math.pi * mu * d_m) / (math.pi * d_m + mu * lead))
    return max(0.0, torque)


@dataclass(frozen=True)
class BracketSpec:
    """Right-angle or flat bracket with a force/moment load envelope."""

    designation: str
    max_force: float   # N, strict limit
    max_moment: float  # N*m, strict limit

    def __post_init__(self):
        if self.max_force <= 0 or self.max_moment <= 0:
            raise ValueError("bracket limits must be strictly positive")


# Catalog envelopes for the right-angle brackets used on the wheeled-legs.
BRACKET_40X40 = BracketSpec("40x40", max_force=1000.0, max_moment=50.0)
BRACKET_80X80 = BracketSpec("80x80", max_force=2000.0, max_moment=150.0)
BRACKET_160X80 = BracketSpec("160x80", max_force=2000.0, max_moment=150.0)


@dataclass(frozen=True)
class LoadVerdict:
    passed: bool
    governing_constraint: str  # force-limit | moment-limit | tslot-limit
    margin: float              # ratio of limit to applied value


def check_bracket_load(bracket: BracketSpec, force: float,
                       lever_arm: float) -> LoadVerdict:
    """Check a force/lever pair against the bracket envelope (strict limits)."""
    if force < 0 or lever_arm < 0:
        raise ValueError("force and lever arm must be non-negative")
    force_margin = bracket.max_force / force if force > 0 else math.inf
    moment = force * lever_arm
    moment_margin = bracket.max_moment / moment if moment > 0 else math.inf
    if moment_margin < force_margin:
        governing, margin = "moment-limit", moment_margin
    else:
        governing, margin = "force-limit", force_margin
    passed = force < bracket.max_force and moment < bracket.max_moment
    return LoadVerdict(passed=passed, governing_constraint=governing, margin=margin)


def check_tslot_holding(force: float) -> LoadVerdict:
    """Check a pull-out force against the T-slot nut limit (inclusive)."""
    if force < 0:
        raise ValueError("force must be non-negative")
    margin = TSLOT_MAX_FORCE_N / force if force > 0 else math.inf
    return LoadVerdict(passed=force <= TSLOT_MAX_FORCE_N,
                       governing_constraint="tslot-limit", margin=margin)


@dataclass(frozen=True)
class PlateSpec:
    """Rectangular plate loaded as a cantilever, bent about its thickness."""

    length: float = 0.116
    height: float = 0.040
    thickness: float = 0.009

    def __post_init__(self):
        if not all(0 < x < math.inf
                   for x in (self.length, self.height, self.thickness)):
            raise ValueError("plate dimensions must be finite and positive")
        try:
            finite = 0.0 < self.section_modulus < math.inf
        except OverflowError:  # height ** 2 past the largest float
            finite = False
        if not finite:
            raise ValueError("plate section modulus must be finite and non-zero")

    @property
    def section_modulus(self) -> float:
        return self.thickness * self.height ** 2 / 6.0


@dataclass(frozen=True)
class MaterialSpec:
    yield_strength: float = 250e6  # Pa, mild steel

    def __post_init__(self):
        if not (0 < self.yield_strength < math.inf):
            raise ValueError("yield strength must be finite and positive")


@dataclass(frozen=True)
class SafetyResult:
    bending_stress: float  # Pa
    safety_factor: float   # < 1 flags failure

    @property
    def failed(self) -> bool:
        return self.safety_factor < 1.0


def plate_bending_safety_factor(plate: PlateSpec, material: MaterialSpec,
                                load: float, lever_arm: float) -> SafetyResult:
    """Beam-theory bending check: sigma = F*l/Z, SF = yield/sigma."""
    if load <= 0:
        raise ValueError("load must be strictly positive (SF undefined at zero)")
    if lever_arm <= 0:
        raise ValueError("lever arm must be strictly positive")
    stress = load * lever_arm / plate.section_modulus
    # A positive load whose stress underflows to zero is safe without bound.
    safety = math.inf if stress == 0.0 else material.yield_strength / stress
    return SafetyResult(bending_stress=stress, safety_factor=safety)
