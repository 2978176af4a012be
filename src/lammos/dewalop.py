"""Maintenance-unit geometry and load paths for the in-pipe robot.

Six wheeled-legs in two rings of three at 120 degrees. Top-ring legs can
be lowered about their hinge for pipe insertion; every leg carries a
motorized-screw latch at the right-angle bracket (hinge lock) and another
at the flat bracket (leg-to-base stiffening). All values are immutable
snapshots; operations return new snapshots. The robot's constants (gas
spring, slide actuator, lowering angle, contact radius, clearances) are read
from ``defaults``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import defaults
from .latch import LatchFsm, LatchState
from .mechlib import (
    MaterialSpec,
    PlateSpec,
    check_tslot_holding,
    csv_number,
    plate_bending_safety_factor,
)


class LegStateError(RuntimeError):
    """A command violates a latch or posture precondition, at leg ``leg``
    if one is named."""

    def __init__(self, reason: str, leg: Optional[str] = None):
        super().__init__(reason)
        self.leg = leg


class InsertionError(LegStateError):
    """Robot cannot be pushed into the pipe in its current posture."""


@dataclass(frozen=True)
class PipeEnvironment:
    inner_diameter: float  # m

    def __post_init__(self):
        if not (defaults.PIPE_DIAMETER_MIN <= self.inner_diameter
                <= defaults.PIPE_DIAMETER_MAX):
            raise ValueError(
                f"pipe out of operating range: {self.inner_diameter} m not in "
                f"[{defaults.PIPE_DIAMETER_MIN}, {defaults.PIPE_DIAMETER_MAX}] m"
            )

    @property
    def inner_radius(self) -> float:
        return self.inner_diameter / 2.0


@dataclass(frozen=True)
class WheeledLeg:
    ring: str                 # "top" | "bottom"
    azimuth_deg: float        # 0 | 120 | 240 within the ring
    angle_latch: LatchFsm
    flat_latch: LatchFsm
    hinge_angle: float = 0.0  # rad, 0 = perpendicular to the unit axis
    extension: float = 0.0    # m of linear-slide travel

    def __post_init__(self):
        if self.ring not in ("top", "bottom"):
            raise ValueError(f"unknown ring {self.ring!r}")
        if self.hinge_angle != 0.0 and self.angle_latch.state is not LatchState.HOUSED:
            raise ValueError("a lowered leg cannot have its angle latch engaged")

    @property
    def leg_id(self) -> str:
        return f"{self.ring}-{int(self.azimuth_deg)}"


@dataclass(frozen=True)
class MaintenanceUnit:
    legs: tuple[WheeledLeg, ...]
    in_pipe: bool = False
    centered: bool = False

    def __post_init__(self):
        if len(self.legs) != 6:
            raise ValueError("maintenance unit carries exactly six wheeled-legs")
        for ring in ("top", "bottom"):
            azimuths = sorted(l.azimuth_deg for l in self.legs if l.ring == ring)
            if azimuths != [0.0, 120.0, 240.0]:
                raise ValueError(f"{ring} ring azimuths must be exactly 0/120/240")

    def ring_legs(self, ring: str) -> tuple[WheeledLeg, ...]:
        return tuple(l for l in self.legs if l.ring == ring)

    def with_leg(self, new_leg: WheeledLeg) -> "MaintenanceUnit":
        legs = tuple(new_leg if l.leg_id == new_leg.leg_id else l
                     for l in self.legs)
        return replace(self, legs=legs)


def default_unit() -> MaintenanceUnit:
    """Canonical pre-insertion posture: top legs lowered, all latches housed."""
    fsm = defaults.default_latch_fsm()
    legs = []
    for ring in ("top", "bottom"):
        for az in (0.0, 120.0, 240.0):
            legs.append(WheeledLeg(
                ring=ring, azimuth_deg=az, angle_latch=fsm, flat_latch=fsm,
                hinge_angle=defaults.LOWERING_ANGLE if ring == "top" else 0.0,
            ))
    return MaintenanceUnit(legs=tuple(legs))


def insertion_clearance(pipe: PipeEnvironment,
                        top_legs_lowered: bool) -> float:
    """Radial gap between the (possibly lowered) top legs and the pipe mouth.

    Anchored on the measured 800 mm figures; a larger pipe adds half the
    diameter difference. Negative clearance means interference to be taken
    up by gas-spring compression.
    """
    base = (defaults.LOWERED_CLEARANCE_AT_800 if top_legs_lowered
            else defaults.RAISED_CLEARANCE_AT_800)
    return base + (pipe.inner_diameter - defaults.PIPE_DIAMETER_MIN) / 2.0


def insertion_force_required(pipe: PipeEnvironment,
                             top_legs_lowered: bool) -> float:
    """Push force per interfering leg to enter the pipe (gas-spring preload)."""
    clearance = insertion_clearance(pipe, top_legs_lowered)
    if clearance >= 0:
        return 0.0
    if -clearance > defaults.GAS_SPRING_MAX_COMPRESSION:
        raise InsertionError(
            f"interference {-clearance:.3f} m exceeds gas-spring stroke "
            f"{defaults.GAS_SPRING_MAX_COMPRESSION:.3f} m: cannot insert"
        )
    return defaults.GAS_SPRING_PRELOAD


def lower_leg(leg: WheeledLeg, target_angle: float) -> WheeledLeg:
    """Rotate the leg about its base hinge (pure rotation at the joint)."""
    if leg.angle_latch.state is not LatchState.HOUSED:
        raise LegStateError(f"angle latch engaged on leg {leg.leg_id}",
                            leg.leg_id)
    if leg.extension != 0.0:
        raise LegStateError(f"leg {leg.leg_id} is extended; retract before "
                            "turning the hinge", leg.leg_id)
    if leg.ring != "top":
        raise LegStateError(f"leg {leg.leg_id} has no lowering actuator",
                            leg.leg_id)
    return replace(leg, hinge_angle=target_angle)


def wall_press(unit: MaintenanceUnit, pipe: PipeEnvironment) -> MaintenanceUnit:
    """Extend every leg until its wheel contacts the pipe wall.

    Requires all hinges perpendicular. The symmetric pipe asks the same
    extension of every leg, so the pressed unit is centered.
    """
    for leg in unit.legs:
        if leg.hinge_angle != 0.0:
            raise LegStateError(f"leg {leg.leg_id} is lowered; raise before pressing")
        if leg.flat_latch.state is LatchState.LATCHED:
            raise LegStateError(f"leg {leg.leg_id} extension frozen by flat latch")
    required = pipe.inner_radius - defaults.RETRACTED_CONTACT_RADIUS
    if not (0.0 <= required <= defaults.EXTEND_TRAVEL):
        raise LegStateError(
            f"required extension {required:.3f} m outside actuator travel "
            f"of leg {unit.legs[0].leg_id}"
        )
    legs = tuple(replace(leg, extension=required) for leg in unit.legs)
    return replace(unit, legs=legs, centered=True)


@dataclass(frozen=True)
class LoadPath:
    """Split of an external leg force between actuator and latched structure."""

    actuator_share: float
    structure_share: float
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def leg_load_path(leg: WheeledLeg, external_force: float) -> LoadPath:
    """Route an external force through the leg.

    With the flat latch engaged the leg is structural and the slide
    actuator carries nothing; otherwise the actuator takes the whole force.
    Failures are reported in the result, never thrown.
    """
    if external_force < 0:
        raise ValueError("external force must be non-negative")
    failures: list[str] = []
    if leg.flat_latch.state is LatchState.LATCHED:
        actuator, structure = 0.0, external_force
        if structure > 0:
            if not check_tslot_holding(structure).passed:
                failures.append("tslot overload")
            plate = PlateSpec()
            sf = plate_bending_safety_factor(plate, MaterialSpec(), structure,
                                             plate.length)
            if sf.failed:
                failures.append("plate bending failure")
    else:
        actuator, structure = external_force, 0.0
        if actuator > defaults.EXTEND_ACTUATOR_MAX_LOAD:
            failures.append("actuator overload")
    return LoadPath(actuator_share=actuator, structure_share=structure,
                    failures=tuple(failures))


def unit_state_csv(unit: MaintenanceUnit) -> str:
    """Per-leg state dump."""
    lines = ["leg_id,azimuth_deg,hinge_deg,extension_m,angle_latch,flat_latch"]
    for leg in unit.legs:
        lines.append("{},{},{},{},{},{}".format(
            leg.leg_id, csv_number(leg.azimuth_deg),
            csv_number(math.degrees(leg.hinge_angle)),
            csv_number(leg.extension),
            leg.angle_latch.state.value, leg.flat_latch.state.value))
    return "\n".join(lines) + "\n"
