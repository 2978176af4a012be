"""Default mechanism parameters.

Catalog-anchored values (motor stall torques, spring ratings, bracket
envelopes, T-slot limit, plate dimensions, insertion clearances) come from
the hardware datasheets; values marked "assumed" have no published source
and are exposed here so every non-catalog number is auditable via the
`defaults` CLI subcommand.
"""

from __future__ import annotations

import math

from .mechlib import (
    BRACKET_40X40, BRACKET_80X80, BRACKET_160X80, TSLOT_MAX_FORCE_N,
    MaterialSpec, MotorSpec, PlateSpec, ScrewSpec, SpringSpec,
    gram_cm_to_newton_m,
)
from .latch import LatchFsm

# Catalog stall torques at the two characterized voltages.
STALL_TORQUE_GCM_3V = 2884.0
STALL_TORQUE_GCM_6V = 3444.0

# Assumed electrical/speed figures for a 298:1 micro gearmotor (not catalog).
FREE_SPEED_REVS_3V = 0.75
FREE_SPEED_REVS_6V = 1.6
STALL_CURRENT_A_3V = 0.7
STALL_CURRENT_A_6V = 1.6
NO_LOAD_CURRENT_A = 0.04

LATCH_VOLTAGE = 3.0    # clockwise, tightening
UNLATCH_VOLTAGE = 6.0  # counterclockwise, overcoming breakaway

DEFAULT_DT = 0.001  # s


def default_motor() -> MotorSpec:
    return MotorSpec(
        gear_ratio=298.0,
        stall_torque_points=(
            (3.0, gram_cm_to_newton_m(STALL_TORQUE_GCM_3V)),
            (6.0, gram_cm_to_newton_m(STALL_TORQUE_GCM_6V)),
        ),
        free_speed_points=((3.0, FREE_SPEED_REVS_3V), (6.0, FREE_SPEED_REVS_6V)),
        stall_current_points=((3.0, STALL_CURRENT_A_3V), (6.0, STALL_CURRENT_A_6V)),
        no_load_current=NO_LOAD_CURRENT_A,
    )


def default_latch_fsm() -> LatchFsm:
    return LatchFsm(motor=default_motor(), screw=ScrewSpec(), spring=SpringSpec())


# Wheeled-leg / maintenance-unit geometry anchors.
PIPE_DIAMETER_MIN = 0.800   # m
PIPE_DIAMETER_MAX = 1.000   # m
LOWERED_CLEARANCE_AT_800 = 0.116    # m, top legs lowered, smallest pipe
RAISED_CLEARANCE_AT_800 = -0.030    # m, interference: full gas-spring stroke
GAS_SPRING_PRELOAD = 400.0          # N
GAS_SPRING_MAX_COMPRESSION = 0.030  # m
EXTEND_ACTUATOR_MAX_LOAD = 1000.0   # N
LOWERING_ANGLE = math.radians(20.0)  # assumed; clearance anchor is stored
BODY_RADIUS = 0.380                  # m
RETRACTED_CONTACT_RADIUS = 0.380     # m, wheel contact at zero extension
EXTEND_TRAVEL = 0.150                # m, linear-slide travel (assumed)

EXO_STANDBY_POWER = 0.1  # W, locked-joint electronics idle (assumed)


def defaults_as_dict() -> dict:
    """All defaults with unit-suffixed keys, catalog values flagged.

    Every value is read from the constant or dataclass default it documents.
    """
    latch, plate = default_latch_fsm(), PlateSpec()
    screw, spring = latch.screw, latch.spring
    return {
        "motor": {
            "gear_ratio": latch.motor.gear_ratio,
            "stall_torque_gcm_3V": STALL_TORQUE_GCM_3V,
            "stall_torque_gcm_6V": STALL_TORQUE_GCM_6V,
            "free_speed_revs_3V (assumed)": FREE_SPEED_REVS_3V,
            "free_speed_revs_6V (assumed)": FREE_SPEED_REVS_6V,
            "stall_current_A_3V (assumed)": STALL_CURRENT_A_3V,
            "stall_current_A_6V (assumed)": STALL_CURRENT_A_6V,
            "no_load_current_A (assumed)": NO_LOAD_CURRENT_A,
        },
        "screw": {
            "nominal_diameter_m": screw.nominal_diameter,
            "thread_pitch_m (assumed: M8 coarse)": screw.thread_pitch,
            "length_m": screw.length,
            "thread_friction_coefficient (assumed)":
                screw.thread_friction_coefficient,
        },
        "spring": {
            "free_length_m": spring.free_length,
            "outer_width_m": spring.outer_width,
            "wire_diameter_m": spring.wire_diameter,
            "active_coils": spring.active_coils,
            "shear_modulus_Pa (assumed: stainless)": spring.shear_modulus,
            "max_load_N": spring.max_load,
            "mass_kg": spring.mass,
        },
        "latch": {
            "flexnut_friction_torque_Nm (assumed)": latch.flexnut_friction_torque,
            "bracket_thickness_m": latch.bracket_thickness,
            "tslot_gap_m (assumed)": latch.tslot_gap,
            "tightening_current_threshold (assumed)":
                latch.tightening_current_threshold,
            "clamp_torque_Nm (assumed)": latch.clamp_torque,
            "breakaway_factor (assumed)": latch.breakaway_factor,
            "housed_rest_position_m (assumed)": latch.housed_rest_position,
            "tightening_travel_m (assumed)": latch.tightening_travel,
            "latch_voltage_V": LATCH_VOLTAGE,
            "unlatch_voltage_V": UNLATCH_VOLTAGE,
            "dt_s": DEFAULT_DT,
        },
        "structure": {
            "tslot_max_force_N": TSLOT_MAX_FORCE_N,
            **{f"bracket_{b.designation}":
                   f"F<{b.max_force:g}N, F*l<{b.max_moment:g}Nm"
               for b in (BRACKET_40X40, BRACKET_80X80, BRACKET_160X80)},
            "plate_m": [plate.length, plate.height, plate.thickness],
            "yield_strength_Pa (assumed: mild steel)":
                MaterialSpec().yield_strength,
        },
        "dewalop": {
            "pipe_diameter_range_m": [PIPE_DIAMETER_MIN, PIPE_DIAMETER_MAX],
            "lowered_clearance_at_800_m": LOWERED_CLEARANCE_AT_800,
            "raised_clearance_at_800_m": RAISED_CLEARANCE_AT_800,
            "gas_spring_preload_N": GAS_SPRING_PRELOAD,
            "gas_spring_max_compression_m": GAS_SPRING_MAX_COMPRESSION,
            "extend_actuator_max_load_N": EXTEND_ACTUATOR_MAX_LOAD,
            "lowering_angle_rad (assumed; clearance is the anchor)": LOWERING_ANGLE,
            "body_radius_m": BODY_RADIUS,
            "retracted_contact_radius_m (assumed)": RETRACTED_CONTACT_RADIUS,
            "extend_travel_m (assumed)": EXTEND_TRAVEL,
        },
        "exo": {
            "standby_power_W (assumed)": EXO_STANDBY_POWER,
        },
    }
