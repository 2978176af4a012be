"""Default mechanism parameters.

Catalog-anchored values (motor stall torques, the M8 screw, the seating
spring's ratings, bracket envelopes, T-slot limit, plate dimensions,
insertion clearances) come from the hardware datasheets; values marked
"assumed" have no published source and are exposed here so every
non-catalog number is auditable via the `defaults` CLI subcommand.
"""

from __future__ import annotations

import math

from .mechlib import (
    BRACKET_40X40, BRACKET_80X80, BRACKET_160X80, TSLOT_MAX_FORCE_N,
    MaterialSpec, MotorSpec, PlateSpec, gram_cm_to_newton_m,
)

# Catalog stall torques at the two characterized voltages.
STALL_TORQUE_GCM_3V = 2884.0
STALL_TORQUE_GCM_6V = 3444.0
GEAR_RATIO = 298.0  # only printed: the model works at the gearbox output

# Assumed electrical/speed figures for a 298:1 micro gearmotor (not catalog).
FREE_SPEED_REVS_3V = 0.75
FREE_SPEED_REVS_6V = 1.6
STALL_CURRENT_A_3V = 0.7
STALL_CURRENT_A_6V = 1.6
NO_LOAD_CURRENT_A = 0.04

LATCH_VOLTAGE = 3.0    # clockwise, tightening
UNLATCH_VOLTAGE = 6.0  # counterclockwise, overcoming breakaway

DEFAULT_DT = 0.001  # s

# The one latch mechanism, shared by every leg latch and the exo joint lock.
# ``latch`` reads these when it runs; a LatchFsm holds only the state.
MOTOR = MotorSpec(
    stall_torque_points=(
        (3.0, gram_cm_to_newton_m(STALL_TORQUE_GCM_3V)),
        (6.0, gram_cm_to_newton_m(STALL_TORQUE_GCM_6V)),
    ),
    free_speed_points=((3.0, FREE_SPEED_REVS_3V), (6.0, FREE_SPEED_REVS_6V)),
    stall_current_points=((3.0, STALL_CURRENT_A_3V), (6.0, STALL_CURRENT_A_6V)),
    no_load_current=NO_LOAD_CURRENT_A,
)
SCREW_NOMINAL_DIAMETER = 0.008      # m (M8)
SCREW_THREAD_PITCH = 0.00125        # m/rev (M8 coarse)
SCREW_LENGTH = 0.018                # m
SCREW_THREAD_FRICTION = 0.2         # thread friction coefficient
SPRING_FREE_LENGTH = 0.019          # m, screw-seating guide spring
SPRING_OUTER_WIDTH = 0.008          # m
SPRING_WIRE_DIAMETER = 0.0005       # m
SPRING_ACTIVE_COILS = 28
SPRING_SHEAR_MODULUS = 79.3e9       # Pa, stainless steel
SPRING_MAX_LOAD = 4.506             # N
SPRING_MASS = 0.000406              # kg
FLEXNUT_FRICTION_TORQUE = 0.02      # N*m
BRACKET_THICKNESS = 0.009           # m
TSLOT_GAP = 0.003                   # m, bracket underside to nut face
TIGHTENING_CURRENT_THRESHOLD = 0.9  # fraction of stall current
CLAMP_TORQUE = 0.26                 # N*m at full engagement
BREAKAWAY_FACTOR = 1.15             # unscrew breakaway vs clamp torque
HOUSED_REST_POSITION = -0.003       # m, spring-seated tip position
TIGHTENING_TRAVEL = 0.00125         # m of torque ramp past the nut face


def default_motor() -> MotorSpec:
    return MOTOR


def default_latch_fsm():
    """The housed latch."""
    from .latch import LatchFsm
    return LatchFsm()


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
    plate = PlateSpec()
    return {
        "motor": {
            "gear_ratio": GEAR_RATIO,
            "stall_torque_gcm_3V": STALL_TORQUE_GCM_3V,
            "stall_torque_gcm_6V": STALL_TORQUE_GCM_6V,
            "free_speed_revs_3V (assumed)": FREE_SPEED_REVS_3V,
            "free_speed_revs_6V (assumed)": FREE_SPEED_REVS_6V,
            "stall_current_A_3V (assumed)": STALL_CURRENT_A_3V,
            "stall_current_A_6V (assumed)": STALL_CURRENT_A_6V,
            "no_load_current_A (assumed)": NO_LOAD_CURRENT_A,
        },
        "screw": {
            "nominal_diameter_m": SCREW_NOMINAL_DIAMETER,
            "thread_pitch_m (assumed: M8 coarse)": SCREW_THREAD_PITCH,
            "length_m": SCREW_LENGTH,
            "thread_friction_coefficient (assumed)": SCREW_THREAD_FRICTION,
        },
        "spring": {
            "free_length_m": SPRING_FREE_LENGTH,
            "outer_width_m": SPRING_OUTER_WIDTH,
            "wire_diameter_m": SPRING_WIRE_DIAMETER,
            "active_coils": SPRING_ACTIVE_COILS,
            "shear_modulus_Pa (assumed: stainless)": SPRING_SHEAR_MODULUS,
            "max_load_N": SPRING_MAX_LOAD,
            "mass_kg": SPRING_MASS,
        },
        "latch": {
            "flexnut_friction_torque_Nm (assumed)": FLEXNUT_FRICTION_TORQUE,
            "bracket_thickness_m": BRACKET_THICKNESS,
            "tslot_gap_m (assumed)": TSLOT_GAP,
            "tightening_current_threshold (assumed)":
                TIGHTENING_CURRENT_THRESHOLD,
            "clamp_torque_Nm (assumed)": CLAMP_TORQUE,
            "breakaway_factor (assumed)": BREAKAWAY_FACTOR,
            "housed_rest_position_m (assumed)": HOUSED_REST_POSITION,
            "tightening_travel_m (assumed)": TIGHTENING_TRAVEL,
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
