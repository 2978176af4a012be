"""Exoskeleton joint locking: holding power and lock-vs-hold energy.

A revolute joint holds a static load either by stalling its servomotor on
the torque-speed line (continuous current) or by engaging the flat-bracket
screw latch and dropping the motor to standby. The one-shot latch energy
comes from an actual latch-drive trace so the two modules stay consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import defaults
from .latch import (
    Direction,
    DriveCommand,
    LatchFsm,
    LatchState,
    run_until,
)
from .mechlib import MotorSpec, csv_number, line_point, motor_line


class UnholdableLoadError(RuntimeError):
    """Joint load exceeds the motor's stall torque at the supply voltage."""


@dataclass(frozen=True)
class ExoJoint:
    motor: MotorSpec
    lock: LatchFsm
    supply_voltage: float = defaults.LATCH_VOLTAGE
    standby_power: float = defaults.EXO_STANDBY_POWER  # W
    load_torque: float = 0.0  # N*m at the joint

    def __post_init__(self):
        # Raises VoltageRangeError outside the motor's characterized range.
        self.motor.stall_torque(self.supply_voltage)
        if not (0 <= self.standby_power < math.inf):
            raise ValueError("standby power must be finite and non-negative")
        if self.load_torque < 0:
            raise ValueError("load torque must be non-negative")

    @property
    def locked(self) -> bool:
        return self.lock.state is LatchState.LATCHED


@dataclass(frozen=True)
class LoadTimeline:
    """Piecewise-constant joint load; each point holds until the next."""

    points: tuple[tuple[float, float], ...]  # (t_s, load_Nm)
    end_time: float

    def __post_init__(self):
        if not self.points:
            raise ValueError("load timeline has no points")
        times = [t for t, _ in self.points]
        if times != sorted(set(times)):
            raise ValueError("timeline times must be strictly increasing")
        if any(load < 0 for _, load in self.points):
            raise ValueError("loads must be non-negative")
        if self.points[0][0] != 0.0 or self.end_time < self.points[-1][0]:
            raise ValueError("timeline must start at t=0 and end after its "
                             "last point")

    def segments(self):
        """Yield (start, end, load) covering [0, end_time]."""
        for (t0, load), (t1, _) in zip(self.points, self.points[1:]):
            yield t0, t1, load
        yield self.points[-1][0], self.end_time, self.points[-1][1]


def hold_power(joint: ExoJoint) -> float:
    """Electrical power to hold the joint's static load: standby when locked."""
    if joint.locked:
        return joint.standby_power
    line = motor_line(joint.motor, joint.supply_voltage)
    stall = line[0]
    if joint.load_torque >= stall:
        raise UnholdableLoadError(
            f"load {joint.load_torque:.4f} N*m exceeds stall {stall:.4f} N*m "
            f"at {joint.supply_voltage} V")
    _, current = line_point(joint.motor, line, joint.load_torque)
    return joint.supply_voltage * current


def latch_energy(joint: ExoJoint, dt: float = defaults.DEFAULT_DT) -> float:
    """One-shot energy to drive the joint lock from Housed to Latched."""
    cmd = DriveCommand(voltage=defaults.LATCH_VOLTAGE,
                       direction=Direction.CLOCKWISE)
    final, trace, _ = run_until(_housed(joint.lock), cmd, dt, LatchState.LATCHED)
    if final.state is not LatchState.LATCHED:
        raise RuntimeError("lock failed to latch within the simulation window")
    # trace.energy(lambda t: LATCH_VOLTAGE, dt), from the trace's runs.
    return trace.energy_at(defaults.LATCH_VOLTAGE)


@dataclass(frozen=True)
class EnergyComparison:
    held_energy: float    # J, never locking
    locked_energy: float  # J, locking at lock_at (incl. latch one-shot)
    savings: float        # J, held - locked
    latch_energy: float   # J, the one-shot component


def energy_comparison(joint: ExoJoint, timeline: LoadTimeline,
                      lock_at: Optional[float] = None,
                      dt: float = defaults.DEFAULT_DT) -> EnergyComparison:
    """Integrate holding power with and without engaging the lock."""
    check_lock_at(lock_at, timeline.end_time)
    unlocked = replace(joint, lock=_housed(joint.lock))
    # Never locking is locking at the end: the standby term then adds 0.0.
    lock = timeline.end_time if lock_at is None else lock_at
    held = 0.0
    locked = 0.0
    for t0, t1, load in timeline.segments():
        try:
            p_unlocked = hold_power(replace(unlocked, load_torque=load))
        except UnholdableLoadError as exc:
            raise UnholdableLoadError(f"at t={t0:.3f} s: {exc}") from exc
        held += p_unlocked * (t1 - t0)
        before = max(t0, min(t1, lock))
        locked += p_unlocked * (before - t0)
        locked += joint.standby_power * (t1 - before)
    one_shot = 0.0 if lock_at is None else latch_energy(joint, dt=dt)
    # Grouped so that locking at the end of the timeline yields exactly
    # -one_shot (held and the locked hold part cancel bitwise).
    savings = (held - locked) - one_shot
    return EnergyComparison(held_energy=held, locked_energy=locked + one_shot,
                            savings=savings, latch_energy=one_shot)


def check_lock_at(lock_at: Optional[float], end_time: float) -> None:
    """Reject a lock time outside a timeline ending at ``end_time`` (None
    never locks)."""
    if lock_at is not None and not (0.0 <= lock_at <= end_time):
        raise ValueError("lock_at must fall within the timeline")


def _housed(lock: LatchFsm) -> LatchFsm:
    if lock.state is LatchState.HOUSED:
        return lock
    return LatchFsm()


def comparison_csv(result: EnergyComparison) -> str:
    lines = ["quantity,value_J"]
    for name in ("held_energy", "locked_energy", "latch_energy", "savings"):
        lines.append(f"{name},{csv_number(getattr(result, name))}")
    return "\n".join(lines) + "\n"


def comparison_report(name: str, joint: ExoJoint, timeline: LoadTimeline,
                      lock_at: Optional[float],
                      result: EnergyComparison) -> str:
    lines = [
        f"Joint-lock energy comparison: {name}",
        "",
        f"supply voltage: {joint.supply_voltage} V",
        f"standby power:  {joint.standby_power} W",
        f"timeline:       {len(timeline.points)} load segment(s), "
        f"{timeline.end_time} s total",
        f"lock engaged:   "
        f"{'never' if lock_at is None else f'at t={lock_at} s'}",
        "",
        f"energy holding with motors only: {result.held_energy:.6g} J",
        f"energy with screw lock:          {result.locked_energy:.6g} J",
        f"  of which latch one-shot:       {result.latch_energy:.6g} J",
        f"savings:                         {result.savings:.6g} J",
        "",
    ]
    verdict = ("locking pays off" if result.savings > 0
               else "locking does not pay off")
    lines.append(verdict)
    return "\n".join(lines) + "\n"


def build_joint(raw: dict) -> tuple[ExoJoint, LoadTimeline, Optional[float]]:
    """The joint, timeline and lock time of a type-checked exo document
    (see ``sequence.parse``). Broken rules raise one ValueError whose args
    are the first rule each part breaks: joint, timeline, then lock time."""
    lock_at, end = raw.get("lock_at_s"), raw["end_time_s"]
    parts, broken = [], []
    for make in (
            lambda: ExoJoint(
                motor=defaults.default_motor(),
                lock=defaults.default_latch_fsm(),
                supply_voltage=raw.get("supply_voltage_V",
                                       defaults.LATCH_VOLTAGE),
                standby_power=raw.get("standby_power_W",
                                      defaults.EXO_STANDBY_POWER)),
            lambda: LoadTimeline(tuple((p["t_s"], p["load_Nm"])
                                       for p in raw["load_timeline"]), end),
            lambda: check_lock_at(lock_at, end)):
        try:
            parts.append(make())
        except ValueError as exc:
            broken += exc.args
    if broken:
        raise ValueError(*broken)
    return parts[0], parts[1], lock_at
