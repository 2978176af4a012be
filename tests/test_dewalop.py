"""Maintenance-unit geometry, insertion numbers, and load-path tests."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from lammos import defaults
from lammos.dewalop import (
    InsertionError,
    LegStateError,
    LoadPath,
    MaintenanceUnit,
    PipeEnvironment,
    WheeledLeg,
    default_unit,
    insertion_clearance,
    insertion_force_required,
    leg_load_path,
    lower_leg,
    unit_state_csv,
    wall_press,
)
from lammos.latch import LatchState


def raised_unit():
    unit = default_unit()
    for leg in unit.ring_legs("top"):
        unit = unit.with_leg(lower_leg(leg, 0.0))
    return unit


def latched_flat_leg(leg):
    latched = dataclasses.replace(
        leg.flat_latch, state=LatchState.LATCHED,
        screw_tip_position=leg.flat_latch.tslot_engagement_position)
    return dataclasses.replace(leg, flat_latch=latched)


class TestPipe:
    def test_range_enforced(self):
        PipeEnvironment(0.800)
        PipeEnvironment(1.000)
        with pytest.raises(ValueError):
            PipeEnvironment(1.100)
        with pytest.raises(ValueError):
            PipeEnvironment(0.799)


class TestInsertion:
    def test_lowered_clearance_800(self):
        assert insertion_clearance(PipeEnvironment(0.800), True) == 0.116

    def test_raised_interference_800(self):
        assert insertion_clearance(PipeEnvironment(0.800), False) == -0.030

    def test_raised_clearance_1000(self):
        assert insertion_clearance(PipeEnvironment(1.000),
                                   False) == pytest.approx(0.070)

    def test_force_zero_when_clear(self):
        assert insertion_force_required(PipeEnvironment(0.800), True) == 0.0
        assert insertion_force_required(PipeEnvironment(1.000), False) == 0.0

    def test_force_is_gas_spring_preload(self):
        force = insertion_force_required(PipeEnvironment(0.800), False)
        assert force == 400.0

    def test_cannot_insert_beyond_stroke(self, monkeypatch):
        monkeypatch.setattr(defaults, "RAISED_CLEARANCE_AT_800", -0.050)
        with pytest.raises(InsertionError):
            insertion_force_required(PipeEnvironment(0.800), False)

    def test_force_zero_at_zero_clearance(self, monkeypatch):
        monkeypatch.setattr(defaults, "RAISED_CLEARANCE_AT_800", 0.0)
        assert insertion_clearance(PipeEnvironment(0.800), False) == 0.0
        assert insertion_force_required(PipeEnvironment(0.800), False) == 0.0

    @given(d1=st.floats(min_value=0.800, max_value=1.000),
           d2=st.floats(min_value=0.800, max_value=1.000))
    @settings(max_examples=100, deadline=None)
    def test_clearance_monotone_in_diameter(self, d1, d2):
        if d1 == d2:
            return
        lo, hi = sorted((d1, d2))
        for lowered in (True, False):
            assert (insertion_clearance(PipeEnvironment(lo), lowered)
                    < insertion_clearance(PipeEnvironment(hi), lowered))


class TestLowerLeg:
    def test_direct_set(self):
        unit = default_unit()
        leg = lower_leg(unit.ring_legs("top")[0], math.radians(20))
        assert leg.hinge_angle == math.radians(20)

    def test_latched_leg_refused(self):
        unit = raised_unit()
        leg = unit.ring_legs("top")[0]
        latched = dataclasses.replace(
            leg.angle_latch, state=LatchState.LATCHED,
            screw_tip_position=leg.angle_latch.tslot_engagement_position)
        leg = dataclasses.replace(leg, angle_latch=latched)
        with pytest.raises(LegStateError, match="angle latch engaged"):
            lower_leg(leg, math.radians(10))

    def test_raise_then_latchable(self):
        leg = lower_leg(default_unit().ring_legs("top")[0], 0.0)
        assert leg.hinge_angle == 0.0
        assert leg.angle_latch.state is LatchState.HOUSED

    def test_lowered_cannot_be_latched_invariant(self):
        unit = default_unit()
        leg = unit.ring_legs("top")[0]
        latched = dataclasses.replace(
            leg.angle_latch, state=LatchState.LATCHED,
            screw_tip_position=leg.angle_latch.tslot_engagement_position)
        with pytest.raises(ValueError):
            dataclasses.replace(leg, angle_latch=latched)

    def test_bottom_legs_have_no_lowering_actuator(self):
        unit = default_unit()
        with pytest.raises(LegStateError):
            lower_leg(unit.ring_legs("bottom")[0], math.radians(5))


class TestWallPress:
    def test_symmetric_pipe_centers(self):
        unit = wall_press(raised_unit(), PipeEnvironment(0.800))
        assert unit.centered
        extensions = [l.extension for l in unit.legs]
        assert max(extensions) == min(extensions)

    def test_larger_pipe_adds_radius_difference(self):
        small = wall_press(raised_unit(), PipeEnvironment(0.800))
        large = wall_press(raised_unit(), PipeEnvironment(1.000))
        assert small.centered and large.centered
        delta = (large.legs[0].extension - small.legs[0].extension)
        assert delta == pytest.approx(0.100, rel=1e-12)

    def test_lowered_leg_rejected(self):
        with pytest.raises(LegStateError):
            wall_press(default_unit(), PipeEnvironment(0.800))

    def test_zero_required_extension_presses(self, monkeypatch):
        # The wheels touch a 0.8 m pipe's wall fully retracted.
        monkeypatch.setattr(defaults, "RETRACTED_CONTACT_RADIUS", 0.4)
        unit = wall_press(raised_unit(), PipeEnvironment(0.800))
        assert unit.centered
        assert [l.extension for l in unit.legs] == [0.0] * len(unit.legs)

    def test_required_extension_of_exactly_the_travel_presses(self,
                                                              monkeypatch):
        required = (PipeEnvironment(0.800).inner_radius
                    - defaults.RETRACTED_CONTACT_RADIUS)
        monkeypatch.setattr(defaults, "EXTEND_TRAVEL", required)
        unit = wall_press(raised_unit(), PipeEnvironment(0.800))
        assert [l.extension for l in unit.legs] == [required] * len(unit.legs)

    def test_travel_limit(self, monkeypatch):
        monkeypatch.setattr(defaults, "RETRACTED_CONTACT_RADIUS", 0.300)
        with pytest.raises(LegStateError):
            wall_press(raised_unit(), PipeEnvironment(1.000))

    @given(diameter=st.floats(min_value=0.800, max_value=1.000))
    @settings(max_examples=50, deadline=None)
    def test_ring_extensions_equal(self, diameter):
        unit = wall_press(raised_unit(), PipeEnvironment(diameter))
        assert unit.centered
        for ring in ("top", "bottom"):
            exts = [l.extension for l in unit.ring_legs(ring)]
            assert max(exts) - min(exts) <= 1e-12


class TestLoadPath:
    def test_latched_routes_to_structure(self):
        leg = latched_flat_leg(raised_unit().legs[0])
        path = leg_load_path(leg, 2000.0)
        assert path.structure_share == 2000.0
        assert path.actuator_share == 0.0
        assert path.ok

    def test_unlatched_overload_flag(self):
        path = leg_load_path(raised_unit().legs[0], 1500.0)
        assert path.actuator_share == 1500.0
        assert "actuator overload" in path.failures

    def test_actuator_carries_its_max_load_exactly(self):
        # The 1000 N limit is inclusive: one float above it overloads.
        leg = raised_unit().legs[0]
        above = math.nextafter(1000.0, math.inf)
        assert leg_load_path(leg, 1000.0).failures == ()
        assert leg_load_path(leg, above).failures == ("actuator overload",)

    def test_zero_force(self):
        path = leg_load_path(raised_unit().legs[0], 0.0)
        assert path.actuator_share == 0.0 and path.structure_share == 0.0
        assert path.ok

    def test_zero_force_on_a_latched_leg(self):
        # Nothing to route: the plate check, undefined at zero, is skipped.
        path = leg_load_path(latched_flat_leg(raised_unit().legs[0]), 0.0)
        assert path == LoadPath(actuator_share=0.0, structure_share=0.0)

    def test_tslot_overload_reported_not_thrown(self):
        leg = latched_flat_leg(raised_unit().legs[0])
        path = leg_load_path(leg, 5200.0)
        assert "tslot overload" in path.failures

    @given(force=st.floats(min_value=0.0, max_value=6000.0),
           latched=st.booleans())
    @example(force=5e-324, latched=True)
    @settings(max_examples=100, deadline=None)
    def test_shares_conserve_force(self, force, latched):
        leg = raised_unit().legs[0]
        if latched:
            leg = latched_flat_leg(leg)
        path = leg_load_path(leg, force)
        assert path.actuator_share + path.structure_share == force
        assert path.actuator_share >= 0 and path.structure_share >= 0


class TestUnitStructure:
    def test_azimuth_invariant(self):
        unit = default_unit()
        bad_legs = unit.legs[:5] + (dataclasses.replace(unit.legs[5],
                                                        azimuth_deg=90.0),)
        with pytest.raises(ValueError):
            MaintenanceUnit(legs=bad_legs)

    def test_azimuth_error_names_its_ring(self):
        unit = default_unit()
        bad_legs = unit.legs[:5] + (dataclasses.replace(unit.legs[5],
                                                        azimuth_deg=200.0),)
        with pytest.raises(ValueError, match="^bottom ring azimuths"):
            MaintenanceUnit(legs=bad_legs)

    def test_csv_dump_shape(self):
        text = unit_state_csv(default_unit())
        lines = text.splitlines()
        assert lines[0] == ("leg_id,azimuth_deg,hinge_deg,extension_m,"
                            "angle_latch,flat_latch")
        assert len(lines) == 7
        assert lines[1].startswith("top-0,")
        assert lines[1].endswith("Housed,Housed")
