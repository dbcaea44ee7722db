"""Velocity profile, its inverse radius map and the zone partition."""

import math

import numpy as np
import pytest

from wellpi import (
    Geometry,
    ZoneLaw,
    flux_density,
    partition_zones,
    radius_of_velocity,
    velocity_profile,
    zone_segments,
)

from helpers import bisect_inverse, make_scenario


# ---------------------------------------------------------------------------
# flux density A
# ---------------------------------------------------------------------------

def test_flux_density_arithmetic():
    scn = make_scenario()
    expected = 1e-4 / (2 * math.pi * (1000.0**2 - 0.3**2))
    assert flux_density(scn) == pytest.approx(expected, rel=1e-14)
    assert flux_density(scn) == pytest.approx(1.5915e-11, rel=1e-4)


def test_flux_density_small_reservoir():
    scn = make_scenario(r_e=100.0)
    assert flux_density(scn) == pytest.approx(1e-4 / (2 * math.pi * (100**2 - 0.09)), rel=1e-14)
    assert flux_density(scn) == pytest.approx(1.5916e-9, rel=1e-4)


def test_nonpositive_flux_rejected():
    with pytest.raises(ValueError, match="q_over_h"):
        make_scenario(q_over_h=0.0)
    with pytest.raises(ValueError, match="q_over_h"):
        make_scenario(q_over_h=-1e-4)


def test_geometry_invariants():
    with pytest.raises(ValueError):
        Geometry(r_e=1.0, r_w=2.0, h=10.0)
    with pytest.raises(ValueError):
        Geometry(r_e=100.0, r_w=0.3, h=0.0)


# ---------------------------------------------------------------------------
# velocity profile
# ---------------------------------------------------------------------------

def test_velocity_vanishes_at_outer_boundary():
    scn = make_scenario()
    assert velocity_profile(scn, 1000.0) == 0.0


def test_wellbore_velocity_identity():
    # v(r_w) = (Q/h) / (2 pi r_w): the span factors cancel exactly
    scn = make_scenario()
    expected = 1e-4 / (2 * math.pi * 0.3)
    assert velocity_profile(scn, 0.3) == pytest.approx(expected, rel=1e-12)


def test_velocity_strictly_decreasing():
    scn = make_scenario()
    radii = np.geomspace(0.3, 1000.0, 200)
    speeds = [velocity_profile(scn, float(r)) for r in radii]
    assert all(a > b for a, b in zip(speeds, speeds[1:]))


def test_interior_velocity_between_endpoints():
    scn = make_scenario()
    v_max = velocity_profile(scn, 0.3)
    for r in (0.5, 5.0, 50.0, 500.0, 999.0):
        assert 0.0 < velocity_profile(scn, r) < v_max


def test_velocity_out_of_range():
    scn = make_scenario()
    with pytest.raises(ValueError):
        velocity_profile(scn, 0.29)
    with pytest.raises(ValueError):
        velocity_profile(scn, 1000.1)


# ---------------------------------------------------------------------------
# inverse radius map
# ---------------------------------------------------------------------------

def test_radius_of_zero_velocity_is_outer_boundary():
    scn = make_scenario()
    assert radius_of_velocity(scn, 0.0) == 1000.0


def test_radius_of_wellbore_velocity_is_well():
    scn = make_scenario()
    v_max = velocity_profile(scn, 0.3)
    assert radius_of_velocity(scn, v_max) == pytest.approx(0.3, rel=1e-10)


def test_radius_against_bisection_oracle():
    scn = make_scenario(r_e=100.0)
    for v in (1e-5, 1e-6, 1e-7):
        expected = bisect_inverse(
            lambda r: velocity_profile(scn, r), v, scn.geometry.r_w, scn.geometry.r_e
        )
        assert radius_of_velocity(scn, v) == pytest.approx(expected, rel=1e-9)
    # spot values from the oracle: r(1e-5) ~ 1.59 m, r(1e-7) ~ 73.4 m
    assert radius_of_velocity(scn, 1e-5) == pytest.approx(1.5915, rel=1e-3)
    assert radius_of_velocity(scn, 1e-7) == pytest.approx(73.43, rel=1e-3)


def test_radius_rejects_out_of_range_velocity():
    scn = make_scenario()
    v_max = velocity_profile(scn, 0.3)
    with pytest.raises(ValueError):
        radius_of_velocity(scn, -1e-9)
    with pytest.raises(ValueError):
        radius_of_velocity(scn, v_max * 1.01)
    with pytest.raises(ValueError):
        radius_of_velocity(scn, math.nan)


@pytest.mark.parametrize("r_e", [1000.0, 100.0])
def test_round_trip_radius_velocity(r_e):
    scn = make_scenario(r_e=r_e)
    for r in np.geomspace(scn.geometry.r_w, r_e, 100):
        back = radius_of_velocity(scn, velocity_profile(scn, float(r)))
        assert back == pytest.approx(float(r), rel=1e-10)


def test_rationalized_form_matches_textbook_form():
    # r(v) = [-pi (re^2-rw^2) v + sqrt(pi^2 v^2 (re^2-rw^2)^2 + (Q/h)^2 re^2)] / (Q/h)
    # evaluated in 50-digit decimal: in float64 the subtraction above loses
    # several digits, which is exactly why the rationalized form exists
    from decimal import Decimal, getcontext

    getcontext().prec = 50
    pi_d = Decimal("3.14159265358979323846264338327950288419716939937511")
    scn = make_scenario()
    re, rw, qh = Decimal(1000), Decimal("0.3"), Decimal("1e-4")
    span = re**2 - rw**2
    v_max = velocity_profile(scn, 0.3)
    for v in np.geomspace(1e-12, v_max, 50):
        v_d = Decimal(float(v))
        textbook = (-pi_d * span * v_d
                    + (pi_d**2 * v_d**2 * span**2 + qh**2 * re**2).sqrt()) / qh
        assert radius_of_velocity(scn, float(v)) == pytest.approx(float(textbook), rel=1e-12)


# ---------------------------------------------------------------------------
# zone partition
# ---------------------------------------------------------------------------

def test_partition_base_case():
    scn = make_scenario(r_e=100.0, v_F=1e-5, v_D=1e-7)
    part = partition_zones(scn)
    assert part.r_F == pytest.approx(1.5915, rel=1e-3)
    assert part.r_D == pytest.approx(73.43, rel=1e-3)
    assert not part.clamped_fast and not part.clamped_slow


def test_partition_clamps_fast_zone_away():
    # v_F above the wellbore speed leaves no fast zone
    scn = make_scenario(v_F=1.0, v_D=1e-7)
    part = partition_zones(scn)
    assert part.r_F == scn.geometry.r_w
    assert part.clamped_fast


def test_partition_zero_v_d_means_no_slow_zone():
    scn = make_scenario(v_D=0.0)
    part = partition_zones(scn)
    assert part.r_D == scn.geometry.r_e
    assert not part.clamped_slow  # v = 0 maps exactly onto r_e


@pytest.mark.parametrize("v_D,v_F", [(0.0, 0.0), (1e-9, 1e-8), (1e-7, 1e-5), (1e-3, 1.0), (5.0, 5.0)])
def test_partition_ordering_invariant(v_D, v_F):
    scn = make_scenario(v_D=v_D, v_F=v_F)
    part = partition_zones(scn)
    assert scn.geometry.r_w <= part.r_F <= part.r_D <= scn.geometry.r_e


@pytest.mark.parametrize("q_over_h", [1e250, 1e300, 1.7e308])
def test_partition_at_extreme_flux_puts_every_radius_in_the_fast_zone(q_over_h):
    # every speed in the annulus but v(r_e) = 0 exceeds v_F; no square of the
    # flux density may overflow and collapse the critical radii onto r_w
    scn = make_scenario("FDpD", q_over_h=q_over_h)
    part = partition_zones(scn)
    assert part.r_F == part.r_D == scn.geometry.r_e
    assert zone_segments(scn) == [(0.3, 1000.0, ZoneLaw.FORCHHEIMER)]


# ---------------------------------------------------------------------------
# zone segments (merged by law)
# ---------------------------------------------------------------------------

def test_all_darcy_merges_to_single_segment():
    for q in (1e-6, 1e-2, 1e2):
        segs = zone_segments(make_scenario("D", q_over_h=q))
        assert segs == [(0.3, 1000.0, ZoneLaw.DARCY)]


def test_fdpd_keeps_three_segments():
    scn = make_scenario("FDpD")
    segs = zone_segments(scn)
    assert [law for _, _, law in segs] == [
        ZoneLaw.FORCHHEIMER, ZoneLaw.DARCY, ZoneLaw.PRE_DARCY,
    ]
    part = partition_zones(scn)
    assert segs[0] == (0.3, part.r_F, ZoneLaw.FORCHHEIMER)
    assert segs[-1] == (part.r_D, 1000.0, ZoneLaw.PRE_DARCY)


def test_empty_slow_zone_drops_out():
    fdpd = zone_segments(make_scenario("FDpD", v_D=0.0))
    fdd = zone_segments(make_scenario("FDD", v_D=0.0))
    assert fdpd == fdd
