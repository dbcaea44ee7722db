"""Closed-form S_pD against a 40-digit mpmath reference.

The reference, ``helpers.reference_zone_integral``, integrates
(r_e^2 - r^2)^(2-s) r^(s-1) over the same binary radii at 40 significant
digits, so it shares none of the double-precision
weaknesses of the series (cancellation near r_e, the log term at s = 0, the
polynomial end at s = 1).  Segments that end at r_e are also drawn at random
and checked against mpmath's incomplete beta function: on both sides of the
guard that sends them to the complete beta function minus its head, and from
0.35 r_e on, where the continued fraction runs.

Near r_e the adaptive Gauss-Kronrod integrator is not a usable reference:
its nodes center + half * x round to a few ulp of r_e, where the integrand
(r_e^2 - r^2)^(2-s) has a relative slope of order 1 / (r_e - r).  On the
sliver [r_e (1 - 1e-6), r_e] it is off by up to about 4e-11, and by about
7e-10 at a width of 1e-7 r_e, against 2e-15 for the series.  That is why the
quadrature gate of the validation check stays at 1e-9 and only this test
holds the closed form to 1e-13.
"""

import random

import pytest

from wellpi import ZoneLaw, base_scenario, flux_density, zone_integral

from helpers import reference_zone_integral

mp = pytest.importorskip("mpmath")

R_E, R_W = 1000.0, 0.3
POWERS = (0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0)
INTERVALS = {
    "whole-annulus": (R_W, R_E),
    "from-well": (R_W, 120.0),
    "well-sliver": (R_W, R_W * (1.0 + 1e-8)),
    "boundary-sliver": (R_E * (1.0 - 1e-6), R_E),
    "across-series-cut": (700.0, 800.0),
    "outer-part": (760.0, 999.0),
    # r1 on the cut: the continued fraction, not the outer series or its tail
    "from-series-cut": (0.75 * R_E, R_E),
    "cut-sliver": (750.0, 750.0 * (1.0 + 1e-9)),
    # the complete beta function minus its head for s >= 0.3; the split series below
    "from-tenth": (0.1 * R_E, R_E),
    # beyond r_e / 2: the continued fraction at every s
    "from-below-cut": (0.7499 * R_E, R_E),
    "from-half": (500.0, R_E),
    # the continued fraction where the guard fails (s <= 0.3), the head route above
    "from-0.4": (400.0, R_E),
}


@pytest.mark.parametrize("s", POWERS)
@pytest.mark.parametrize("name", list(INTERVALS))
def test_predarcy_closed_form_matches_mpmath(name, s):
    scn = base_scenario("pure-preDarcy", s=s)
    r1, r2 = INTERVALS[name]
    got = zone_integral(scn, ZoneLaw.PRE_DARCY, r1, r2)
    want = reference_zone_integral(scn, ZoneLaw.PRE_DARCY, r1, r2)
    assert float(abs(got - want) / want) <= 1e-13


# on [r_w, r_e], 0.005 keeps the split series and 0.05 takes the head route
@pytest.mark.parametrize("s", [0.005, 0.05])
def test_predarcy_whole_annulus_on_both_sides_of_the_guard(s):
    scn = base_scenario("pure-preDarcy", s=s)
    got = zone_integral(scn, ZoneLaw.PRE_DARCY, R_W, R_E)
    want = reference_zone_integral(scn, ZoneLaw.PRE_DARCY, R_W, R_E)
    assert float(abs(got - want) / want) <= 1e-13


def _beta_reference(scn, r1, r2):
    # lambda A^(-s) r_e^(4-s) / 2 times the incomplete beta integral over
    # [(r1/r_e)^2, (r2/r_e)^2], whose bounds need not be normal floats here
    with mp.workdps(40):
        s, r_e = mp.mpf(scn.params.s), mp.mpf(scn.geometry.r_e)
        u1, u2 = (mp.mpf(r1) / r_e) ** 2, (mp.mpf(r2) / r_e) ** 2
        if s == 0:  # int (1-u)^2 / u du
            beta = mp.log(u2 / u1) - 2 * (u2 - u1) + (u2**2 - u1**2) / 2
        else:
            beta = mp.betainc(s / 2, 3 - s, u1, u2)
        scale = mp.mpf(scn.params.lambda_) * mp.mpf(flux_density(scn)) ** (-s)
        return scale * r_e ** (4 - s) / 2 * beta


def test_predarcy_to_r_e_matches_the_incomplete_beta_function():
    rng = random.Random(20)
    for _ in range(200):
        s = 1.0 - rng.random()  # (0, 1]
        r_e = 10.0 ** rng.uniform(0.0, 5.0)
        r1 = r_e * 10.0 ** rng.uniform(-6.0, -0.125)  # r1 / r_e in 1e-6 .. 0.75
        scn = base_scenario("pure-preDarcy", s=s, r_e=r_e, r_w=r1)
        got = zone_integral(scn, ZoneLaw.PRE_DARCY, r1, r_e)
        want = _beta_reference(scn, r1, r_e)
        assert float(abs(got - want) / want) <= 1e-13, (s, r_e, r1)


def test_predarcy_continued_fraction_matches_the_incomplete_beta_function():
    # r1 / r_e from 0.35, where the continued fraction first runs, up to and past
    # the series cut; s in [0, 1] with its ends and tiny values
    rng = random.Random(33)
    for i in range(200):
        s = (0.0, 5e-324, 1e-9, 1.0)[i] if i < 4 else 1.0 - rng.random()
        r_e = 10.0 ** rng.uniform(-3.0, 6.0)
        r1 = r_e * rng.uniform(0.35, 1.0)
        scn = base_scenario("pure-preDarcy", s=s, r_e=r_e, r_w=r1)
        got = zone_integral(scn, ZoneLaw.PRE_DARCY, r1, r_e)
        want = _beta_reference(scn, r1, r_e)
        assert float(abs(got - want) / want) <= 1e-13, (s, r_e, r1)


# a well radius whose (r_w / r_e)^2 underflows: [r_w, 1.59] is the inner series
# alone, [r_w, r_e] the head route or the split series; below 2.2e-305, r_w / r_e
# is subnormal, its power (r_w / r_e)^s has lost digits, and the split series runs
TINY_WELL = [
    (r_w, r2, s)
    for r_w in (1e-300, 1e-170)
    for r2 in (1.59, R_E)
    for s in (0.0, 1e-9, 1e-5, 1e-3, 0.3, 1.0)
] + [(r_w, R_E, s) for r_w in (1e-320, 5e-324) for s in (1e-9, 1e-3, 1e-2, 1.0)]


@pytest.mark.parametrize("r_w, r2, s", TINY_WELL)
def test_predarcy_from_a_tiny_well_radius_matches_mpmath(r_w, r2, s):
    scn = base_scenario("pure-preDarcy", s=s, r_w=r_w)
    got = zone_integral(scn, ZoneLaw.PRE_DARCY, r_w, r2)
    want = _beta_reference(scn, r_w, r2)
    assert float(abs(got - want) / want) <= 1e-13


# -s log(u1 / u2) / 2 below the normal range, where expm1 of it carries a few bits
@pytest.mark.parametrize("s", [5e-324, 1e-320, 2.3e-308, 1e-307])
def test_predarcy_narrow_bracket_at_a_subnormal_power_matches_mpmath(s):
    scn = base_scenario("pure-preDarcy", s=s, r_e=10.0, r_w=1.0)
    got = zone_integral(scn, ZoneLaw.PRE_DARCY, 1.0, 1.0001)
    want = reference_zone_integral(scn, ZoneLaw.PRE_DARCY, 1.0, 1.0001)
    assert float(abs(got - want) / want) <= 1e-13
