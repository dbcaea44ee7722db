"""Closed-form S_D and S_F against a 40-digit mpmath reference.

The reference, ``helpers.reference_zone_integral`` as in
``test_predarcy_reference.py``, integrates the same binary radii at 40
significant digits, split at the series cut.  The
intervals cover each branch of the brackets: the closed form below the cut,
the series above it (from the cut itself, where it runs longest, and on a
sliver there), both across it, the precomputed tail [r1, r_e] for r1 between
r_e / 4 and the cut, and narrow intervals below the cut, where r2^k - r1^k and
log(r2 / r1) of the textbook antiderivative cancel to a few digits.  A
segment that starts within r_e / 4 and ends past the cut takes the closed
form whole, and is held to 4 eps on seeded intervals.
"""

import math
import random
import sys

import pytest

from wellpi import ZoneLaw, base_scenario, quadrature, zone_integral

from helpers import reference_zone_integral

mp = pytest.importorskip("mpmath")

R_E, R_W = 1000.0, 0.3
INTERVALS = {
    # [r1, r_e] from r1 <= r_e / 4 is the closed form whole, past the cut too
    "whole-annulus": (R_W, R_E),
    "from-well": (R_W, 120.0),
    "well-sliver": (R_W, R_W * (1.0 + 1e-8)),
    "boundary-sliver": (R_E * (1.0 - 1e-6), R_E),
    "tail-0.1": (0.1 * R_E, R_E),
    "tail-0.5": (0.5 * R_E, R_E),
    "tail-0.7499": (0.7499 * R_E, R_E),
    "across-series-cut": (700.0, 800.0),
    "outer-part": (760.0, 999.0),
    # r1 on the cut: the series at its largest x1 = 1 - 0.75^2, not the tail
    "from-series-cut": (0.75 * R_E, R_E),
    "cut-sliver": (750.0, 750.0 * (1.0 + 1e-9)),
    "narrow-100-1e-9": (100.0, 100.0 * (1.0 + 1e-9)),
    "narrow-100-1e-12": (100.0, 100.0 * (1.0 + 1e-12)),
    "narrow-700-1e-9": (700.0, 700.0 * (1.0 + 1e-9)),
    "narrow-700-1e-12": (700.0, 700.0 * (1.0 + 1e-12)),
}


# each law by its test id; at Q/h = 1 the inertial term of S_F is the larger
# part over the whole annulus
LAWS = {"S_D": ZoneLaw.DARCY, "S_F": ZoneLaw.FORCHHEIMER}


@pytest.mark.parametrize("law", list(LAWS))
@pytest.mark.parametrize("name", list(INTERVALS))
def test_closed_form_matches_mpmath(name, law):
    scn = base_scenario("F" if law == "S_F" else "D", q_over_h=1.0)
    r1, r2 = INTERVALS[name]
    got = zone_integral(scn, LAWS[law], r1, r2)
    with mp.workdps(40):
        want = reference_zone_integral(scn, LAWS[law], r1, r2)
        assert float(abs(got - want) / want) <= 1e-13


@pytest.mark.parametrize("r1, r2", [(750.0, 1000.0), (750.0, 800.0), (900.0, 900.0 * (1 + 1e-9))])
def test_series_law_from_its_exponent_alone(r1, r2):
    # a = 2, the quadratic term of a three-term law: nothing but the exponent
    # gives the series of int (r_e^2 - r^2)^4 / r^3 dr beyond the cut
    law = quadrature._x_law(None, 2)
    got = quadrature._x_series(law, R_E, r1, r2)
    with mp.workdps(40):
        r_e = mp.mpf(R_E)
        want = mp.quad(lambda r: (r_e**2 - r**2) ** 4 / r**3, [mp.mpf(r1), mp.mpf(r2)])
        assert float(abs(got - want) / want) <= 1e-15


@pytest.mark.parametrize("r_w", [1e-300, 1e-308, 1e-310, 5e-324])
def test_darcy_from_a_subnormal_well_radius_matches_its_antiderivative(r_w):
    # below about 4e-306, (750 - r_w) / r_w overflows, and log(r2 / r1) is
    # taken as log(d) - log(r1)
    scn = base_scenario("D", r_w=r_w)
    got = zone_integral(scn, ZoneLaw.DARCY, r_w, 0.75 * R_E)
    with mp.workdps(40):
        a, b, r_e = mp.mpf(r_w), mp.mpf(0.75 * R_E), mp.mpf(R_E)
        bracket = r_e**4 * mp.log(b / a) - r_e**2 * (b**2 - a**2) + (b**4 - a**4) / 4
        want = mp.mpf(scn.params.alpha) * bracket
        assert float(abs(got - want) / want) <= 1e-13


def _quarter_start_intervals():
    """(r_e, r1, r2) of segments that start within r_e / 4 and end past the
    series cut, by test id: the edges of that route, then seeded draws with
    r_e in 1..1e5, r1 / r_e log-uniform in 2.5e-5..0.25, r2 uniform past the cut."""
    rng = random.Random(1)

    def draw():
        r_e = 10.0 ** rng.uniform(0.0, 5.0)
        return r_e, 0.25 * r_e * 10.0 ** rng.uniform(-4.0, 0.0), r_e * rng.uniform(0.75, 1.0)

    edges = {
        "r1-at-a-quarter": lambda r_e, r1, r2: (r_e, 0.25 * r_e, r_e),
        "r1-3e-4": lambda r_e, r1, r2: (r_e, 3e-4 * r_e, r_e),
        "r1-0.1": lambda r_e, r1, r2: (r_e, 0.1 * r_e, r_e),
        "r2-at-r_e": lambda r_e, r1, r2: (r_e, r1, r_e),
        "r2-1e-12-short-of-r_e": lambda r_e, r1, r2: (r_e, r1, r_e * (1.0 - 1e-12)),
        "r2-past-the-cut": lambda r_e, r1, r2: (r_e, r1, math.nextafter(0.75 * r_e, math.inf)),
    }
    cases = {name: edge(*draw()) for name, edge in edges.items()}
    cases.update((f"drawn-{k}", draw()) for k in range(8))
    return cases


QUARTER_START = _quarter_start_intervals()


@pytest.mark.parametrize("law", list(LAWS))
@pytest.mark.parametrize("name", list(QUARTER_START))
def test_closed_form_from_within_a_quarter_of_r_e_is_within_4_eps(name, law):
    r_e, r1, r2 = QUARTER_START[name]
    assert r1 <= 0.25 * r_e and 0.75 * r_e < r2 <= r_e
    scn = base_scenario("F" if law == "S_F" else "D", q_over_h=1.0, r_e=r_e, r_w=r1)
    got = zone_integral(scn, LAWS[law], r1, r2)
    with mp.workdps(40):
        want = reference_zone_integral(scn, LAWS[law], r1, r2)
        assert float(abs(got - want) / want) <= 4 * sys.float_info.epsilon
