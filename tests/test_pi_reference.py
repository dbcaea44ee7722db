"""Whole PIs against a 40-digit reference.

``helpers.reference_pi`` evaluates each zone of the scenario's regime in
mpmath closed form on the engine's own float radii, so the comparison covers
the term runs, the brackets' routes, the coefficients and the summation that
the engine uses, over every preset and arbitrary law triple, at fluxes that
clamp either critical radius, with v_D = 0, s at 0, 1 and between, and
r_w / r_e up to 1 - 1e-12.  At a subnormal s the pre-Darcy law is Darcy's
limit, which the presets and their zone contributions are held to as well.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from wellpi import (
    REGIME_PRESETS,
    RegimeAssignment,
    ZoneLaw,
    base_scenario,
    compute_pi,
    regime_preset,
    zone_contributions,
)

from helpers import reference_pi, reference_zone_contributions

mp = pytest.importorskip("mpmath")

# the worst error seen over 2,000 draws of wider ranges was 4.3e-15
PI_RTOL = 1e-13

REGIMES = st.one_of(
    st.sampled_from(sorted(REGIME_PRESETS)).map(regime_preset),
    st.sampled_from([RegimeAssignment(*laws) for laws in itertools.product(ZoneLaw, repeat=3)]),
)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@settings(max_examples=150, deadline=None)
# -s log(rho) / 2 is subnormal here, so S_pD's first term must take its s -> 0 limit
@example(regime=RegimeAssignment(ZoneLaw.PRE_DARCY, ZoneLaw.DARCY, ZoneLaw.PRE_DARCY), r_e=10.0,
         r_w_over_r_e=0.1, s=2.225073858507e-311, v_D=0.0, v_F=1e-8, alpha=1e8, beta=1e8,
         lambda_=1e9, q_over_h=1e-7)
@given(
    regime=REGIMES,
    r_e=_decades(0.0, 5.0),
    r_w_over_r_e=st.one_of(_decades(-6.0, -0.05), st.integers(1, 12).map(lambda k: 1.0 - 10.0**-k)),
    s=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    v_D=st.one_of(st.just(0.0), _decades(-9.0, -5.0)),
    v_F=_decades(-8.0, -3.0),
    alpha=_decades(8.0, 13.0),
    beta=_decades(8.0, 13.0),
    lambda_=_decades(8.0, 13.0),
    q_over_h=_decades(-12.0, 6.0),
)
def test_pi_matches_the_40_digit_reference(regime, r_e, r_w_over_r_e, s, v_D, v_F, alpha, beta,
                                           lambda_, q_over_h):
    scn = base_scenario(regime, r_e=r_e, r_w=r_w_over_r_e * r_e, s=s, v_D=v_D, v_F=max(v_D, v_F),
                        alpha=alpha, beta=beta, lambda_=lambda_, q_over_h=q_over_h)
    j = compute_pi(scn).j_raw
    ref = reference_pi(scn)
    assert abs(j - ref) <= PI_RTOL * ref


@pytest.mark.parametrize("s", [5e-324, 1e-320, 1e-315, 2.225073858507e-311, 1e-310, 2.3e-308, 1e-307])
@pytest.mark.parametrize("preset", ["DDpD", "FDpD", "FpDpD", "pure-preDarcy"])
def test_pi_at_a_subnormal_power_is_the_darcy_limit(preset, s):
    scn = base_scenario(preset, s=s)
    ref = reference_pi(scn)
    assert abs(compute_pi(scn).j_raw - ref) <= PI_RTOL * ref
    # pi's S lines take the same kernel zone by zone
    for got, want in zip(zone_contributions(scn), reference_zone_contributions(scn), strict=True):
        assert abs(got - want) <= PI_RTOL * want
