"""Constitutive law branches, their inverses and the regime presets."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from wellpi import (
    REGIME_PRESETS,
    ZoneLaw,
    base_scenario,
    law_for_speed,
    mobility,
    pressure_gradient,
    preset_name,
    regime_preset,
)
from wellpi.constitutive import drag_power


def params(s=0.3, **overrides):
    return base_scenario("D", s=s, **overrides).params


# ---------------------------------------------------------------------------
# pressure_gradient: |grad p| = g(v) v, so the resistance is g = |grad p| / v
# ---------------------------------------------------------------------------

def test_darcy_resistance_is_constant():
    p = params()
    assert pressure_gradient(p, ZoneLaw.DARCY, 1e-6) == 1.01e10 * 1e-6
    assert pressure_gradient(p, ZoneLaw.DARCY, 123.0) == 1.01e10 * 123.0


def test_predarcy_resistance_power_law():
    # direct power evaluation: 1.01e10 * (1e-7)**(1 - 0.3) = 1.01e10 * 10**-4.9
    p = params(s=0.3)
    expected = 1.01e10 * 10.0**-4.9
    assert pressure_gradient(p, ZoneLaw.PRE_DARCY, 1e-7) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.2715146659e5, rel=1e-9)


def test_forchheimer_resistance_linear_in_speed():
    p = params()
    expected = (1.01e10 + 2.4318e11 * 1e-5) * 1e-5
    assert pressure_gradient(p, ZoneLaw.FORCHHEIMER, 1e-5) == pytest.approx(expected, rel=1e-15)


def test_resistance_domain_errors():
    p = params(s=0.3)
    for law in ZoneLaw:
        # NaN and inf once came back as NaN and inf
        for speed in (-1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="speed"):
                pressure_gradient(p, law, speed)
    # g = lambda v^-s is singular at zero speed for s > 0, but g(v) v is not:
    # it vanishes for s < 1, and at s = 1 it is lambda at every speed
    assert pressure_gradient(params(s=0.0), ZoneLaw.PRE_DARCY, 0.0) == 0.0
    assert pressure_gradient(params(s=0.3), ZoneLaw.PRE_DARCY, 0.0) == 0.0
    assert pressure_gradient(params(s=1.0), ZoneLaw.PRE_DARCY, 0.0) == 1.01e10
    assert pressure_gradient(params(s=1.0), ZoneLaw.PRE_DARCY, 1e-3) == 1.01e10


def test_resistance_monotonicity_by_branch():
    p = params(s=0.5)
    speeds = [10.0**e for e in range(-9, 0)]
    pre = [pressure_gradient(p, ZoneLaw.PRE_DARCY, v) / v for v in speeds]
    assert all(a > b for a, b in zip(pre, pre[1:]))
    forch = [pressure_gradient(p, ZoneLaw.FORCHHEIMER, v) / v for v in speeds]
    assert all(a < b for a, b in zip(forch, forch[1:]))


# ---------------------------------------------------------------------------
# mobility
# ---------------------------------------------------------------------------

def test_mobility_darcy_is_reciprocal_alpha():
    p = params()
    assert mobility(p, ZoneLaw.DARCY, 12345.0) == 1.0 / 1.01e10
    assert mobility(p, ZoneLaw.DARCY, 0.0) == pytest.approx(9.90099e-11, rel=1e-6)


def test_mobility_forchheimer_degenerates_at_zero_beta():
    p = params(beta=0.0)
    assert mobility(p, ZoneLaw.FORCHHEIMER, 1e3) == pytest.approx(1.0 / p.alpha, rel=1e-15)


def test_mobility_predarcy_s0_collapses_to_darcy():
    p = params(s=0.0, lambda_=1.01e10)
    assert mobility(p, ZoneLaw.PRE_DARCY, 1e3) == pytest.approx(1.0 / p.alpha, rel=1e-15)


def test_mobility_domain_errors():
    with pytest.raises(ValueError):
        mobility(params(s=1.0), ZoneLaw.PRE_DARCY, 1e3)
    with pytest.raises(ValueError):
        mobility(params(s=0.5), ZoneLaw.PRE_DARCY, 0.0)
    with pytest.raises(ValueError):
        mobility(params(), ZoneLaw.DARCY, -1.0)
    with pytest.raises(ValueError):
        mobility(params(), ZoneLaw.DARCY, math.nan)


@pytest.mark.parametrize("law", [ZoneLaw.DARCY, ZoneLaw.FORCHHEIMER, ZoneLaw.PRE_DARCY])
def test_mobility_rejects_infinite_gradient(law):
    # inf once gave 1/alpha, 0.0 and inf on the three branches
    with pytest.raises(ValueError, match="grad_p"):
        mobility(params(s=0.5), law, math.inf)


@pytest.mark.parametrize("law", [ZoneLaw.PRE_DARCY, ZoneLaw.DARCY, ZoneLaw.FORCHHEIMER])
@pytest.mark.parametrize("s", [0.0, 0.3, 0.6562, 0.99])
def test_inverse_consistency(law, s):
    # K(g(v) v) * g(v) v recovers v on every branch (s = 1 excluded by design)
    p = params(s=s)
    for exponent in range(-12, 3):
        xi = 10.0**exponent
        grad_p = pressure_gradient(p, law, xi)
        assert mobility(p, law, grad_p) * grad_p == pytest.approx(xi, rel=1e-12)


# ---------------------------------------------------------------------------
# composite law continuity
# ---------------------------------------------------------------------------

def test_continuous_predarcy_rescaling_joins_branches():
    p = params(s=0.6).with_continuous_predarcy()
    assert p.lambda_ == pytest.approx(p.alpha * p.v_D**0.6, rel=1e-15)
    at_junction = pressure_gradient(p, ZoneLaw.PRE_DARCY, p.v_D)
    assert at_junction == pytest.approx(pressure_gradient(p, ZoneLaw.DARCY, p.v_D), rel=1e-12)


def test_forchheimer_junction_jump_is_beta_v_f():
    p = params()
    jump = pressure_gradient(p, ZoneLaw.FORCHHEIMER, p.v_F) - pressure_gradient(p, ZoneLaw.DARCY, p.v_F)
    assert jump / p.v_F == pytest.approx(p.beta * p.v_F, rel=1e-12)


def test_continuous_predarcy_requires_positive_v_d():
    with pytest.raises(ValueError):
        params(v_D=0.0).with_continuous_predarcy()


# ---------------------------------------------------------------------------
# parameter invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        dict(alpha=0.0),
        dict(alpha=-1.0),
        dict(beta=-1.0),
        dict(lambda_=0.0),
        dict(s=-0.1),
        dict(s=1.1),
        dict(v_D=-1e-9),
        dict(v_D=2e-5),  # above v_F
        dict(v_F=math.inf),
    ],
)
def test_flow_parameter_invariants(bad):
    with pytest.raises(ValueError):
        params(**bad)


def test_s_equal_one_is_accepted():
    assert params(s=1.0).s == 1.0


# ---------------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------------

def test_preset_table():
    fdpd = regime_preset("FDpD")
    assert fdpd.laws() == (ZoneLaw.FORCHHEIMER, ZoneLaw.DARCY, ZoneLaw.PRE_DARCY)
    assert regime_preset("D").laws() == (ZoneLaw.DARCY,) * 3
    assert regime_preset("pure-preDarcy").laws() == (ZoneLaw.PRE_DARCY,) * 3
    assert regime_preset("FpDpD").laws() == (
        ZoneLaw.FORCHHEIMER, ZoneLaw.PRE_DARCY, ZoneLaw.PRE_DARCY,
    )
    assert len(REGIME_PRESETS) == 7


def test_preset_lookup_is_forgiving():
    assert regime_preset("fdpd") == regime_preset("FDpD")
    assert regime_preset("purepredarcy") == regime_preset("pure-preDarcy")
    with pytest.raises(ValueError):
        regime_preset("XYZ")


def test_preset_names_round_trip():
    for name, regime in REGIME_PRESETS.items():
        assert preset_name(regime) == name


def test_law_for_speed_zone_boundaries():
    p = params()
    fdpd = regime_preset("FDpD")
    assert law_for_speed(p, fdpd, 1e-4) is ZoneLaw.FORCHHEIMER
    assert law_for_speed(p, fdpd, p.v_F) is ZoneLaw.FORCHHEIMER
    assert law_for_speed(p, fdpd, 1e-6) is ZoneLaw.DARCY
    assert law_for_speed(p, fdpd, p.v_D) is ZoneLaw.DARCY
    assert law_for_speed(p, fdpd, 1e-8) is ZoneLaw.PRE_DARCY
    for speed in (-1.0, math.nan, math.inf):  # NaN was once a pre-Darcy speed
        with pytest.raises(ValueError, match="speed"):
            law_for_speed(p, fdpd, speed)


def test_drag_power_of_non_finite_speed_is_nan():
    # a blown-up RK trial step lands here; NaN makes the controller reject
    # it (inf once gave inf)
    fdpd = regime_preset("FDpD")
    for speed in (math.nan, math.inf, -math.inf):
        assert math.isnan(drag_power(params(), fdpd, speed))


def test_drag_power_vanishes_at_zero_speed():
    p = params(s=0.7)
    fdpd = regime_preset("FDpD")
    assert drag_power(p, fdpd, 0.0) == 0.0
    v = 2e-6
    assert drag_power(p, fdpd, v) == pytest.approx(p.alpha * v * v, rel=1e-15)
    v = 1e-8
    assert drag_power(p, fdpd, v) == pytest.approx(p.lambda_ * v ** (2 - p.s), rel=1e-15)
    # every law vanishes at zero speed, the flux-independent s = 1 one too
    assert drag_power(params(s=1.0), regime_preset("pure-preDarcy"), 0.0) == 0.0


@pytest.mark.parametrize("regime", ["FDpD", "FpDpD", "pure-preDarcy"])
def test_drag_power_is_the_checked_law_times_the_speed(regime):
    # drag_power checks its speed once and runs the law unchecked; the value
    # is that of the checked route, on both sides of both critical speeds
    p, assignment = params(s=0.7), regime_preset(regime)
    for v in (0.0, 1e-9, p.v_D, 3e-7, p.v_F, 1e-3, 1e3):
        law = law_for_speed(p, assignment, v)
        expected = pressure_gradient(p, law, v) * v
        assert drag_power(p, assignment, v) == expected
        assert drag_power(p, assignment, -v) == expected


def test_pressure_gradient_takes_one_coefficient_per_speed():
    # arrays of coefficients, as the batched oracle passes them: each speed
    # gets what its own coefficients give it as floats
    speeds = np.array([1e-9, 1e-7, 1e-5, 1e-3])
    powers = np.array([0.0, 0.3, 1.0, 5e-324])
    base = params()
    coefficients = SimpleNamespace(alpha=base.alpha, beta=base.beta, lambda_=base.lambda_, s=powers)
    for law in ZoneLaw:
        got = pressure_gradient(coefficients, law, speeds)
        for v, s, g in zip(speeds.tolist(), powers.tolist(), got.tolist()):
            assert g == pytest.approx(pressure_gradient(params(s=s), law, v), rel=1e-15)

