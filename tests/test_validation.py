"""Pressure-profile oracle, energy identity and the compressible sweep."""

import math

import numpy as np
import pytest

import wellpi.quadrature
from wellpi import (
    FlowParameters,
    Geometry,
    Scenario,
    compressible_velocity,
    compute_pi,
    flux_density,
    integrate_adaptive,
    pi_from_energy,
    pi_from_profile,
    pressure_profile,
    regime_preset,
    sample_profile,
    velocity_profile,
    zone_segments,
)
from wellpi.constitutive import drag_power

from helpers import make_scenario


def scaled_scenario(**overrides):
    """Unit-scale coefficients: the compressible correction stays perturbative."""
    knobs = dict(alpha=1.0, beta=100.0, lambda_=1.0, s=0.7, v_D=1e-6, v_F=1e-4,
                 q_over_h=1e-2)
    knobs.update(overrides)
    return Scenario(
        geometry=Geometry(r_e=1000.0, r_w=0.3, h=10.0),
        params=FlowParameters(
            alpha=knobs["alpha"], beta=knobs["beta"], lambda_=knobs["lambda_"],
            s=knobs["s"], v_D=knobs["v_D"], v_F=knobs["v_F"],
        ),
        regime=regime_preset(knobs.get("regime", "FDpD")),
        q_over_h=knobs["q_over_h"],
    )


# ---------------------------------------------------------------------------
# pressure profile
# ---------------------------------------------------------------------------

def test_profile_is_zero_at_the_well():
    scn = make_scenario("FDpD")
    assert pressure_profile(scn, scn.geometry.r_w) == 0.0


def test_profile_nondecreasing():
    scn = make_scenario("FDpD")
    radii = np.geomspace(0.3, 1000.0, 40)
    values = [pressure_profile(scn, float(r)) for r in radii]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_profile_matches_darcy_antiderivative():
    # W(r) = alpha A [re^2 ln(r / rw) - (r^2 - rw^2)/2] for the all-Darcy regime
    scn = make_scenario("D")
    geo = scn.geometry
    a = flux_density(scn)
    for r in (0.5, 3.0, 55.0, 400.0, 1000.0):
        exact = scn.params.alpha * a * (
            geo.r_e**2 * math.log(r / geo.r_w) - (r**2 - geo.r_w**2) / 2.0
        )
        assert pressure_profile(scn, r) == pytest.approx(exact, rel=1e-10)


def test_profile_out_of_range():
    scn = make_scenario("D")
    with pytest.raises(ValueError):
        pressure_profile(scn, 0.1)


def test_sample_profile_fields():
    scn = make_scenario("FDpD")
    samples = sample_profile(scn, [0.3, 10.0, 1000.0])
    assert samples[0].w == 0.0
    assert samples[-1].v == 0.0
    for smp in samples:
        assert smp.v == velocity_profile(scn, smp.r)


# ---------------------------------------------------------------------------
# PI from the profile
# ---------------------------------------------------------------------------

def test_profile_pi_darcy_published():
    pi = pi_from_profile(make_scenario("D"))
    assert pi.j_dimensionless == pytest.approx(0.1358, rel=0.01)


def test_profile_pi_fdpd_published():
    pi = pi_from_profile(make_scenario("FDpD", s=0.7))
    assert pi.j_dimensionless == pytest.approx(5.65e-6, rel=0.01)


def test_profile_pi_beta_zero_equals_darcy():
    j_f = pi_from_profile(make_scenario("F", beta=0.0)).j_raw
    j_d = pi_from_profile(make_scenario("D", beta=0.0)).j_raw
    assert j_f == pytest.approx(j_d, rel=1e-9)


@pytest.mark.parametrize("regime", ["D", "F", "FDD", "DDpD", "FDpD", "FpDpD", "pure-preDarcy"])
def test_profile_pi_agrees_with_zone_integrals(regime):
    scn = make_scenario(regime, q_over_h=1e-2, s=0.5)
    j_closed = compute_pi(scn).j_raw
    j_profile = pi_from_profile(scn).j_raw
    assert j_profile == pytest.approx(j_closed, rel=1e-6)


@pytest.mark.parametrize("regime", ["F", "FDpD", "pure-preDarcy"])
def test_profile_pi_matches_fresh_profile_at_every_node(regime):
    # reference: W(r) integrated afresh from r_w at every outer node, then
    # r W(r) integrated over each segment of [r_w, r_e]
    scn = make_scenario(regime, q_over_h=1e-2, s=0.7)
    geo = scn.geometry

    def r_times_w(radii):
        return np.array([r * pressure_profile(scn, float(r)) for r in radii])

    total_rw = sum(
        integrate_adaptive(r_times_w, a, b, rel_tol=1e-9).value
        for a, b, _ in zone_segments(scn)
    )
    reference = scn.q * geo.radius_span_sq / (2.0 * total_rw)
    assert pi_from_profile(scn).j_raw == pytest.approx(reference, rel=1e-9)


def test_profile_pi_uses_no_closed_form(monkeypatch):
    # the oracle must stay independent of the zone integrals it checks
    def refuse(*args, **kwargs):
        raise AssertionError("closed-form zone integral called by the oracle")

    for name in ("_darcy_bracket", "_forch_bracket", "_predarcy_bracket"):
        monkeypatch.setattr(wellpi.quadrature, name, refuse)
    assert pi_from_profile(make_scenario("FDpD", q_over_h=1e-2)).j_raw > 0


def test_energy_route_agrees_with_profile_route():
    scn = make_scenario("FDpD", s=0.3)
    assert pi_from_energy(scn) == pytest.approx(pi_from_profile(scn).j_raw, rel=1e-8)


def test_profile_pi_contributions_match_zone_integrals():
    scn = make_scenario("FDpD")
    by_profile = pi_from_profile(scn).contributions
    by_integrals = compute_pi(scn).contributions
    for a, b in zip(by_profile, by_integrals):
        assert a == pytest.approx(b, rel=1e-8)


# ---------------------------------------------------------------------------
# compressible sweep
# ---------------------------------------------------------------------------

def test_gamma_zero_returns_incompressible_profile():
    scn = scaled_scenario()
    radii = np.linspace(0.3, 1000.0, 101)
    _, v0 = compressible_velocity(scn, 0.0, radii)
    expected = np.array([velocity_profile(scn, float(r)) for r in radii])
    scale = velocity_profile(scn, 0.3)
    assert np.max(np.abs(v0 - expected)) <= 1e-10 * scale


def test_gamma_error_scales_linearly():
    scn = scaled_scenario()
    radii = np.linspace(0.3, 1000.0, 201)
    expected = np.array([velocity_profile(scn, float(r)) for r in radii])
    errs = {}
    for gamma in (1e-3, 1e-4):
        _, v_gamma = compressible_velocity(scn, gamma, radii)
        errs[gamma] = float(np.max(np.abs(v_gamma - expected)))
    assert 9.0 <= errs[1e-3] / errs[1e-4] <= 11.0


def test_compressible_exceeds_incompressible():
    # the gamma source only adds inflow, so v_gamma >= v everywhere
    scn = scaled_scenario()
    radii = np.linspace(0.3, 1000.0, 101)
    _, v_gamma = compressible_velocity(scn, 1e-3, radii)
    expected = np.array([velocity_profile(scn, float(r)) for r in radii])
    assert np.all(v_gamma >= expected - 1e-14)


def test_compressible_integral_identity_physical_gamma():
    # r (v_gamma - v) = gamma * int_r^re rho g(v_gamma) v_gamma^2 drho; check the
    # returned samples against a trapezoid evaluation of their own drag power.
    # All-Darcy keeps the drag smooth, which is what trapezoid can verify.
    scn = make_scenario("D")
    gamma = 1e-8
    radii = np.geomspace(0.3, 1000.0, 3001)
    r, v_gamma = compressible_velocity(scn, gamma, radii)
    v_inc = np.array([velocity_profile(scn, float(x)) for x in r])
    drag = np.array([x * drag_power(scn.params, scn.regime, v) for x, v in zip(r, v_gamma)])
    segments = (drag[1:] + drag[:-1]) / 2.0 * np.diff(r)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])  # int from r_w to r
    lhs = r * (v_gamma - v_inc)
    rhs = gamma * (cumulative[-1] - cumulative)  # int from r to r_e
    scale = float(np.max(np.abs(lhs)))
    assert scale > 0
    assert np.max(np.abs(lhs - rhs)) <= 0.01 * scale


def test_compressible_physical_fdpd_is_finite_and_ordered():
    # with the published physical parameters the correction is large but the
    # sweep must stay finite and above the incompressible profile
    scn = make_scenario("FDpD")
    radii = np.geomspace(0.3, 1000.0, 201)
    r, v_gamma = compressible_velocity(scn, 1e-8, radii)
    v_inc = np.array([velocity_profile(scn, float(x)) for x in r])
    assert np.all(np.isfinite(v_gamma))
    assert np.all(v_gamma >= v_inc - 1e-14)


def test_compressible_rejects_bad_inputs():
    scn = scaled_scenario()
    with pytest.raises(ValueError):
        compressible_velocity(scn, -1e-9)
    with pytest.raises(ValueError):
        compressible_velocity(scn, 0.0, [0.1, 10.0])
