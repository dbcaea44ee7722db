"""Pressure-profile oracle, energy identity and the compressible sweep."""

import math

import numpy as np
import pytest

import wellpi.quadrature
import wellpi.validation
from wellpi import (
    compressible_velocity,
    compute_pi,
    dimensionless_factor,
    flux_density,
    integrate_adaptive,
    partition_zones,
    pi_from_energy,
    pi_from_profile,
    pressure_profile,
    velocity_profile,
    zone_contributions,
    zone_segments,
)
from wellpi.checks import gamma_scaled_scenario
from wellpi.constitutive import drag_power
from wellpi.kinematics import zone_bounds

from helpers import make_scenario


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


# ---------------------------------------------------------------------------
# PI from the profile
# ---------------------------------------------------------------------------

def test_profile_pi_darcy_published():
    scn = make_scenario("D")
    assert pi_from_profile(scn) * dimensionless_factor(scn) == pytest.approx(0.1358, rel=0.01)


def test_profile_pi_fdpd_published():
    scn = make_scenario("FDpD", s=0.7)
    assert pi_from_profile(scn) * dimensionless_factor(scn) == pytest.approx(5.65e-6, rel=0.01)


def test_profile_pi_beta_zero_equals_darcy():
    j_f = pi_from_profile(make_scenario("F", beta=0.0))
    j_d = pi_from_profile(make_scenario("D", beta=0.0))
    assert j_f == pytest.approx(j_d, rel=1e-9)


@pytest.mark.parametrize("regime", ["D", "F", "FDD", "DDpD", "FDpD", "FpDpD", "pure-preDarcy"])
def test_profile_pi_agrees_with_zone_integrals(regime):
    scn = make_scenario(regime, q_over_h=1e-2, s=0.5)
    j_closed = compute_pi(scn).j_raw
    j_profile = pi_from_profile(scn)
    assert j_profile == pytest.approx(j_closed, rel=1e-6)


@pytest.mark.parametrize("regime", ["F", "FDpD", "pure-preDarcy"])
def test_profile_pi_matches_fresh_profile_at_every_node(regime, monkeypatch):
    # reference: W(r) integrated afresh from r_w at every outer node, then
    # r W(r) integrated over each segment of [r_w, r_e]
    scn = make_scenario(regime, q_over_h=1e-2, s=0.7)
    accepted = []  # per inner gap: did its batched first panel pass?
    converged = wellpi.validation._converged

    def spy(*args):
        accepted.append(converged(*args))
        return accepted[-1]

    monkeypatch.setattr(wellpi.validation, "_converged", spy)
    geo = scn.geometry

    def r_times_w(radii):
        return np.array([r * pressure_profile(scn, float(r)) for r in radii])

    total_rw = sum(
        integrate_adaptive(r_times_w, a, b, rel_tol=1e-9).value
        for a, b, _ in zone_segments(scn)
    )
    reference = scn.q * geo.radius_span_sq / (2.0 * total_rw)
    assert pi_from_profile(scn) == pytest.approx(reference, rel=1e-9)
    # both the batched first panels and the adaptive fallback were exercised
    assert 0 < accepted.count(False) < accepted.count(True)


@pytest.mark.parametrize("regime,calls", [("FDpD", 3), ("D", 1)])
def test_profile_pi_takes_each_zone_energy_once(regime, calls, monkeypatch):
    # one energy per merged segment: FDpD has three one-zone segments,
    # D the one segment [r_w, r_e]
    seen = []
    zone_energy = wellpi.validation._zone_energy

    def spy(scn, law, lo, hi):
        seen.append((lo, hi, law))
        return zone_energy(scn, law, lo, hi)

    monkeypatch.setattr(wellpi.validation, "_zone_energy", spy)
    pi_from_profile(make_scenario(regime))
    assert len(seen) == calls
    assert len(set(seen)) == calls


def test_profile_pi_uses_no_closed_form(monkeypatch):
    # the oracle must stay independent of the zone integrals it checks
    def refuse(*args, **kwargs):
        raise AssertionError("closed-form zone integral called by the oracle")

    for name in ("_x_bracket", "_predarcy_bracket"):
        monkeypatch.setattr(wellpi.quadrature, name, refuse)
    assert pi_from_profile(make_scenario("FDpD", q_over_h=1e-2)) > 0


def test_energy_route_agrees_with_profile_route():
    scn = make_scenario("FDpD", s=0.3)
    assert pi_from_energy(scn) == pytest.approx(pi_from_profile(scn), rel=1e-8)


def test_energy_pi_out_of_float_range_raises():
    # 2 pi h underflows, so Q^2 / (2 pi h E) would come out as 0.0
    with pytest.raises(FloatingPointError):
        pi_from_energy(make_scenario("FDpD", h=1e-320))


def test_profile_pi_out_of_float_range_raises():
    # both routes give 0.0 here, so their consistency check alone passes
    with pytest.raises(FloatingPointError):
        pi_from_profile(make_scenario("D", h=1e-320))


def test_zone_energies_match_zone_contributions():
    # a zone's drag energy is A^2 times its S value, so the quadrature energy
    # of each zone cross-checks its closed-form contribution
    scn = make_scenario("FDpD")
    a_flux = flux_density(scn)
    zones = zone_bounds(scn, partition_zones(scn), scn.regime)
    for (lo, hi, law), contribution in zip(zones, zone_contributions(scn)):
        energy = wellpi.validation._zone_energy(scn, law, lo, hi)
        assert energy / (a_flux * a_flux) == pytest.approx(contribution, rel=1e-8)


# ---------------------------------------------------------------------------
# compressible sweep
# ---------------------------------------------------------------------------

def test_gamma_zero_returns_incompressible_profile():
    scn = gamma_scaled_scenario()
    radii = np.linspace(0.3, 1000.0, 101)
    _, v0 = compressible_velocity(scn, 0.0, radii)
    expected = np.array([velocity_profile(scn, float(r)) for r in radii])
    scale = velocity_profile(scn, 0.3)
    assert np.max(np.abs(v0 - expected)) <= 1e-10 * scale


def test_gamma_error_scales_linearly():
    scn = gamma_scaled_scenario()
    radii = np.linspace(0.3, 1000.0, 201)
    expected = np.array([velocity_profile(scn, float(r)) for r in radii])
    errs = {}
    for gamma in (1e-3, 1e-4):
        _, v_gamma = compressible_velocity(scn, gamma, radii)
        errs[gamma] = float(np.max(np.abs(v_gamma - expected)))
    assert 9.0 <= errs[1e-3] / errs[1e-4] <= 11.0


def test_compressible_exceeds_incompressible():
    # the gamma source only adds inflow, so v_gamma >= v everywhere
    scn = gamma_scaled_scenario()
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
    scn = gamma_scaled_scenario()
    with pytest.raises(ValueError):
        compressible_velocity(scn, -1e-9, [0.3, 1000.0])
    with pytest.raises(ValueError):
        compressible_velocity(scn, 0.0, [0.1, 10.0])
    # no radius, and NaN radii, which the range test once let through
    for radii in ([], [math.nan], [0.3, math.nan, 500.0]):
        with pytest.raises(ValueError):
            compressible_velocity(scn, 1e-3, radii)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_compressible_rejects_non_finite_gamma(gamma):
    # nan and inf once slipped past `gamma < 0` and ended in StepSizeUnderflow
    with pytest.raises(ValueError, match="gamma"):
        compressible_velocity(gamma_scaled_scenario(), gamma, [0.3, 1000.0])
