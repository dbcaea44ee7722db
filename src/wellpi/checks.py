"""Self-validation suite: every cross-check the package makes of itself.

Each check compares two independent routes to the same quantity (closed form
vs quadrature, zone integrals vs pressure profile, analytic inverse vs the
forward map, ...) and records the measured deviation next to its tolerance.
``run_all`` powers the ``validate`` CLI command; a fault multiplier is
threaded through so the harness can prove it actually detects a broken
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constitutive import (
    REGIME_PRESETS,
    FlowParameters,
    ZoneLaw,
    mobility,
    pressure_gradient,
    regime_preset,
)
from .kinematics import Geometry, Scenario, flux_density, radius_of_velocity, velocity_profile
from .productivity import compute_pi, compute_pis, zone_contributions
from .quadrature import (
    darcy_zone_integral,
    forchheimer_zone_integral,
    integrate_adaptive,
    predarcy_zone_integral,
)
from .reference import (
    BASE_ALPHA,
    BASE_BETA,
    BASE_H,
    BASE_LAMBDA,
    BASE_R_E,
    BASE_R_W,
    BASE_V_D,
    BASE_V_F,
)
from .validation import compressible_velocity, pi_from_profile, pressure_profile


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation property."""

    name: str
    passed: bool
    measured: float
    tolerance: str


def _base_params(s: float = 0.7, v_D: float = BASE_V_D, v_F: float = BASE_V_F) -> FlowParameters:
    return FlowParameters(
        alpha=BASE_ALPHA, beta=BASE_BETA, lambda_=BASE_LAMBDA, s=s, v_D=v_D, v_F=v_F
    )


def _base_scenario(regime: str, q_over_h: float = 1e-4, s: float = 0.7,
                   v_D: float = BASE_V_D, r_e: float = BASE_R_E) -> Scenario:
    return Scenario(
        geometry=Geometry(r_e=r_e, r_w=BASE_R_W, h=BASE_H),
        params=_base_params(s=s, v_D=v_D),
        regime=regime_preset(regime),
        q_over_h=q_over_h,
    )


def check_constitutive_inverse() -> CheckResult:
    """mobility(grad p) * grad p recovers v, where grad p = pressure_gradient(v)."""
    params = _base_params(s=0.3)
    worst = 0.0
    for law in (ZoneLaw.PRE_DARCY, ZoneLaw.DARCY, ZoneLaw.FORCHHEIMER):
        for xi in np.geomspace(1e-12, 1e2, 60):
            grad_p = pressure_gradient(params, law, float(xi))
            back = mobility(params, law, grad_p) * grad_p
            worst = max(worst, abs(back - xi) / xi)
    return CheckResult("constitutive-inverse-roundtrip", worst <= 1e-12, worst, "1e-12")


def check_radius_roundtrip() -> CheckResult:
    """radius_of_velocity(velocity_profile(r)) = r on log grids, both sizes."""
    worst = 0.0
    for r_e in (1000.0, 100.0):
        scn = _base_scenario("D", r_e=r_e)
        for r in np.geomspace(BASE_R_W, r_e, 100):
            back = radius_of_velocity(scn, velocity_profile(scn, float(r)))
            worst = max(worst, abs(back - r) / r)
    return CheckResult("inverse-radius-roundtrip", worst <= 1e-10, worst, "1e-10")


def check_closed_vs_quadrature(n_intervals: int = 100, seed: int = 20240814) -> CheckResult:
    """Closed-form S_D, S_F and S_pD match adaptive quadrature on random
    subintervals; S_pD with s drawn per interval from [0, 1], both ends included."""
    scn = _base_scenario("D")
    geo = scn.geometry
    a_flux = flux_density(scn)
    rng = np.random.default_rng(seed)
    intervals = np.sort(rng.uniform(geo.r_w, geo.r_e, size=(n_intervals, 2)), axis=1)
    powers = rng.uniform(0.0, 1.0, size=n_intervals)
    powers[:2] = (0.0, 1.0)
    worst = 0.0
    for (r1, r2), s in zip(intervals, powers):
        closed_d = darcy_zone_integral(scn, r1, r2)
        quad_d = scn.params.alpha * integrate_adaptive(
            lambda r: ((geo.r_e - r) * (geo.r_e + r)) ** 2 / r, r1, r2, rel_tol=1e-12
        ).value
        worst = max(worst, abs(closed_d - quad_d) / abs(quad_d))
        closed_f = forchheimer_zone_integral(scn, r1, r2)
        quad_f = quad_d + scn.params.beta * a_flux * integrate_adaptive(
            lambda r: ((geo.r_e - r) * (geo.r_e + r)) ** 3 / r**2, r1, r2, rel_tol=1e-12
        ).value
        worst = max(worst, abs(closed_f - quad_f) / abs(quad_f))
        scn_p = _base_scenario("DDpD", s=float(s))
        closed_p = predarcy_zone_integral(scn_p, r1, r2)
        quad_p = scn_p.params.lambda_ * a_flux ** (-s) * integrate_adaptive(
            lambda r: ((geo.r_e - r) * (geo.r_e + r)) ** (2.0 - s) * r ** (s - 1.0),
            r1, r2, rel_tol=1e-12,
        ).value
        worst = max(worst, abs(closed_p - quad_p) / abs(quad_p))
    return CheckResult("closed-form-vs-quadrature", worst <= 1e-9, worst, "1e-9")


def check_darcy_profile() -> CheckResult:
    """Quadrature pressure profile matches the all-Darcy antiderivative."""
    scn = _base_scenario("D")
    geo = scn.geometry
    a_flux = flux_density(scn)
    worst = 0.0
    for r in np.geomspace(geo.r_w * 1.01, geo.r_e, 40):
        w = pressure_profile(scn, float(r))
        exact = scn.params.alpha * a_flux * (
            geo.r_e**2 * math.log(r / geo.r_w) - (r - geo.r_w) * (r + geo.r_w) / 2.0
        )
        worst = max(worst, abs(w - exact) / exact)
    return CheckResult("darcy-profile-closed-form", worst <= 1e-10, worst, "1e-10")


def check_oracle_equivalence(fault_scale: float = 1.0) -> CheckResult:
    """Zone-integral PI and nested pressure-profile PI agree to 1e-6."""
    worst = 0.0
    for q_over_h in (1e-4, 1e-2):
        for s in (0.3, 0.7):
            scn = _base_scenario("D", q_over_h=q_over_h, s=s)  # compute_pis ignores its regime
            for pi in compute_pis(scn, tuple(REGIME_PRESETS.values())):
                scn_regime = replace(scn, regime=pi.regime)
                if fault_scale != 1.0:
                    denom = math.fsum(
                        c * (fault_scale if law is ZoneLaw.FORCHHEIMER else 1.0)
                        for c, law in zip(zone_contributions(scn_regime), pi.regime.laws())
                    )
                    geo = scn.geometry
                    j_closed = 2 * math.pi * geo.h * geo.radius_span_sq**2 / denom
                else:
                    j_closed = pi.j_raw
                j_profile = pi_from_profile(scn_regime).j_raw
                worst = max(worst, abs(j_closed - j_profile) / abs(j_profile))
    return CheckResult("oracle-equivalence", worst <= 1e-6, worst, "1e-6")


def check_darcy_flux_independence() -> CheckResult:
    """All-Darcy dimensionless PI is bit-identical across eleven flux decades."""
    values = {
        compute_pi(_base_scenario("D", q_over_h=q)).j_dimensionless
        for q in (2e-7, 1e-4, 1e-3, 5.95e-3, 1e-2, 3.18e-2, 1e-1, 1.0, 1e1, 1e4)
    }
    spread = max(values) - min(values)
    return CheckResult("darcy-flux-independence", len(values) == 1, spread, "bit-identical")


def check_forchheimer_monotonicity() -> CheckResult:
    """All-Forchheimer PI strictly decreases with flux."""
    grid = (2e-7, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e4)
    js = [compute_pi(_base_scenario("F", q_over_h=q)).j_dimensionless for q in grid]
    drops = [a - b for a, b in zip(js, js[1:])]
    return CheckResult("forchheimer-flux-monotonicity", min(drops) > 0, min(drops), "> 0")


def check_predarcy_monotonicity() -> CheckResult:
    """DDpD and FDpD PIs are nonincreasing in s for lambda = alpha, v_D < 1."""
    regimes = (regime_preset("DDpD"), regime_preset("FDpD"))
    js = [
        [pi.j_dimensionless for pi in compute_pis(_base_scenario("DDpD", s=s), regimes)]
        for s in np.linspace(0.0, 1.0, 11)
    ]
    worst = max(b - a for prev, cur in zip(js, js[1:]) for a, b in zip(prev, cur))
    return CheckResult("predarcy-s-monotonicity", worst <= 0.0, worst, "<= 0")


def check_fdpd_limit() -> CheckResult:
    """FDpD collapses to FDD when the slow zone vanishes (v_D = 0)."""
    j_fdpd, j_fdd = (
        pi.j_raw for pi in compute_pis(
            _base_scenario("FDpD", v_D=0.0), (regime_preset("FDpD"), regime_preset("FDD"))
        )
    )
    dev = abs(j_fdpd - j_fdd) / j_fdd
    return CheckResult("fdpd-vanishing-slow-zone", dev <= 1e-10, dev, "1e-10")


def gamma_scaled_scenario() -> Scenario:
    """Unit-scale coefficients keep the compressible correction perturbative."""
    return Scenario(
        geometry=Geometry(r_e=BASE_R_E, r_w=BASE_R_W, h=BASE_H),
        params=FlowParameters(
            alpha=1.0, beta=100.0, lambda_=1.0, s=0.7, v_D=1e-6, v_F=1e-4
        ),
        regime=regime_preset("FDpD"),
        q_over_h=1e-2,
    )


def check_gamma_linearity() -> CheckResult:
    """max |v_gamma - v| scales linearly in gamma (ratio about 10 per decade)."""
    scn = gamma_scaled_scenario()
    radii = np.linspace(scn.geometry.r_w, scn.geometry.r_e, 201)
    v_inc = np.array([velocity_profile(scn, float(r)) for r in radii])
    errs = {}
    for gamma in (1e-3, 1e-4):
        _, v_gamma = compressible_velocity(scn, gamma, radii)
        errs[gamma] = float(np.max(np.abs(v_gamma - v_inc)))
    ratio = errs[1e-3] / errs[1e-4]
    return CheckResult("gamma-linearity", 9.0 <= ratio <= 11.0, ratio, "[9, 11]")


def check_gamma_zero_identity() -> CheckResult:
    """gamma = 0 sweep returns the incompressible profile."""
    scn = gamma_scaled_scenario()
    radii = np.linspace(scn.geometry.r_w, scn.geometry.r_e, 101)
    _, v0 = compressible_velocity(scn, 0.0, radii)
    v_inc = np.array([velocity_profile(scn, float(r)) for r in radii])
    scale = velocity_profile(scn, scn.geometry.r_w)
    dev = float(np.max(np.abs(v0 - v_inc))) / scale
    return CheckResult("gamma-zero-identity", dev <= 1e-10, dev, "1e-10")


def run_all(fault_scale: float = 1.0) -> list[CheckResult]:
    """Run every validation property; the fault multiplier perturbs the
    Forchheimer contribution inside the oracle-equivalence check only."""
    return [
        check_constitutive_inverse(),
        check_radius_roundtrip(),
        check_closed_vs_quadrature(),
        check_darcy_profile(),
        check_oracle_equivalence(fault_scale=fault_scale),
        check_darcy_flux_independence(),
        check_forchheimer_monotonicity(),
        check_predarcy_monotonicity(),
        check_fdpd_limit(),
        check_gamma_zero_identity(),
        check_gamma_linearity(),
    ]
