"""Self-validation suite: every cross-check the package makes of itself.

Each check compares two independent routes to the same quantity (closed form
vs quadrature, zone integrals vs pressure profile, analytic inverse vs the
forward map, ...) and records the measured deviation next to its tolerance.
``run_all`` powers the ``validate`` CLI command; a fault flag is threaded
through so the harness can prove it actually detects a broken integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .constitutive import REGIME_PRESETS, ZoneLaw, mobility, pressure_gradient, regime_preset
from .kinematics import Scenario, flux_density, radius_of_velocity, velocity_profile
from .productivity import compute_curve, compute_pi, zone_contributions
from .quadrature import zone_integral
from .reference import base_scenario
from .validation import (
    _INNER_REL_TOL,
    _integrate_batch,
    compressible_velocity,
    pi_from_profile,
    pressure_profile,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one validation property."""

    name: str
    passed: bool
    measured: float
    tolerance: str


def check_constitutive_inverse() -> CheckResult:
    """mobility(grad p) * grad p recovers v, where grad p = pressure_gradient(v)."""
    params = base_scenario("D", s=0.3).params
    worst = 0.0
    for law in (ZoneLaw.PRE_DARCY, ZoneLaw.DARCY, ZoneLaw.FORCHHEIMER):
        for xi in np.geomspace(1e-12, 1e2, 60).tolist():
            grad_p = pressure_gradient(params, law, xi)
            back = mobility(params, law, grad_p) * grad_p
            worst = max(worst, abs(back - xi) / xi)
    return CheckResult("constitutive-inverse-roundtrip", worst <= 1e-12, worst, "1e-12")


def check_radius_roundtrip() -> CheckResult:
    """radius_of_velocity(velocity_profile(r)) = r on log grids, both sizes."""
    worst = 0.0
    for r_e in (1000.0, 100.0):
        scn = base_scenario("D", r_e=r_e)
        for r in np.geomspace(scn.geometry.r_w, r_e, 100).tolist():
            back = radius_of_velocity(scn, velocity_profile(scn, r))
            worst = max(worst, abs(back - r) / r)
    return CheckResult("inverse-radius-roundtrip", worst <= 1e-10, worst, "1e-10")


# random subintervals of check_closed_vs_quadrature, and their seed
_QUAD_INTERVALS = 100
_QUAD_SEED = 20240814


def check_closed_vs_quadrature() -> CheckResult:
    """Closed-form S_D, S_F and S_pD match quadrature of each law's drag energy,
    divided by A^2, on random subintervals; s is drawn per interval from
    [0, 1], both ends included.  The 3 x 100 integrals are one batch of the
    oracle integrator in one reservoir at one flux, and each integrand call
    runs each law once, on the coefficients of its nodes."""
    rng = np.random.default_rng(_QUAD_SEED)
    scn = base_scenario("D")
    geo, params = scn.geometry, scn.params
    intervals = np.sort(rng.uniform(geo.r_w, geo.r_e, size=(_QUAD_INTERVALS, 2)), axis=1)
    powers = rng.uniform(0.0, 1.0, size=_QUAD_INTERVALS)
    powers[:2] = (0.0, 1.0)
    laws = tuple(ZoneLaw)
    n_laws = len(laws)
    # integral j is interval j % _QUAD_INTERVALS under law laws[j // _QUAD_INTERVALS]
    law_starts = [_QUAD_INTERVALS * i for i in range(1, n_laws)]

    def energy(r: np.ndarray, k: np.ndarray) -> np.ndarray:
        v = velocity_profile(scn, r)
        cuts = [0, *np.searchsorted(k, law_starts).tolist(), len(r)]
        out = np.empty_like(r)
        for law, i, j in zip(laws, cuts, cuts[1:]):
            coefficients = SimpleNamespace(
                alpha=params.alpha, beta=params.beta, lambda_=params.lambda_,
                s=powers[k[i:j] % _QUAD_INTERVALS],
            )
            out[i:j] = r[i:j] * pressure_gradient(coefficients, law, v[i:j]) * v[i:j]
        return out

    quads = _integrate_batch(
        energy, intervals[:, 0].tolist() * n_laws, intervals[:, 1].tolist() * n_laws,
        rel_tol=_INNER_REL_TOL,
    )
    a_sq = flux_density(scn) ** 2
    cases = [base_scenario("D", s=s) for s in powers.tolist()] * n_laws
    worst = 0.0
    for j, (case, (r1, r2), res) in enumerate(zip(cases, intervals.tolist() * n_laws, quads)):
        quad = res.value / a_sq
        closed = zone_integral(case, laws[j // _QUAD_INTERVALS], r1, r2)
        worst = max(worst, abs(closed - quad) / abs(quad))
    return CheckResult("closed-form-vs-quadrature", worst <= 1e-9, worst, "1e-9")


def check_darcy_profile() -> CheckResult:
    """Quadrature pressure profile matches the all-Darcy antiderivative."""
    scn = base_scenario("D")
    geo = scn.geometry
    a_flux = flux_density(scn)
    radii = np.geomspace(geo.r_w * 1.01, geo.r_e, 40)
    worst = 0.0
    for r, w in zip(radii.tolist(), pressure_profile(scn, radii).tolist()):
        exact = scn.params.alpha * a_flux * (
            geo.r_e**2 * math.log(r / geo.r_w) - (r - geo.r_w) * (r + geo.r_w) / 2.0
        )
        worst = max(worst, abs(w - exact) / exact)
    return CheckResult("darcy-profile-closed-form", worst <= 1e-10, worst, "1e-10")


# the factor an injected fault multiplies the Forchheimer zones' S values by
_FAULT_SCALE = 1.0 + 1e-3


def check_oracle_equivalence(inject_fault: bool = False) -> CheckResult:
    """Zone-integral PI and nested pressure-profile PI agree to 1e-6 for
    every preset at two fluxes and two pre-Darcy powers s; an injected fault
    multiplies the Forchheimer zones' S values by ``_FAULT_SCALE`` first.

    s enters only the pre-Darcy law, so a preset without a pre-Darcy zone (D,
    F, FDD) gives the same closed-form PI, fault and profile PI, bit for bit,
    at both powers: it is checked at the first power only, which leaves the
    measured deviation as the whole cross product's."""
    regimes = tuple(REGIME_PRESETS.values())
    powers = (0.3, 0.7)
    cases = [base_scenario("D", q_over_h=q, s=s) for q in (1e-4, 1e-2) for s in powers]
    curve = compute_curve(cases[0].geometry, regimes, [(scn.q_over_h, scn.params) for scn in cases])
    worst = 0.0
    for scn, pis in zip(cases, curve):
        for regime, pi in zip(regimes, pis):
            if scn.params.s != powers[0] and ZoneLaw.PRE_DARCY not in regime.laws():
                continue
            scn_regime = replace(scn, regime=regime)
            j_closed = pi.j_raw
            if inject_fault:
                contributions = zone_contributions(scn_regime)
                j_closed *= math.fsum(contributions) / math.fsum(
                    c * _FAULT_SCALE if law is ZoneLaw.FORCHHEIMER else c
                    for c, law in zip(contributions, regime.laws())
                )
            j_profile = pi_from_profile(scn_regime)
            worst = max(worst, abs(j_closed - j_profile) / abs(j_profile))
    return CheckResult("oracle-equivalence", worst <= 1e-6, worst, "1e-6")


def check_darcy_flux_independence() -> CheckResult:
    """All-Darcy dimensionless PI is bit-identical across eleven flux decades."""
    values = {
        compute_pi(base_scenario("D", q_over_h=q)).j_dimensionless
        for q in (2e-7, 1e-4, 1e-3, 5.95e-3, 1e-2, 3.18e-2, 1e-1, 1.0, 1e1, 1e4)
    }
    spread = max(values) - min(values)
    return CheckResult("darcy-flux-independence", len(values) == 1, spread, "bit-identical")


def check_forchheimer_monotonicity() -> CheckResult:
    """All-Forchheimer PI strictly decreases with flux."""
    grid = (2e-7, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e4)
    js = [compute_pi(base_scenario("F", q_over_h=q)).j_dimensionless for q in grid]
    drops = [a - b for a, b in zip(js, js[1:])]
    return CheckResult("forchheimer-flux-monotonicity", min(drops) > 0, min(drops), "> 0")


def check_predarcy_monotonicity() -> CheckResult:
    """DDpD and FDpD PIs are nonincreasing in s for lambda = alpha, v_D < 1."""
    regimes = (regime_preset("DDpD"), regime_preset("FDpD"))
    base = base_scenario("DDpD")
    points = [(base.q_over_h, replace(base.params, s=float(s))) for s in np.linspace(0.0, 1.0, 11)]
    curve = compute_curve(base.geometry, regimes, points)
    js = [[pi.j_dimensionless for pi in pis] for pis in curve]
    worst = max(b - a for prev, cur in zip(js, js[1:]) for a, b in zip(prev, cur))
    return CheckResult("predarcy-s-monotonicity", worst <= 0.0, worst, "<= 0")


def check_fdpd_limit() -> CheckResult:
    """FDpD collapses to FDD when the slow zone vanishes (v_D = 0)."""
    scn = base_scenario("FDpD", v_D=0.0)
    (fdpd, fdd), = compute_curve(scn.geometry, (scn.regime, regime_preset("FDD")),
                                 [(scn.q_over_h, scn.params)])
    dev = abs(fdpd.j_raw - fdd.j_raw) / fdd.j_raw
    return CheckResult("fdpd-vanishing-slow-zone", dev <= 1e-10, dev, "1e-10")


def gamma_scaled_scenario() -> Scenario:
    """Unit-scale coefficients keep the compressible correction perturbative."""
    return base_scenario(
        "FDpD", alpha=1.0, beta=100.0, lambda_=1.0, v_D=1e-6, v_F=1e-4, q_over_h=1e-2
    )


def check_gamma_linearity() -> CheckResult:
    """max |v_gamma - v| scales linearly in gamma (ratio about 10 per decade)."""
    scn = gamma_scaled_scenario()
    radii = np.linspace(scn.geometry.r_w, scn.geometry.r_e, 201)
    v_inc = velocity_profile(scn, radii)
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
    v_inc = velocity_profile(scn, radii)
    scale = velocity_profile(scn, scn.geometry.r_w)
    dev = float(np.max(np.abs(v0 - v_inc))) / scale
    return CheckResult("gamma-zero-identity", dev <= 1e-10, dev, "1e-10")


def run_all(inject_fault: bool = False) -> list[CheckResult]:
    """Run every validation property; an injected fault perturbs the
    Forchheimer contribution inside the oracle-equivalence check only."""
    return [
        check_constitutive_inverse(),
        check_radius_roundtrip(),
        check_closed_vs_quadrature(),
        check_darcy_profile(),
        check_oracle_equivalence(inject_fault=inject_fault),
        check_darcy_flux_independence(),
        check_forchheimer_monotonicity(),
        check_predarcy_monotonicity(),
        check_fdpd_limit(),
        check_gamma_zero_identity(),
        check_gamma_linearity(),
    ]
