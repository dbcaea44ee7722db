"""Independent cross-checks for the productivity index.

Two alternative routes to the PI that share no code with the closed-form
zone integrals:

* ``pi_from_profile`` builds the radial pressure profile W(r) by quadrature
  of g(v) v, then integrates r * W(r) again (a genuinely nested computation)
  and forms J = Q |U| / (2 * 2 pi h * int r W dr) with |U| = 2 pi h
  (r_e^2 - r_w^2).  Integration by parts ties that denominator to the drag
  energy integral, which is evaluated separately as an internal consistency
  check.

* ``compressible_velocity`` solves the slightly-compressible radial balance

      d(r v)/dr = -2 A r - gamma * r * g(v) v^2,    v(r_e) = 0,

  backward from the outer boundary with an adaptive embedded Runge-Kutta
  pair.  At gamma = 0 the right-hand side is linear in r and the scheme
  reproduces the incompressible profile to roundoff; the deviation from it
  grows linearly in gamma while the perturbation stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constitutive import ZoneLaw, drag_power
from .kinematics import (
    Scenario,
    flux_density,
    partition_zones,
    velocity_profile,
    zone_bounds,
    zone_segments,
)
from .productivity import PiResult, dimensionless_factor
from .quadrature import integrate_adaptive


@dataclass(frozen=True)
class ProfileSample:
    """Pressure profile value w = W(r) and speed v at one radius."""

    r: float
    w: float
    v: float


def _grad_fun(scn: Scenario, law: ZoneLaw) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized |grad p| = g(v(r)) * v(r) along one zone law."""
    geo = scn.geometry
    a = flux_density(scn)
    p = scn.params

    def speed(r: np.ndarray) -> np.ndarray:
        return a * (geo.r_e - r) * (geo.r_e + r) / r

    if law is ZoneLaw.DARCY:
        return lambda r: p.alpha * speed(r)
    if law is ZoneLaw.FORCHHEIMER:
        return lambda r: (p.alpha + p.beta * speed(r)) * speed(r)
    # lambda * v^(1-s); exponent >= 0 keeps this finite up to v = 0
    return lambda r: p.lambda_ * np.power(speed(r), 1.0 - p.s)


def pressure_profile(scn: Scenario, r: float, rel_tol: float = 1e-10) -> float:
    """W(r) = int_{r_w}^{r} g(v) v drho, zero at the well, nondecreasing."""
    geo = scn.geometry
    if not geo.r_w <= r <= geo.r_e:
        raise ValueError(f"r={r} outside [{geo.r_w}, {geo.r_e}]")
    total = 0.0
    for a, b, law in zone_segments(scn):
        if r <= a:
            break
        hi = min(r, b)
        total += integrate_adaptive(_grad_fun(scn, law), a, hi, rel_tol=rel_tol).value
    return total


def sample_profile(
    scn: Scenario, radii: Sequence[float], rel_tol: float = 1e-10
) -> list[ProfileSample]:
    """Profile samples (r, W(r), v(r)) at the given radii."""
    return [
        ProfileSample(r=float(r), w=pressure_profile(scn, float(r), rel_tol), v=velocity_profile(scn, float(r)))
        for r in radii
    ]


def drag_energy_integral(scn: Scenario, rel_tol: float = 1e-10) -> float:
    """int_{r_w}^{r_e} r g(v) v^2 dr, the drag-power weighted moment."""
    geo = scn.geometry
    a = flux_density(scn)
    total = 0.0
    for lo, hi, law in zone_segments(scn):
        grad = _grad_fun(scn, law)

        def integrand(r: np.ndarray) -> np.ndarray:
            return r * grad(r) * (a * (geo.r_e - r) * (geo.r_e + r) / r)

        total += integrate_adaptive(integrand, lo, hi, rel_tol=rel_tol).value
    return total


def pi_from_energy(scn: Scenario, rel_tol: float = 1e-10) -> float:
    """Raw PI from the energy identity J = Q^2 / (2 pi h int r g(v) v^2 dr)."""
    q = scn.q
    return q * q / (2.0 * math.pi * scn.geometry.h * drag_energy_integral(scn, rel_tol))


def pi_from_profile(
    scn: Scenario,
    outer_rel_tol: float = 1e-9,
    inner_rel_tol: float = 1e-10,
    consistency_tol: float = 1e-7,
) -> PiResult:
    """PI recomputed from the pressure profile by nested quadrature.

    The drawdown denominator int_U W dx is evaluated as
    2 * 2 pi h * int r W(r) dr (the factor matching the |U| convention used
    throughout), with W itself obtained by inner quadrature at every outer
    node.  The result is cross-checked against the energy-identity route;
    disagreement beyond ``consistency_tol`` signals a quadrature failure.
    """
    geo = scn.geometry
    segments = zone_segments(scn)

    # cumulative W at segment starts, so inner integrals stay short
    w_base = [0.0]
    for a, b, law in segments:
        piece = integrate_adaptive(_grad_fun(scn, law), a, b, rel_tol=inner_rel_tol)
        w_base.append(w_base[-1] + piece.value)

    total_rw = 0.0
    for (a, b, law), w0 in zip(segments, w_base):
        grad = _grad_fun(scn, law)

        def outer_integrand(radii: np.ndarray) -> np.ndarray:
            out = np.empty_like(radii)
            for i, r in enumerate(radii):
                w = integrate_adaptive(grad, a, float(r), rel_tol=inner_rel_tol).value
                out[i] = float(r) * (w0 + w)
            return out

        total_rw += integrate_adaptive(outer_integrand, a, b, rel_tol=outer_rel_tol).value

    q = scn.q
    u_measure = 2.0 * math.pi * geo.h * geo.radius_span_sq
    j_raw = q * u_measure / (2.0 * 2.0 * math.pi * geo.h * total_rw)

    j_energy = pi_from_energy(scn, rel_tol=inner_rel_tol)
    if abs(j_raw - j_energy) > consistency_tol * abs(j_energy):
        raise RuntimeError(
            f"profile and energy routes disagree: {j_raw:.12e} vs {j_energy:.12e}"
        )

    # implied per-zone S values from the energy route: E_zone = A^2 * S_zone
    part = partition_zones(scn)
    a_flux = flux_density(scn)
    contributions = []
    for lo, hi, law in zone_bounds(scn, part):
        if hi <= lo:
            contributions.append(0.0)
            continue
        grad = _grad_fun(scn, law)

        def integrand(r: np.ndarray) -> np.ndarray:
            return r * grad(r) * (a_flux * (geo.r_e - r) * (geo.r_e + r) / r)

        energy = integrate_adaptive(integrand, lo, hi, rel_tol=inner_rel_tol).value
        contributions.append(energy / (a_flux * a_flux))

    return PiResult(
        j_raw=j_raw,
        j_dimensionless=j_raw * dimensionless_factor(scn),
        zone_partition=part,
        contributions=tuple(contributions),
        regime=scn.regime,
    )


# ---------------------------------------------------------------------------
# Slightly compressible velocity profile
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


class StepSizeUnderflow(RuntimeError):
    """The adaptive step fell below the resolvable radius scale."""


def compressible_velocity(
    scn: Scenario,
    gamma: float,
    radii: Sequence[float] | None = None,
    rel_tol: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Speed profile v_gamma sampled at the given radii (ascending).

    Sweeps the balance equation backward from r_e, where v_gamma = 0, and
    lands exactly on every requested radius.  ``gamma = 0`` returns the
    incompressible profile.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    geo = scn.geometry
    if radii is None:
        radii = np.geomspace(geo.r_w, geo.r_e, 201)
    targets = np.unique(np.asarray(radii, dtype=float))
    if targets[0] < geo.r_w or targets[-1] > geo.r_e:
        raise ValueError("sample radii must lie in [r_w, r_e]")

    a_flux = flux_density(scn)
    params, regime = scn.params, scn.regime

    def rhs(r: float, u: float) -> float:
        return -2.0 * a_flux * r - gamma * r * drag_power(params, regime, u / r)

    r, u = geo.r_e, 0.0
    values: dict[float, float] = {}
    h_prop = -(geo.r_e - geo.r_w) / 100.0  # proposed (negative) step
    abs_floor = rel_tol * a_flux * geo.r_e**2  # scale of max |r v|

    for target in targets[::-1]:
        if target == geo.r_e:
            values[target] = 0.0
            continue
        while r > target:
            h = max(h_prop, target - r)  # never step past the next sample
            landing = h == target - r
            k = [0.0] * 7
            for i in range(7):
                ri = r + _DP_C[i] * h
                ui = u + h * sum(_DP_A[i][j] * k[j] for j in range(i))
                k[i] = rhs(ri, ui)
            u5 = u + h * sum(b * ki for b, ki in zip(_DP_B5, k))
            u4 = u + h * sum(b * ki for b, ki in zip(_DP_B4, k))
            err = abs(u5 - u4)
            tol = abs_floor + rel_tol * max(abs(u), abs(u5))
            if err <= tol:
                r = target if landing else r + h
                u = u5
                if not landing:
                    # a step clipped to land on a sample says nothing about
                    # the controller's natural step, so leave h_prop alone
                    grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (tol / err) ** 0.2)
                    h_prop = h * max(0.2, grow)
            else:
                h_prop = h * max(0.2, 0.9 * (tol / err) ** 0.2)
                if abs(h_prop) < 1e-14 * geo.r_e:
                    raise StepSizeUnderflow(f"step underflow at r={r}")
        values[target] = u / r

    speeds = np.array([values[t] for t in targets])
    return targets, speeds
