"""Independent cross-checks for the productivity index.

Two alternative routes to the PI that share no code with the closed-form
zone integrals:

* ``pi_from_profile`` builds the radial pressure profile W(r) by quadrature
  of g(v) v, then integrates r * W(r) again (a genuinely nested computation)
  and forms J = Q |U| / (2 * 2 pi h * int r W dr) with |U| = 2 pi h
  (r_e^2 - r_w^2).  Every outer node gets its own inner quadrature, taken
  from the nearest node below it where W is already known, so each inner
  integral spans a short gap instead of the whole segment.  Integration by
  parts ties that denominator to the drag energy integral, which is
  evaluated separately as an internal consistency check.

* ``compressible_velocity`` solves the slightly-compressible radial balance

      d(r v)/dr = -2 A r - gamma * r * g(v) v^2,    v(r_e) = 0,

  backward from the outer boundary with an adaptive embedded Runge-Kutta
  pair.  At gamma = 0 the right-hand side is linear in r and the scheme
  reproduces the incompressible profile to roundoff; the deviation from it
  grows linearly in gamma while the perturbation stays small.
"""

from __future__ import annotations

import bisect
import math
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .constitutive import ZoneLaw, drag_power, pressure_gradient
from .kinematics import Scenario, finite_positive, flux_density, zone_segments
from .quadrature import _converged, _panels, integrate_adaptive

# relative tolerances: W(r), zone energies and the inner integrals of
# pi_from_profile; its outer integral of r W(r); the agreement of its two
# routes; and the RK step controller of compressible_velocity
_INNER_REL_TOL = 1e-10
_OUTER_REL_TOL = 1e-9
_CONSISTENCY_TOL = 1e-7
_RK_REL_TOL = 1e-12


def _speed_fun(scn: Scenario) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized PSS speed v(r) = A (r_e^2 - r^2) / r."""
    r_e = scn.geometry.r_e
    a = flux_density(scn)
    return lambda r: a * (r_e - r) * (r_e + r) / r


def _grad_fun(scn: Scenario, law: ZoneLaw) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized |grad p| = g(v(r)) * v(r) along one zone law."""
    p = scn.params
    speed = _speed_fun(scn)
    return lambda r: pressure_gradient(p, law, speed(r))


def pressure_profile(scn: Scenario, r: float) -> float:
    """W(r) = int_{r_w}^{r} g(v) v drho, zero at the well, nondecreasing."""
    geo = scn.geometry
    if not geo.r_w <= r <= geo.r_e:
        raise ValueError(f"r={r} outside [{geo.r_w}, {geo.r_e}]")
    total = 0.0
    for a, b, law in zone_segments(scn):
        if r <= a:
            break
        hi = min(r, b)
        total += integrate_adaptive(_grad_fun(scn, law), a, hi, rel_tol=_INNER_REL_TOL).value
    return total


def _zone_energy(scn: Scenario, law: ZoneLaw, lo: float, hi: float) -> float:
    """int_lo^hi r g(v) v^2 dr along one zone law."""
    grad = _grad_fun(scn, law)
    speed = _speed_fun(scn)
    return integrate_adaptive(lambda r: r * grad(r) * speed(r), lo, hi, rel_tol=_INNER_REL_TOL).value


def pi_from_energy(scn: Scenario) -> float:
    """Raw PI from the energy identity J = Q^2 / (2 pi h int r g(v) v^2 dr).

    The drag energy is summed left to right over the merged segments.
    Raises FloatingPointError when the PI overflows, underflows to zero or
    is NaN.
    """
    energy = 0.0
    for lo, hi, law in zone_segments(scn):
        energy += _zone_energy(scn, law, lo, hi)
    q = scn.q
    return finite_positive("energy-route PI", q * q / (2.0 * math.pi * scn.geometry.h * energy))


def pi_from_profile(scn: Scenario) -> float:
    """Raw PI recomputed from the pressure profile by nested quadrature.

    The drawdown denominator int_U W dx is evaluated as
    2 * 2 pi h * int r W(r) dr (the factor matching the |U| convention used
    throughout).  W at every outer node comes from its own inner quadrature
    of g(v) v, taken from the nearest radius below the node where W is
    already known (the segment start, an earlier node or the previous node
    of the same batch) and accumulated onto the W found there; W at each
    segment start is ``pressure_profile``.  The first Gauss-Kronrod panel of
    every gap in a batch of outer nodes is evaluated in one integrand call;
    a gap whose panel fails the acceptance test of ``integrate_adaptive`` is
    integrated adaptively instead.  The result is cross-checked against the
    energy-identity route; disagreement beyond ``_CONSISTENCY_TOL`` signals
    a quadrature failure.  Raises FloatingPointError when the PI overflows,
    underflows to zero or is NaN, where both routes could agree on 0.
    """
    geo = scn.geometry
    total_rw = 0.0
    for a, b, law in zone_segments(scn):
        w0 = pressure_profile(scn, a)
        grad = _grad_fun(scn, law)
        # radii in [a, b] where W - w0 is known, ascending, with those values
        known_r = [a]
        known_w = [0.0]

        def outer_integrand(radii: np.ndarray) -> np.ndarray:
            # the nodes arrive ascending, so each one's nearest known radius
            # below is the one found in known_r or the previous node
            nodes = radii.tolist()
            starts: list[float] = []
            bases: list[float | None] = []  # None: W of the previous node
            prev = -math.inf
            for r in nodes:
                j = bisect.bisect_right(known_r, r) - 1
                if prev >= known_r[j]:
                    starts.append(prev)
                    bases.append(None)
                else:
                    starts.append(known_r[j])
                    bases.append(known_w[j])
                prev = r
            values, errs, resabs = _panels(grad, np.array(starts), radii)
            out = np.empty_like(radii)
            w = 0.0
            for i, (r, lo, base, value, err, res) in enumerate(zip(
                nodes, starts, bases, values.tolist(), errs.tolist(), resabs.tolist()
            )):
                if not _converged(value, err, res, _INNER_REL_TOL):
                    value = integrate_adaptive(grad, lo, r, rel_tol=_INNER_REL_TOL).value
                w = (w if base is None else base) + value
                k = bisect.bisect_right(known_r, r)
                known_r.insert(k, r)
                known_w.insert(k, w)
                out[i] = r * (w0 + w)
            return out

        total_rw += integrate_adaptive(outer_integrand, a, b, rel_tol=_OUTER_REL_TOL).value

    q = scn.q
    u_measure = 2.0 * math.pi * geo.h * geo.radius_span_sq
    j_raw = q * u_measure / (2.0 * 2.0 * math.pi * geo.h * total_rw)
    finite_positive("profile-route PI", j_raw)

    j_energy = pi_from_energy(scn)
    if abs(j_raw - j_energy) > _CONSISTENCY_TOL * abs(j_energy):
        raise RuntimeError(
            f"profile and energy routes disagree: {j_raw:.12e} vs {j_energy:.12e}"
        )
    return j_raw


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
    radii: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Speed profile v_gamma sampled at the given radii (ascending).

    Sweeps the balance equation backward from r_e, where v_gamma = 0, and
    lands exactly on every requested radius.  ``gamma = 0`` returns the
    incompressible profile.

    The controller bounds each step's local error only, so the outputs
    reproduce to about 2e-11 of max v, not to ``_RK_REL_TOL``: a change of a few
    ulp per right-hand-side evaluation moves ``v_gamma`` by that much (seen
    on the base FDpD scenario at gamma = 1e-8).  A gate on these outputs
    should be set from that floor.

    Raises ValueError unless 0 <= gamma < inf, or when the radii are empty,
    NaN or outside [r_w, r_e].
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")
    geo = scn.geometry
    targets = np.unique(np.asarray(radii, dtype=float))
    if not (targets.size and geo.r_w <= targets[0] and targets[-1] <= geo.r_e):
        raise ValueError("sample radii must lie in [r_w, r_e]")

    a_flux = flux_density(scn)
    params, regime = scn.params, scn.regime

    def rhs(r: float, u: float) -> float:
        return -2.0 * a_flux * r - gamma * r * drag_power(params, regime, u / r)

    r, u = geo.r_e, 0.0
    speeds = np.empty_like(targets)
    h_prop = -(geo.r_e - geo.r_w) / 100.0  # proposed (negative) step
    abs_floor = _RK_REL_TOL * a_flux * geo.r_e**2  # scale of max |r v|

    for n in range(targets.size - 1, -1, -1):
        target = targets[n]
        while r > target:
            h = max(h_prop, target - r)  # never step past the next sample
            landing = h == target - r
            k = [0.0] * 7
            for i in range(7):
                ri = r + _DP_C[i] * h
                ui = u + h * sum(map(mul, _DP_A[i], k))
                k[i] = rhs(ri, ui)
            u5 = u + h * sum(map(mul, _DP_B5, k))
            u4 = u + h * sum(map(mul, _DP_B4, k))
            err = abs(u5 - u4)
            tol = abs_floor + _RK_REL_TOL * max(abs(u), abs(u5))
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
        speeds[n] = u / r
    return targets, speeds
