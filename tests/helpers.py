"""Shared helpers for the test suite."""

import math
from dataclasses import dataclass

import numpy as np

from wellpi import ZoneLaw, flux_density, synthesize_measurements
from wellpi.constitutive import drag_power
from wellpi.kinematics import zone_bounds
from wellpi.validation import _RK_REL_TOL


def bisect_inverse(fun, target, lo, hi, iterations=200):
    """Bisection solve fun(x) = target for strictly decreasing fun on [lo, hi]."""
    f_lo, f_hi = fun(lo), fun(hi)
    assert f_lo >= target >= f_hi, "target not bracketed"
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if fun(mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_zone_integral(scn, law, r1, r2):
    """The zone integral S of ``law`` over [r1, r2] to 40 significant digits.

    mpmath integrates the drag energy of the law divided by A^2 over the
    same binary radii, split at the series cut 0.75 r_e when it falls
    inside, so the reference shares none of the double-precision weaknesses
    of the closed forms.  Callers import mpmath first (or skip without it).
    """
    import mpmath as mp

    with mp.workdps(40):
        r_e = mp.mpf(scn.geometry.r_e)
        nodes = [mp.mpf(r1)]
        cut = mp.mpf(0.75) * r_e
        if r1 < cut < r2:
            nodes.append(cut)
        nodes.append(mp.mpf(r2))
        p, a = scn.params, mp.mpf(flux_density(scn))
        if law is ZoneLaw.PRE_DARCY:
            s = mp.mpf(p.s)
            integral = mp.quad(lambda r: (r_e**2 - r**2) ** (2 - s) * r ** (s - 1), nodes)
            return mp.mpf(p.lambda_) * a ** (-s) * integral
        darcy = mp.mpf(p.alpha) * mp.quad(lambda r: (r_e**2 - r**2) ** 2 / r, nodes)
        if law is ZoneLaw.DARCY:
            return darcy
        inertial = mp.quad(lambda r: (r_e**2 - r**2) ** 3 / r**2, nodes)
        return darcy + mp.mpf(p.beta) * a * inertial


def write_measurements(path, params, grid):
    """Write the noiseless measurements of ``params`` at the velocities of
    ``grid`` as the CSV that ``wellpi fit`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("v_m_per_s,grad_p_pa_per_m\n")
        for m in synthesize_measurements(params, grid):
            fh.write(f"{m.v:.16e},{m.grad_p:.16e}\n")


def _working_precision(scn):
    """An mpmath context that leaves 40 significant digits in the
    antiderivatives below.

    Near r_e a zone integral is about r_e^5 x^4, x = 1 - r/r_e, while the
    terms of the I1 antiderivative are of order r_e^5: their difference
    cancels about 4 log10(1/x) digits at the zone bound r nearest below r_e.
    The 10 digits above 40 cover the cancellation over a narrow annulus.
    """
    import mpmath as mp

    r_e = scn.geometry.r_e
    near = max(r for lo, hi, _ in zone_bounds(scn) for r in (lo, hi) if r < r_e)
    return mp.workdps(50 + 4 * max(0, math.ceil(math.log10(r_e / (r_e - near)))))


def reference_zone_contributions(scn):
    """The S values of the (near-well, middle, near-boundary) zones of the
    scenario's regime to 40 significant digits; 0 for an empty zone.

    mpmath evaluates closed forms on the engine's own float radii r_F, r_D
    and flux density A: the log/polynomial antiderivatives of S_D and of the
    inertial part of S_F, and for S_pD the incomplete beta integral in
    u = (r / r_e)^2,

        S_pD = lambda A^(-s) r_e^(4-s) / 2 * B(s/2, 3-s; u1, u2).

    Nothing is shared with the engine's brackets, their series or their
    summation by term.  Callers import mpmath first (or skip without it).
    """
    import mpmath as mp

    with _working_precision(scn):
        geo, p = scn.geometry, scn.params
        r_e, s, a = mp.mpf(geo.r_e), mp.mpf(p.s), mp.mpf(flux_density(scn))

        def darcy(r):  # of (r_e^2 - r^2)^2 / r
            return r_e**4 * mp.log(r) - r_e**2 * r**2 + r**4 / 4

        def inertial(r):  # of (r_e^2 - r^2)^3 / r^2
            return -r_e**6 / r - 3 * r_e**4 * r + r_e**2 * r**3 - r**5 / 5

        values = []
        for lo, hi, law in zone_bounds(scn):
            r1, r2 = mp.mpf(lo), mp.mpf(hi)
            if lo == hi:
                value = mp.mpf(0)
            elif law is ZoneLaw.PRE_DARCY:
                beta = mp.betainc(s / 2, 3 - s, (r1 / r_e) ** 2, (r2 / r_e) ** 2)
                value = mp.mpf(p.lambda_) * a ** (-s) * r_e ** (4 - s) / 2 * beta
            else:
                value = mp.mpf(p.alpha) * (darcy(r2) - darcy(r1))
                if law is ZoneLaw.FORCHHEIMER:
                    value += mp.mpf(p.beta) * a * (inertial(r2) - inertial(r1))
            values.append(value)
        return values


def reference_pi(scn):
    """The raw PI of the scenario's regime to 40 significant digits, over the
    sum of ``reference_zone_contributions``."""
    import mpmath as mp

    with _working_precision(scn):
        geo = scn.geometry
        r_e, r_w = mp.mpf(geo.r_e), mp.mpf(geo.r_w)
        total = mp.fsum(reference_zone_contributions(scn))
        return 2 * mp.pi * mp.mpf(geo.h) * (r_e**2 - r_w**2) ** 2 / total


# Dormand-Prince 5(4) tableau.  The last row of _DP_A is the fifth-order
# weights, so the seventh stage is taken at the step's end (r + h, u5).
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# Quartic continuous extension (Shampine 1986): within a step from (r, u),
# u(r + theta h) = u + h theta (q0 + theta (q1 + theta (q2 + theta q3)))
# with q_j = sum_i k_i _DP_P[i][j].
_DP_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


def _tableau_sum(row, k):
    """sum_i row[i] k[i], added left to right from 0 as Python 3.11's ``sum``
    adds floats (3.12's ``sum`` compensates, so it is not used here)."""
    total = 0
    for a, ki in zip(row, k):
        total = total + a * ki
    return total


@dataclass
class ReferenceSweep:
    """What ``reference_compressible_velocity`` found: the speeds at the
    sorted unique radii, the right-hand-side evaluations, the radii where
    accepted steps end and the number of rejected steps."""

    radii: np.ndarray
    speeds: np.ndarray
    rhs_evals: int
    step_ends: list
    rejected: int


def reference_compressible_velocity(scn, gamma, radii):
    """``validation.compressible_velocity`` as a loop over the Dormand-Prince
    tableau above, with the same step controller, clipping and dense output.

    Every stage, weight and dense-output sum is the tableau's, so the sweep
    that writes them out must give the same floats and make as many
    right-hand-side evaluations.  Raises RuntimeError where the sweep raises
    StepSizeUnderflow.
    """
    geo = scn.geometry
    targets = np.unique(np.asarray(radii, dtype=float))
    a_flux = flux_density(scn)
    evals = 0

    def rhs(r, u):
        nonlocal evals
        evals += 1
        return -2.0 * a_flux * r - gamma * r * drag_power(scn.params, scn.regime, u / r)

    ts = targets.tolist()
    r_end = ts[0]
    speeds = [0.0] * len(ts)
    n = len(ts) - 1
    if ts[n] == geo.r_e:
        n -= 1
    r, u = geo.r_e, 0.0
    h_prop = -(geo.r_e - geo.r_w) / 100.0
    abs_floor = _RK_REL_TOL * a_flux * geo.r_e**2
    k = [rhs(r, u)] + [0.0] * 6
    step_ends, rejected = [], 0
    while n >= 0:
        h = max(h_prop, r_end - r)
        for i in range(1, 7):
            ui = u + h * _tableau_sum(_DP_A[i], k)
            k[i] = rhs(r + _DP_C[i] * h, ui)
        u5 = ui
        u4 = u + h * _tableau_sum(_DP_B4, k)
        err = abs(u5 - u4)
        tol = abs_floor + _RK_REL_TOL * max(abs(u), abs(u5))
        if err <= tol:
            r_new = r_end if h == r_end - r else r + h
            q = [_tableau_sum(col, k) for col in zip(*_DP_P)]
            while n >= 0 and ts[n] >= r_new:
                t = ts[n]
                if t == r_new:
                    v = u5
                else:
                    theta = (t - r) / h
                    v = u + h * theta * (q[0] + theta * (q[1] + theta * (q[2] + theta * q[3])))
                speeds[n] = v / t
                n -= 1
            k[0] = k[6]
            r, u = r_new, u5
            step_ends.append(r)
            grow = 5.0 if err == 0.0 else min(5.0, 0.9 * (tol / err) ** 0.2)
            h_prop = h * max(0.2, grow)
        else:
            rejected += 1
            h_prop = h * max(0.2, 0.9 * (tol / err) ** 0.2)
            if abs(h_prop) < 1e-14 * geo.r_e:
                raise RuntimeError(f"step underflow at r={r}")
    return ReferenceSweep(targets, np.array(speeds), evals, step_ends, rejected)
