"""Shared helpers for the test suite."""

from wellpi import ZoneLaw, flux_density, partition_zones
from wellpi.kinematics import zone_bounds


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


def reference_pi(scn):
    """The raw PI of the scenario's regime to 40 significant digits.

    mpmath evaluates closed forms on the engine's own float radii r_F, r_D
    and flux density A, zone by zone: the log/polynomial antiderivatives of
    S_D and of the inertial part of S_F, and for S_pD the incomplete beta
    integral in u = (r / r_e)^2,

        S_pD = lambda A^(-s) r_e^(4-s) / 2 * B(s/2, 3-s; u1, u2).

    Nothing is shared with the engine's brackets, their series or their
    summation by term.  It works at 50 digits so that the antiderivatives'
    cancellation over a narrow annulus leaves 40.  Callers import mpmath
    first (or skip without it).
    """
    import mpmath as mp

    with mp.workdps(50):
        geo, p = scn.geometry, scn.params
        r_e, s, a = mp.mpf(geo.r_e), mp.mpf(p.s), mp.mpf(flux_density(scn))

        def darcy(r):  # of (r_e^2 - r^2)^2 / r
            return r_e**4 * mp.log(r) - r_e**2 * r**2 + r**4 / 4

        def inertial(r):  # of (r_e^2 - r^2)^3 / r^2
            return -r_e**6 / r - 3 * r_e**4 * r + r_e**2 * r**3 - r**5 / 5

        total = mp.mpf(0)
        for lo, hi, law in zone_bounds(scn, partition_zones(scn), scn.regime):
            if lo == hi:
                continue
            r1, r2 = mp.mpf(lo), mp.mpf(hi)
            if law is ZoneLaw.PRE_DARCY:
                beta = mp.betainc(s / 2, 3 - s, (r1 / r_e) ** 2, (r2 / r_e) ** 2)
                total += mp.mpf(p.lambda_) * a ** (-s) * r_e ** (4 - s) / 2 * beta
                continue
            total += mp.mpf(p.alpha) * (darcy(r2) - darcy(r1))
            if law is ZoneLaw.FORCHHEIMER:
                total += mp.mpf(p.beta) * a * (inertial(r2) - inertial(r1))
        r_w = mp.mpf(geo.r_w)
        return 2 * mp.pi * mp.mpf(geo.h) * (r_e**2 - r_w**2) ** 2 / total
