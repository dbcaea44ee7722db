"""Shared helpers for the test suite."""

from wellpi import ZoneLaw, flux_density


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
