"""Shared scenario builders for the test suite."""

from wellpi import base_scenario


def make_scenario(regime="D", **overrides):
    """The reference studies' shared case, all-Darcy unless ``regime`` says."""
    return base_scenario(regime, **overrides)


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
