"""The three per-zone pressure-work integrals, and the oracle's public face.

The closed forms below are plain ``math``: nothing on the PI path
integrates numerically, so the PI commands start without numpy.  Adaptive
Gauss-Kronrod quadrature is only the independent oracle they are checked
against, and its numpy engine lives in ``validation``.  This module keeps
the oracle's public names, ``IntegralResult``, ``QuadratureError`` and
``integrate_adaptive``, which imports the engine on its first call.

The zone integrals entering the productivity index are

    S_D[r1, r2]  = alpha * int (r_e^2 - r^2)^2 / r dr
    S_F[r1, r2]  = S_D + beta * A * int (r_e^2 - r^2)^3 / r^2 dr
    S_pD[r1, r2] = lambda * A^(-s) * int (r_e^2 - r^2)^(2-s) * r^(s-1) dr

Every S sums its law's terms, alpha I0 + beta A I1 + lambda A^(-s) P, each
bracket taken without its coefficient by the one dispatch ``_term_bracket(term,
r_e, s, r1, r2)``: I0 and I1 are the integrals of S_D / alpha and of the
inertial part of S_F / (beta A), and P that of S_pD / (lambda A^(-s)), whose
coefficient is ``_p_coefficient``.  The PI sums them by term over its zones, and
the kernels ``darcy_zone_integral``, ``forchheimer_zone_integral`` and
``predarcy_zone_integral`` by law over one zone, from (params, A, r_e, r1, r2),
r_w <= r1 < r2 <= r_e, unchecked; ``zone_integral(scn, law, r1, r2)`` picks one
by law, checks the interval and gives exactly 0.0 for an empty one.  They serve
``pi``'s S lines and the injected fault of ``check_oracle_equivalence``, both
through ``zone_contributions``, then ``check_closed_vs_quadrature`` and the tests.

Each integrand is A^a (r_e^2 - r^2)^(a+2) r^(-a-1), with the exponent a = 0
for S_D, 1 for the inertial part of S_F and -s for S_pD.  In
x = (r_e^2 - r^2) / r_e^2 it is (r_e^(a+4) / 2) x^(a+2) (1-x)^(-(a/2+1)) dx,
so the exponent alone fixes the degree a + 4, the first power a + 3 of the
series sum_k c_k x^m / m (m = a + 3 + k) and the binomial power a/2 + 1 of
its coefficients c_k.  ``_x_law(closed, a)`` derives them, and the tail
constant, for S_D and S_F; the outer S_pD series takes them at a = -s.

S_D and S_F have closed antiderivatives, with the width r2 - r1 factored out
of every term so that a narrow interval keeps its digits.  Beyond 0.75 r_e,
where the antiderivative loses most of its digits to cancellation, the
series in x sums them from a table of c_k / m per law.  A segment that
starts at r1 <= r_e / 4 is the closed form over its whole length, across the
cut: its terms sum to at most about three times the result, so no series
runs on any segment from the well.  Summed by term, every I0 and I1 run of
the seven presets starts at r_w, so for r_w <= r_e / 4 no S_D or S_F series
runs on a preset PI at all.  A segment that starts between r_e / 4
and the cut takes the closed form up to the cut and the series beyond it;
on [0.75 r_e, r_e] the series depends on r_e only through r_e^degree, so a
segment ending at r_e takes that part from the tail constant.

S_pD has no elementary antiderivative for fractional s.  In u = 1 - x it is
lambda A^(-s) r_e^(4-s) / 2 times the incomplete beta integral
int u^(s/2-1) (1-u)^(2-s) du, summed as the binomial series of (1-u)^(2-s)
for small u and as the series in x near the outer boundary, in one kernel
whose callers take hi^p0 and the log of the ratio of the bounds from the
radii, so a bound whose u underflows keeps its digits.  A segment [r1, r_e]
from r1 >= r_e / 2, past the cut too, is the incomplete beta function
B_x1(3-s, s/2) at x1 = 1 - u1, summed as its continued fraction by modified
Lentz (Numerical Recipes 6.4).  A segment [r1, r_e] from below r_e / 2 is
the complete integral B(s/2, 3-s), from three math.gamma calls, minus its
head: the inner series from r = 0 to r1.  The guard (r1/r_e)^s <= 0.45 s B,
taken before any series is summed, keeps the head within 0.9 B, so the
difference loses at most one digit.  s = 0, tiny s, r1 near r_e / 2 and a
subnormal r1/r_e fail it.  Such a segment from 0.35 r_e on takes the
continued fraction as well; at x1 = 1 - 0.35^2, its largest, the fraction
stops within 24 of its _MAX_TERMS iterations at any s in [0, 1].  Against a
40-digit reference, over 2,000 draws of r1 in [0.35 r_e, r_e) and s in
[0, 1] with its ends, it erred by 2.2 eps in the median, 11 eps at the 99th
percentile and 23 eps (5.1e-15) at most.  A segment from below 0.35 r_e that
the guard turns away, like one that crosses the cut and ends short of r_e,
sums the inner series up to the cut and the outer series beyond it, whose
part over u in [0.75^2, 1] depends on s alone and is cached.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .constitutive import FlowParameters, ZoneLaw
from .kinematics import Scenario, flux_density

_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class IntegralResult:
    """Value, error estimate and panel count of one adaptive integration."""

    value: float
    abs_error_estimate: float
    subdivisions: int


class QuadratureError(RuntimeError):
    """Raised when the panel cap is reached or a panel is not finite;
    carries the best estimate."""

    def __init__(self, message: str, best: IntegralResult):
        super().__init__(message)
        self.best = best


def integrate_adaptive(
    f: Callable,
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    singular_b: bool = False,
) -> IntegralResult:
    """Integrate f over [a, b] to max(1e-300, rel_tol * |value|).

    ``f`` receives one 1-D float array, the 15 * n Gauss-Kronrod nodes of
    the n panels evaluated together, and must return an array of the same
    shape, finite on [a, b] (endpoints are never evaluated).  The first
    mesh of n0 panels, geometric in r with three per decade of b/a, is one
    call of 15 n0 nodes, and each bisection evaluates both halves in one
    call of 30, so k bisections cost k + 1 calls.  ``singular_b`` grades
    the first mesh into b as well (``validation._first_mesh``), for an
    integrand that is not smooth at b, like the pre-Darcy drag at r_e.  An
    empty interval integrates to exactly zero.  Once the accumulated panel
    error sits at the roundoff floor of the integrand no further
    subdivision can help, and the current estimate is returned as
    converged.

    Raises QuadratureError (carrying the best estimate) if the panel cap is
    reached first, and at once when a panel's estimate or error is not
    finite (f returned NaN or inf, or overflowed in the sum), instead of
    bisecting towards the cap.  It is the one-interval case of the batch
    integrator ``validation._integrate_batch``, imported here on first use
    so that the closed forms load without numpy.
    """
    from .validation import _integrate_batch

    return _integrate_batch(lambda x, k: f(x), [a], [b], rel_tol, [singular_b])[0]


# ---------------------------------------------------------------------------
# Zone integrals
# ---------------------------------------------------------------------------

# The closed antiderivatives subtract terms of order r_e^4 * width while the
# integral itself shrinks like (r_e - r)^3 near the outer boundary, so beyond
# this fraction of r_e they are replaced by an all-positive series in
# x = (r_e^2 - r^2) / r_e^2 <= 1 - _SERIES_CUT^2.
_SERIES_CUT = 0.75
# A segment that starts at or below this fraction of r_e takes the closed form
# over its whole length, across the cut.  The sum of the |terms| of the closed form
# is at most about 3.0 (S_D) and 2.9 (S_F) times the result there, reached on
# [r_e/4, r_e]; just below the cut a narrow interval already reaches 9.5 and 23.
# From r_e/2 the ratios reach 6.8 and 10 (S_F errs by up to 9 eps), so
# segments from beyond r_e/4 keep the series past the cut.
_CLOSED_START = 0.25


def _darcy_closed(r_e: float, r1: float, r2: float) -> float:
    # every term carries d = r2 - r1 as a factor: log(r2/r1) = log1p(d/r1) and
    # r2^4 - r1^4 = d (r1 + r2)(r1^2 + r2^2), so a narrow interval keeps its digits;
    # where d/r1 overflows (a subnormal r1), r2 is d to the last bit
    d = r2 - r1
    p = r1 + r2
    ratio = d / r1
    log_ratio = math.log1p(ratio) if ratio < math.inf else math.log(d) - math.log(r1)
    return r_e**4 * log_ratio - d * p * (r_e**2 - (r1 * r1 + r2 * r2) / 4.0)


def _forch_closed(r_e: float, r1: float, r2: float) -> float:
    # d = r2 - r1 factored out as in _darcy_closed: 1/r1 - 1/r2 = d/(r1 r2) and
    # r2^k - r1^k = d sum_j r2^j r1^(k-1-j)
    d = r2 - r1
    a, b = r1 * r1, r2 * r2
    cube = a + r1 * r2 + b
    fifth = a * a + r1 * r2 * (a + b) + a * b + b * b
    return r_e**6 / r2 * (d / r1) - d * (3.0 * r_e**4 - r_e**2 * cube + fifth / 5.0)


class _XLaw(NamedTuple):
    """S_D or the inertial part of S_F: closed form and series terms."""

    closed: Callable[[float, float, float], float]
    degree: int
    first: int
    weights: tuple[float, ...]  # c_k / m for m = first, first + 1, ...
    tail: float  # the series over [_SERIES_CUT, 1] on the unit reservoir


# Every series stops at its first term below _STOP times its sum, and sums at
# most _MAX_TERMS terms.  The stop rule ends them within 48 (S_D), 50 (S_F) and
# 48 (outer S_pD) terms on x <= 1 - 0.75^2, and 54 (inner S_pD) on u <= 0.5625,
# at any s in [0, 1]; tests/test_quadrature.py checks that at those intervals.
_STOP = 1e-17
_MAX_TERMS = 100


def _x_series(law: _XLaw, r_e: float, r1: float, r2: float) -> float:
    # x = (r_e^2 - r^2)/r_e^2;  x1^m - x2^m = dx * h_m keeps every term positive
    x1 = (r_e - r1) * (r_e + r1) / r_e**2
    x2 = (r_e - r2) * (r_e + r2) / r_e**2
    dx = (r2 - r1) * (r2 + r1) / r_e**2
    h = 1.0  # h_m = sum_{j<m} x1^j x2^(m-1-j)
    p2 = 1.0  # x2^m
    for _ in range(law.first - 1):
        p2 *= x2
        h = x1 * h + p2
    total = 0.0
    for w in law.weights:
        term = w * h
        total += term
        if term < _STOP * total:
            break
        p2 *= x2
        h = x1 * h + p2
    return 0.5 * r_e**law.degree * dx * total


def _x_law(closed: Callable[[float, float, float], float], a: int) -> _XLaw:
    # the exponent rule of the module docstring: degree a + 4, first power a + 3,
    # and c_k of (1-x)^(-power), power = a/2 + 1: c_0 = 1, c_k = c_(k-1) (k - 1 + power) / k
    first, power = a + 3, 0.5 * a + 1.0
    weights, c = [1.0 / first], 1.0
    for k in range(1, _MAX_TERMS):
        c *= (k - 1 + power) / k
        weights.append(c / (first + k))
    law = _XLaw(closed, a + 4, first, tuple(weights), 0.0)
    # [_SERIES_CUT * r_e, r_e] spans x in [0, 1 - _SERIES_CUT^2] whatever r_e is
    return law._replace(tail=_x_series(law, 1.0, _SERIES_CUT, 1.0))


_DARCY = _x_law(_darcy_closed, 0)
_FORCH = _x_law(_forch_closed, 1)


def _x_bracket(law: _XLaw, r_e: float, r1: float, r2: float) -> float:
    cut = _SERIES_CUT * r_e
    if r1 >= cut:
        return _x_series(law, r_e, r1, r2)
    if r2 <= cut or r1 <= _CLOSED_START * r_e:
        return law.closed(r_e, r1, r2)
    tail = law.tail * r_e**law.degree if r2 == r_e else _x_series(law, r_e, cut, r2)
    return law.closed(r_e, r1, cut) + tail


def _log_ratio(a: float, b: float) -> float:
    # log(a / b) for 0 <= a <= b, from the ratio unless it underflows
    ratio = a / b
    if ratio >= sys.float_info.min:
        return math.log(ratio)
    return math.log(a) - math.log(b) if a > 0.0 else -math.inf


def _beta_series(p0: float, m: float, hi: float, power: float, step: float, log_rho: float) -> float:
    # sum_k c_k (hi^(p0+k) - lo^(p0+k)) / (p0+k), c_0 = 1, c_k = c_(k-1) (k+m)/k, for
    # 0 <= lo < hi <= _SERIES_CUT^2, from power = hi^p0, step = 1 - rho and log_rho =
    # log(rho), rho = lo/hi, which the callers take from the radii.  Each difference is
    # hi^p * D, D = 1 - rho^p, and D_(k+1) = D_k + rho^(p0+k) step sums positive terms,
    # so only D_0 needs expm1.  The first term takes its p0 -> 0 limit -log(rho) wherever
    # -p0 log(rho) is below the normal range, whose few bits would carry into D_0 / p0.
    # k is a float, so that k + m and p0 + k add two floats.
    if step <= 0.5:
        log_rho = math.log1p(-step)
    rho = 1.0 - step
    gap = -math.expm1(p0 * log_rho)
    rest = math.exp(p0 * log_rho)
    total = power * gap / p0 if -p0 * log_rho >= sys.float_info.min else -log_rho
    c, k = 1.0, 0.0
    for _ in range(1, _MAX_TERMS):
        k += 1.0
        c *= (k + m) / k
        gap += rest * step
        rest *= rho
        power *= hi
        term = c * power * gap / (p0 + k)
        total += term
        if abs(term) <= _STOP * abs(total):
            break
    return total


def _predarcy_cf(r_e: float, s: float, r1: float) -> float:
    # int_u1^1 u^(s/2-1) (1-u)^(2-s) du = B_x1(3-s, s/2), x1 = 1 - u1, is x1^(3-s) t1^s
    # / (3-s) times the continued fraction of the incomplete beta function (Numerical
    # Recipes 6.4), by modified Lentz.  Its k-th partial numerator is -(1 - g_(k-1)) g_k x1,
    # g_0 = 0, g_2m = m / (a+2m) and g_2m+1 = (a+b+m) / (a+2m+1), all in [0, 1) for
    # b = s/2 <= 1/2: a g-fraction, so each Lentz denominator, of d and of c, is at least
    # 1 - g_k x1 > 1 - x1.  x1 <= 1 - _CF_FLOOR^2 on this route, so none nears 0 and no
    # tiny-value guard is needed; a floor near 0 would let x1 near 1 and need one.
    t1 = r1 / r_e
    x1 = (r_e - r1) * (r_e + r1) / r_e**2
    a, b = 3.0 - s, 0.5 * s
    ab = a + b
    d = 1.0 / (1.0 - ab * x1 / (a + 1.0))
    c, cf, m, q = 1.0, d, 0.0, a
    for _ in range(1, _MAX_TERMS):
        m += 1.0
        q += 2.0  # a + 2m
        num = m * (b - m) * x1 / ((q - 1.0) * q)
        d = 1.0 / (1.0 + num * d)
        c = 1.0 + num / c
        cf *= d * c
        num = (a + m) * (ab + m) * x1 / (q * (q + 1.0))  # the odd numerator, negated
        d = 1.0 / (1.0 - num * d)
        c = 1.0 - num / c
        delta = d * c
        cf *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return x1**a * t1**s / a * cf


def _predarcy_inner(r_e: float, s: float, r1: float, r2: float) -> float:
    # binomial series of (1-u)^(2-s) against u^(s/2-1), u = (r/r_e)^2, with
    # 1 - u1/u2 and log(u1/u2) from r1/r2; r1 = 0 sums the head [0, u2]
    t2 = r2 / r_e
    step = (r2 - r1) / r2 * ((r2 + r1) / r2)
    return _beta_series(0.5 * s, s - 3.0, t2 * t2, t2**s, step, 2.0 * _log_ratio(r1, r2))


def _predarcy_outer(r_e: float, s: float, r1: float, r2: float) -> float:
    # the series in x at a = -s: first power 3 - s, c_k of (1-x)^(s/2-1), all positive
    x1 = (r_e - r1) * (r_e + r1) / r_e**2
    x2 = (r_e - r2) * (r_e + r2) / r_e**2
    dx = (r2 - r1) * (r2 + r1) / r_e**2
    return _beta_series(3.0 - s, -0.5 * s, x1, x1 ** (3.0 - s), dx / x1, _log_ratio(x2, x1))


@functools.lru_cache(maxsize=256)
def _predarcy_tail(s: float) -> float:
    # the part over u in [_SERIES_CUT^2, 1] depends on s alone; a flux sweep holds s fixed
    return _predarcy_outer(1.0, s, _SERIES_CUT, 1.0)


# A segment [r1, r_e] takes the continued fraction from r1 = _CF_START r_e, and from
# _CF_FLOOR r_e where the guard turns it away; below r_e / 2 the head route is the
# faster one where the guard passes.  At x1 = 1 - _CF_FLOOR^2, its largest, the
# continued fraction stops within 24 iterations at any s in [0, 1].
_CF_START = 0.5
_CF_FLOOR = 0.35


def _predarcy_bracket(r_e: float, s: float, r1: float, r2: float) -> float:
    # int (r_e^2-r^2)^(2-s) r^(s-1) dr = (r_e^(4-s)/2) int u^(s/2-1) (1-u)^(2-s) du.
    # B(s/2, 3-s) = s_beta / s, and the head is at most (r1/r_e)^s * 2 / s; below the
    # smallest normal float, (r1/r_e)^s has lost digits or is 0.
    # s * Gamma(s/2) is written 2 Gamma(1 + s/2), which stays finite as s -> 0.
    cut = _SERIES_CUT * r_e
    if r2 == r_e and r1 >= _CF_START * r_e:
        beta = _predarcy_cf(r_e, s, r1)
    elif r1 >= cut:
        beta = _predarcy_outer(r_e, s, r1, r2)
    elif r2 <= cut:
        beta = _predarcy_inner(r_e, s, r1, r2)
    elif r2 == r_e and (t1 := r1 / r_e) >= sys.float_info.min and t1**s <= 0.45 * (
        s_beta := 2.0 * math.gamma(1.0 + 0.5 * s) * math.gamma(3.0 - s) / math.gamma(3.0 - 0.5 * s)
    ):
        beta = s_beta / s - _predarcy_inner(r_e, s, 0.0, r1)
    elif r2 == r_e and r1 >= _CF_FLOOR * r_e:
        beta = _predarcy_cf(r_e, s, r1)
    else:
        beta = _predarcy_inner(r_e, s, r1, cut) + (
            _predarcy_tail(s) if r2 == r_e else _predarcy_outer(r_e, s, cut, r2)
        )
    return 0.5 * r_e ** (4.0 - s) * beta


# The terms of a PI denominator.  Summed by term, the S of any regime is
# alpha I0 + beta A I1 + lambda A^(-s) P: I0 over its Darcy and Forchheimer
# zones, I1 over its Forchheimer zones and P over its pre-Darcy zones.
_I0, _I1, _P = range(3)
#: The terms of each law's S.
_LAW_TERMS = {ZoneLaw.DARCY: (_I0,), ZoneLaw.FORCHHEIMER: (_I0, _I1), ZoneLaw.PRE_DARCY: (_P,)}


def _term_bracket(term: int, r_e: float, s: float, r1: float, r2: float) -> float:
    """The bracket of ``term`` over [r1, r2], r_w <= r1 < r2 <= r_e, unchecked:
    the integral of its monomial without the coefficient, for the PI and the kernels."""
    if term == _P:
        return _predarcy_bracket(r_e, s, r1, r2)
    return _x_bracket(_DARCY if term == _I0 else _FORCH, r_e, r1, r2)


def darcy_zone_integral(params: FlowParameters, a: float, r_e: float, r1: float,
                        r2: float) -> float:
    """S_D[r1, r2] = alpha I0, unchecked; it does not depend on the flux density a."""
    return params.alpha * _term_bracket(_I0, r_e, params.s, r1, r2)


def forchheimer_zone_integral(params: FlowParameters, a: float, r_e: float, r1: float,
                              r2: float) -> float:
    """S_F[r1, r2] = alpha I0 + beta A I1, unchecked."""
    darcy = params.alpha * _term_bracket(_I0, r_e, params.s, r1, r2)
    return darcy + params.beta * a * _term_bracket(_I1, r_e, params.s, r1, r2)


def predarcy_zone_integral(params: FlowParameters, a: float, r_e: float, r1: float,
                           r2: float) -> float:
    """S_pD[r1, r2] = lambda A^(-s) P, unchecked; S_D at s = 0, lambda = alpha.
    Raises FloatingPointError for a subnormal A (``_p_coefficient``)."""
    return _p_coefficient(params, a) * _term_bracket(_P, r_e, params.s, r1, r2)


def _p_coefficient(params: FlowParameters, a: float) -> float:
    """lambda A^(-s), the coefficient of P; FloatingPointError for a subnormal A.

    A subnormal A holds fewer than 53 significant bits, and A^(-s) carries
    the lost ones into the result: at Q/h = 1e-315, s = 0.7 the pure
    pre-Darcy PI came out 4.6e-3 off its exact law J ~ (Q/h)^s.  S_D and
    S_F stay exact there, so the test ``a < sys.float_info.min`` stands only
    here, where lambda A^(-s) is formed, for the kernels and the PI alike.
    """
    if a < sys.float_info.min:
        raise FloatingPointError(
            f"flux density A={a!r} is subnormal: lambda A^(-s) would lose its digits"
        )
    return params.lambda_ * a ** (-params.s)


def zone_integral(scn: Scenario, law: ZoneLaw, r1: float, r2: float) -> float:
    """S_law[r1, r2], exactly 0.0 if r1 == r2; ValueError unless r_w <= r1 <= r2 <= r_e."""
    geo = scn.geometry
    if not geo.r_w <= r1 <= r2 <= geo.r_e:
        raise ValueError(
            f"integration interval [{r1}, {r2}] not within [{geo.r_w}, {geo.r_e}]"
        )
    if r1 == r2:
        return 0.0
    # the law's kernel, by its module-level name so that a wrapper bound there sees every call
    params, a = scn.params, flux_density(scn)
    if law is ZoneLaw.DARCY:
        return darcy_zone_integral(params, a, geo.r_e, r1, r2)
    if law is ZoneLaw.FORCHHEIMER:
        return forchheimer_zone_integral(params, a, geo.r_e, r1, r2)
    return predarcy_zone_integral(params, a, geo.r_e, r1, r2)
