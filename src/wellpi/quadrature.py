"""Adaptive quadrature and the three per-zone pressure-work integrals.

The integrator pairs a 7-point Gauss rule with its 15-point Kronrod
extension on each panel; the difference of the two estimates serves as the
panel error.  It starts from a mesh of n0 panels that is geometric in r,
three per decade of b/a and at most 24, evaluated in one call of 15 n0
nodes: every oracle integrand behaves like a power of r near the well,
which equal panels resolve only by one serial bisection per halving of the
distance to it.  The panel with the largest error is then bisected, both
halves in one call of 30 nodes, until the summed error meets the tolerance
or the panel cap is hit.  Panels are kept in left-to-right order and summed
with compensated addition, so results are deterministic regardless of how
the work is scheduled.  Nothing on the PI path uses it: it is the
independent oracle that the closed forms below are checked against.  numpy
is imported, and the rule's node and weight arrays built, only when the
oracle integrator first runs; the closed forms are plain ``math``, so the
PI commands start without numpy.

The zone integrals entering the productivity index are

    S_D[r1, r2]  = alpha * int (r_e^2 - r^2)^2 / r dr
    S_F[r1, r2]  = S_D + beta * A * int (r_e^2 - r^2)^3 / r^2 dr
    S_pD[r1, r2] = lambda * A^(-s) * int (r_e^2 - r^2)^(2-s) * r^(s-1) dr

The kernels ``darcy_zone_integral``, ``forchheimer_zone_integral`` and
``predarcy_zone_integral`` take (params, A, r_e, r1, r2), r_w <= r1 < r2 <= r_e,
unchecked; ``zone_integral(scn, law, r1, r2)`` picks one by law, checks the
interval and gives exactly 0.0 for an empty one.  They are the per-zone route
of the oracles, the checks and ``pi``'s S lines.  The PI path sums by term
instead, alpha I0 + beta A I1 + lambda A^(-s) P, and takes each bracket
without its coefficient through one dispatch, ``_term_bracket(term, r_e, s,
r1, r2)``: I0 and I1 are the integrals of S_D / alpha and of the inertial
part of S_F / (beta A), and P that of S_pD / (lambda A^(-s)).

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
from below the cut is the complete integral B(s/2, 3-s), from three
math.gamma calls, minus its head: the inner series from r = 0 to r1.  The
guard (r1/r_e)^s <= 0.45 s B, taken before any series is summed, keeps the
head within 0.9 B, so the difference loses at most one digit.  s = 0, tiny
s, r1 near the cut and a subnormal r1/r_e fail it; such segments, like those
that cross the cut and end short of r_e, sum the inner series up to the cut
and the outer series beyond it, whose part over u in [0.75^2, 1] depends on
s alone and is cached.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from .constitutive import FlowParameters, ZoneLaw
from .kinematics import Scenario, flux_density

if TYPE_CHECKING:
    import numpy as np

# ---------------------------------------------------------------------------
# Gauss-Kronrod 7/15 pair
# ---------------------------------------------------------------------------

_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = sys.float_info.epsilon


@functools.cache
def _rule():
    """numpy, the 15 nodes on [-1, 1] and their Kronrod and Gauss weights.

    Built on first use, so that importing this module (the closed forms on
    the PI path) does not import numpy; only the oracle integrator needs it.
    """
    import numpy as np

    xgk, wgk, wg = np.array(_XGK_HALF), np.array(_WGK_HALF), np.array(_WG_HALF)
    nodes = np.concatenate([-xgk[:7], xgk[::-1]])
    w_kronrod = np.concatenate([wgk[:7], wgk[::-1]])
    w_gauss = np.zeros(15)
    w_gauss[1:14:2] = np.concatenate([wg[:3], wg[::-1]])
    return np, nodes, w_kronrod, w_gauss


# Subdivision cap; plenty for smooth integrands on a bounded interval.
_MAX_PANELS = 2000
# Cap on the geometric first mesh of integrate_adaptive: 24 panels span
# eight decades at three per decade.
_FIRST_PANELS = 24
# Absolute tolerance: in effect, the relative tolerance alone decides.
_ABS_TOL = 1e-300


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


def _panels(f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray):
    """Kronrod value, error estimate and resabs of the 15-node panel on each
    interval [a[i], b[i]], as three arrays.

    ``f`` is called once, on the 15 * n nodes of all n panels flattened in
    interval order.
    """
    np, rule_nodes, w_kronrod, w_gauss = _rule()
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = center[:, None] + half[:, None] * rule_nodes
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    kronrod = half * (fx @ w_kronrod)
    gauss = half * (fx @ w_gauss)
    resabs = np.abs(half) * (np.abs(fx) @ w_kronrod)
    return kronrod, np.abs(kronrod - gauss), resabs


def _panel_list(f: Callable[[np.ndarray], np.ndarray], a: list, b: list) -> list:
    """(a, b, value, error, resabs) of the panel on each [a[i], b[i]]."""
    np = _rule()[0]
    values, errs, resabs = _panels(f, np.array(a, dtype=float), np.array(b, dtype=float))
    return list(zip(a, b, values.tolist(), errs.tolist(), resabs.tolist()))


def _first_mesh(a: float, b: float) -> list[float]:
    """Edges of the first panels on [a, b], a < b: geometric in r, three per
    decade of b/a rounded up, at most _FIRST_PANELS and _MAX_PANELS; one panel
    when a <= 0 or b/a <= 10^(1/3).  The edges come from logarithms, since b/a
    can overflow, and end exactly on a and b."""
    if a <= 0.0:
        return [a, b]
    log_a = math.log(a)
    span = math.log(b) - log_a
    n = min(_FIRST_PANELS, _MAX_PANELS, math.ceil(3.0 * span / math.log(10.0)))
    return [a] + [math.exp(log_a + i / n * span) for i in range(1, n)] + [b]


def _converged(value: float, err: float, resabs: float, rel_tol: float) -> bool:
    """The acceptance test of integrate_adaptive: the error is finite and
    within max(1e-300, rel_tol * |value|), or at the roundoff floor of the
    integrand, where no further subdivision can help."""
    return math.isfinite(err) and (
        err <= max(_ABS_TOL, rel_tol * abs(value)) or err <= 100.0 * _EPS * resabs
    )


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
) -> IntegralResult:
    """Integrate f over [a, b] to max(1e-300, rel_tol * |value|).

    ``f`` receives one 1-D float array, the 15 * n Gauss-Kronrod nodes of
    the n panels evaluated together, and must return an array of the same
    shape, finite on [a, b] (endpoints are never evaluated).  The first
    mesh of n0 panels, geometric in r with three per decade of b/a
    (``_first_mesh``), is one call of 15 n0 nodes, and each bisection
    evaluates both halves in one call of 30, so k bisections cost k + 1
    calls.  An empty interval integrates to exactly zero.  Once the
    accumulated panel error sits at the roundoff floor of the integrand no
    further subdivision can help, and the current estimate is returned as
    converged.

    Raises QuadratureError (carrying the best estimate) if the panel cap is
    reached first, and at once when a panel's estimate or error is not
    finite (f returned NaN or inf, or overflowed in the sum), instead of
    bisecting towards the cap.
    """
    if not -math.inf < a <= b < math.inf:
        raise ValueError(f"need finite a <= b, got a={a}, b={b}")
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if a == b:
        return IntegralResult(0.0, 0.0, 0)

    edges = _first_mesh(a, b)
    panels = _panel_list(f, edges[:-1], edges[1:])
    while True:
        err = math.fsum(p[3] for p in panels)
        if not math.isfinite(err):
            value = sum(p[2] for p in panels)  # fsum raises on inf - inf
            raise QuadratureError(
                f"non-finite panel on [{a}, {b}] (value={value:.6e}, err={err:.2e})",
                IntegralResult(value, err, len(panels)),
            )
        value = math.fsum(p[2] for p in panels)
        resabs = math.fsum(p[4] for p in panels)
        if _converged(value, err, resabs, rel_tol):
            return IntegralResult(value, err, len(panels))
        if len(panels) >= _MAX_PANELS:
            best = IntegralResult(value, err, len(panels))
            raise QuadratureError(
                f"no convergence within {_MAX_PANELS} panels "
                f"(value={value:.6e}, err={err:.2e})",
                best,
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        a0, b0 = panels[worst][:2]
        mid = 0.5 * (a0 + b0)
        panels[worst:worst + 1] = _panel_list(f, [a0, mid], [mid, b0])


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
    # so only D_0 needs expm1.  At p0 = 0 the first term is its limit -log(rho).
    if step <= 0.5:
        log_rho = math.log1p(-step)
    rho = 1.0 - step
    gap = -math.expm1(p0 * log_rho)
    rest = math.exp(p0 * log_rho)
    total = power * gap / p0 if p0 > 0.0 else -log_rho
    c = 1.0
    for k in range(1, _MAX_TERMS):
        c *= (k + m) / k
        gap += rest * step
        rest *= rho
        power *= hi
        term = c * power * gap / (p0 + k)
        total += term
        if abs(term) <= _STOP * abs(total):
            break
    return total


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


def _predarcy_bracket(r_e: float, s: float, r1: float, r2: float) -> float:
    # int (r_e^2-r^2)^(2-s) r^(s-1) dr = (r_e^(4-s)/2) int u^(s/2-1) (1-u)^(2-s) du.
    # B(s/2, 3-s) = s_beta / s, and the head is at most (r1/r_e)^s * 2 / s; below the
    # smallest normal float, (r1/r_e)^s has lost digits or is 0.
    # s * Gamma(s/2) is written 2 Gamma(1 + s/2), which stays finite as s -> 0.
    cut = _SERIES_CUT * r_e
    if r1 >= cut:
        beta = _predarcy_outer(r_e, s, r1, r2)
    elif r2 <= cut:
        beta = _predarcy_inner(r_e, s, r1, r2)
    elif r2 == r_e and (t1 := r1 / r_e) >= sys.float_info.min and t1**s <= 0.45 * (
        s_beta := 2.0 * math.gamma(1.0 + 0.5 * s) * math.gamma(3.0 - s) / math.gamma(3.0 - 0.5 * s)
    ):
        beta = s_beta / s - _predarcy_inner(r_e, s, 0.0, r1)
    else:
        beta = _predarcy_inner(r_e, s, r1, cut) + (
            _predarcy_tail(s) if r2 == r_e else _predarcy_outer(r_e, s, cut, r2)
        )
    return 0.5 * r_e ** (4.0 - s) * beta


def darcy_zone_integral(params: FlowParameters, a: float, r_e: float, r1: float,
                        r2: float) -> float:
    """S_D[r1, r2] in closed form, unchecked; it does not depend on the flux density a."""
    return params.alpha * _x_bracket(_DARCY, r_e, r1, r2)


def forchheimer_zone_integral(params: FlowParameters, a: float, r_e: float, r1: float,
                              r2: float) -> float:
    """S_F[r1, r2] = S_D + inertial term in closed form, unchecked."""
    darcy = params.alpha * _x_bracket(_DARCY, r_e, r1, r2)
    return darcy + params.beta * a * _x_bracket(_FORCH, r_e, r1, r2)


def predarcy_zone_integral(params: FlowParameters, a: float, r_e: float, r1: float,
                           r2: float) -> float:
    """S_pD[r1, r2] as an incomplete beta series, unchecked; S_D at s = 0, lambda = alpha."""
    s = params.s
    return params.lambda_ * a ** (-s) * _predarcy_bracket(r_e, s, r1, r2)


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


# The terms of a PI denominator.  Summed by term, the S of any regime is
# alpha I0 + beta A I1 + lambda A^(-s) P: I0 over its Darcy and Forchheimer
# zones, I1 over its Forchheimer zones and P over its pre-Darcy zones.
_I0, _I1, _P = range(3)
#: The terms of each law's S.
_LAW_TERMS = {ZoneLaw.DARCY: (_I0,), ZoneLaw.FORCHHEIMER: (_I0, _I1), ZoneLaw.PRE_DARCY: (_P,)}


def _term_bracket(term: int, r_e: float, s: float, r1: float, r2: float) -> float:
    """The bracket of ``term`` over [r1, r2], r_w <= r1 < r2 <= r_e, unchecked:
    the integral of its monomial without the coefficient, as the kernels take it."""
    if term == _P:
        return _predarcy_bracket(r_e, s, r1, r2)
    return _x_bracket(_DARCY if term == _I0 else _FORCH, r_e, r1, r2)
