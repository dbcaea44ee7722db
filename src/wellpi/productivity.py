"""Well productivity index assembled from the per-zone pressure-work integrals.

For any assignment of constitutive laws to the three velocity zones,

    J = L / sum_zones S_law[zone],      L = 2 pi h (r_e^2 - r_w^2)^2,

where empty zones contribute exactly zero.  One accumulator therefore covers
every conventional regime (all-Darcy, all-Forchheimer, and the mixed ones)
as well as arbitrary triples.  The dimensionless index is J * alpha / (2 pi h).

Summed by term instead of by zone, the denominator of every regime is

    alpha I0 + beta A I1 + lambda A^(-s) P,

with the bracket I0 over each run of its Darcy and Forchheimer zones, I1
over each run of its Forchheimer zones and P over each run of its pre-Darcy
zones (``quadrature._term_bracket``).  A point (q_over_h, params) enters a
bracket only through the critical radii and, for P, the power s, so
``compute_curve`` makes one pass over a list of points in one reservoir:
per point A, the partition (from the helper behind
``kinematics.partition_zones``), the coefficients and the dimensionless
factor, then each regime's term runs from a table built once per law triple
and set of empty zones, with each bracket taken once per call.  An F zone
next to a D zone thus shares one I0 with it, and a curve takes I0 and I1
over [r_w, r_e] once, and P over it once per s.  ``compute_pi`` is its
one-point, one-regime case.  ``zone_contributions`` gives the per-zone S
values on demand, each its law's terms through the same ``_term_bracket``
and ``_p_coefficient``; the PI never needs them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .constitutive import FlowParameters, RegimeAssignment, ZoneLaw
from .kinematics import (
    Geometry,
    Scenario,
    ZonePartition,
    _flux_and_partition,
    checked_flux,
    finite_positive,
    zone_bounds,
)
from .quadrature import (
    _I0,
    _I1,
    _LAW_TERMS,
    _P,
    _p_coefficient,
    _term_bracket,
    zone_integral,
)


@dataclass(frozen=True)
class PiResult:
    """Productivity index of one regime.

    j_raw:           PI in m^3/(Pa*s)
    j_dimensionless: j_raw * alpha / (2 pi h)
    zone_partition:  critical radii used for the zone split
    """

    j_raw: float
    j_dimensionless: float
    zone_partition: ZonePartition


def dimensionless_factor(scn: Scenario) -> float:
    """alpha / (2 pi h), the scaling that makes the PI dimensionless."""
    return _factor(scn.params, scn.geometry)


def _factor(params: FlowParameters, geo: Geometry) -> float:
    return params.alpha / (2.0 * math.pi * geo.h)


def zone_contributions(scn: Scenario) -> tuple[float, float, float]:
    """S values of the (near-well, middle, near-boundary) zones of the
    scenario's regime, unmerged; exactly 0.0 for an empty zone.

    Their sum is the PI denominator up to rounding: ``compute_pi`` sums the
    same integrals by term instead.
    """
    return tuple(zone_integral(scn, law, lo, hi) for lo, hi, law in zone_bounds(scn))


@functools.cache
def _term_runs(near_well: ZoneLaw, middle: ZoneLaw, near_boundary: ZoneLaw,
               empty: tuple[bool, bool, bool]) -> tuple[tuple[int, int, int], ...]:
    """The term runs of a regime with these laws whose k-th zone is empty when
    ``empty[k]`` holds: (term, i, j) for each maximal run of nonempty zones
    whose laws carry the term, from the i-th to the j-th of the radii
    (r_w, r_F, r_D, r_e)."""
    zones = [(k, law) for k, law in enumerate((near_well, middle, near_boundary)) if not empty[k]]
    runs = []
    for term in (_I0, _I1, _P):
        start = None
        for zone, law in zones:
            if term in _LAW_TERMS[law]:
                start = zone if start is None else start
                end = zone + 1
            elif start is not None:
                runs.append((term, start, end))
                start = None
        if start is not None:
            runs.append((term, start, end))
    return tuple(runs)


def compute_curve(geo: Geometry, regimes: Sequence[RegimeAssignment],
                  points: Sequence[tuple[float, FlowParameters]]) -> list[list[PiResult]]:
    """Pseudo-steady-state productivity index of each regime at each point
    (q_over_h, params) in the reservoir ``geo``.

    Entry k holds the results at ``points[k]`` in the order of ``regimes``.
    A bracket needed twice (the same term over the same radii, and for P at
    the same s, at one point or at two) is taken once, so each result equals
    what ``compute_pi`` gives for that regime at that point, bit for bit.
    An all-Darcy regime is the one bracket I0[r_w, r_e], exactly independent
    of the flux.

    Raises ValueError, as ``Scenario`` does, for a flux that is not positive
    and finite, and FloatingPointError when an index or its dimensionless
    form overflows, underflows to zero or is NaN, when A, L or the zone
    integrals leave the float range on the way to it, or when a pre-Darcy
    zone meets a subnormal A (``quadrature._p_coefficient``).
    """
    r_w, r_e = geo.r_w, geo.r_e
    bracket = _term_bracket
    # nothing repeats within one regime at one point
    cache = {} if len(points) > 1 or len(regimes) > 1 else None
    curve = []
    try:
        big_l = 2.0 * math.pi * geo.h * geo.radius_span_sq**2
        for q, params in points:
            a, part = _flux_and_partition(geo, params, checked_flux(q))
            s, factor = params.s, _factor(params, geo)
            r_f, r_d = part.r_F, part.r_D
            radii = (r_w, r_f, r_d, r_e)
            empty = (r_f <= r_w, r_d <= r_f, r_e <= r_d)
            # lambda A^(-s) only for a P run: A^(-s) can overflow where no pre-Darcy zone needs it
            coefficients = [params.alpha, params.beta * a, None]
            out = []
            for r in regimes:
                values = []
                for term, i, j in _term_runs(r.near_well, r.middle, r.near_boundary, empty):
                    lo, hi = radii[i], radii[j]
                    if cache is None:
                        value = bracket(term, r_e, s, lo, hi)
                    else:
                        # only P depends on s
                        key = (term, s, lo, hi) if term == _P else (term, lo, hi)
                        value = cache.get(key)
                        if value is None:
                            value = cache[key] = bracket(term, r_e, s, lo, hi)
                    c = coefficients[term]
                    if c is None:
                        c = coefficients[_P] = _p_coefficient(params, a)
                    values.append(c * value)
                j_raw = finite_positive("PI j_raw", big_l / math.fsum(values))
                out.append(PiResult(j_raw, finite_positive("PI j_dimensionless", j_raw * factor), part))
            curve.append(out)
    except (OverflowError, ZeroDivisionError):
        # a float ** raises where * would give inf: at a huge r_e the powers in L
        # and in the brackets overflow, and at a tiny one both underflow to 0,
        # so J is a ratio the float range cannot hold
        raise FloatingPointError("PI j_raw out of the floating-point range: nan") from None
    return curve


def compute_pi(scn: Scenario) -> PiResult:
    """Pseudo-steady-state productivity index for the scenario's regime:
    ``compute_curve`` for that one regime at the scenario's one point."""
    return compute_curve(scn.geometry, (scn.regime,), ((scn.q_over_h, scn.params),))[0][0]
