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
zones (``quadrature._term_bracket``).  The flux enters only through A and the
two critical radii, so ``compute_curve`` makes one pass over a list of
fluxes at the geometry, laws and s of a scenario: per flux, A and the
partition from the helper behind ``kinematics.partition_zones``, then each
regime's term runs from a table built once per law triple and set of empty
zones, with each (term, lo, hi) bracket taken once per call.  An F zone next
to a D zone thus shares one I0 with it, and across a flux sweep I0, I1 and P
over [r_w, r_e] are taken once.  ``compute_pis`` is its one-flux case and
``compute_pi`` its one-regime case.  ``zone_contributions`` gives the
per-zone S values through the per-law kernels on demand; the PI itself never
needs them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .constitutive import RegimeAssignment, ZoneLaw
from .kinematics import (
    Scenario,
    ZonePartition,
    _flux_and_partition,
    checked_flux,
    finite_positive,
    partition_zones,
    zone_bounds,
)
from .quadrature import _I0, _I1, _LAW_TERMS, _P, _term_bracket, zone_integral


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
    return scn.params.alpha / (2.0 * math.pi * scn.geometry.h)


def zone_contributions(scn: Scenario) -> tuple[float, float, float]:
    """S values of the (near-well, middle, near-boundary) zones of the
    scenario's regime, unmerged; exactly 0.0 for an empty zone.

    Their sum is the PI denominator up to rounding: ``compute_pi`` sums the
    same integrals by term instead.
    """
    zones = zone_bounds(scn, partition_zones(scn), scn.regime)
    return tuple(zone_integral(scn, law, lo, hi) for lo, hi, law in zones)


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


def compute_curve(scn: Scenario, regimes: Sequence[RegimeAssignment],
                  q_values: Sequence[float]) -> list[list[PiResult]]:
    """Pseudo-steady-state productivity index of each regime at each flux.

    The geometry and parameters are those of ``scn``; ``scn.q_over_h`` and
    ``scn.regime`` are ignored.  Entry k holds the results at ``q_values[k]``
    in the order of ``regimes``.  A bracket needed twice (the same term over
    the same radii, at one flux or at two) is taken once, so each result
    equals what ``compute_pi`` gives for that regime at that flux, bit for bit.
    An all-Darcy regime is the one bracket I0[r_w, r_e], exactly independent
    of the flux.

    Raises ValueError, as ``Scenario`` does, for a flux that is not positive
    and finite, and FloatingPointError when an index or its dimensionless
    form overflows, underflows to zero or is NaN, or when A, L or the zone
    integrals leave the float range on the way to it.
    """
    geo, params = scn.geometry, scn.params
    r_w, r_e, s = geo.r_w, geo.r_e, params.s
    alpha, beta, lambda_ = params.alpha, params.beta, params.lambda_
    factor = dimensionless_factor(scn)
    bracket = _term_bracket
    # nothing repeats within one regime at one flux
    cache = {} if len(q_values) > 1 or len(regimes) > 1 else None
    curve = []
    try:
        big_l = 2.0 * math.pi * geo.h * geo.radius_span_sq**2
        for q in q_values:
            a, part = _flux_and_partition(geo, params, checked_flux(q))
            r_f, r_d = part.r_F, part.r_D
            radii = (r_w, r_f, r_d, r_e)
            empty = (r_f <= r_w, r_d <= r_f, r_e <= r_d)
            # lambda A^(-s) only for a P run: A^(-s) can overflow where no pre-Darcy zone needs it
            coefficients = [alpha, beta * a, None]
            out = []
            for r in regimes:
                values = []
                for term, i, j in _term_runs(r.near_well, r.middle, r.near_boundary, empty):
                    lo, hi = radii[i], radii[j]
                    if cache is None:
                        value = bracket(term, r_e, s, lo, hi)
                    else:
                        key = (term, lo, hi)
                        value = cache.get(key)
                        if value is None:
                            value = cache[key] = bracket(term, r_e, s, lo, hi)
                    c = coefficients[term]
                    if c is None:
                        c = coefficients[_P] = lambda_ * a ** (-s)
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


def compute_pis(scn: Scenario, regimes: Sequence[RegimeAssignment]) -> list[PiResult]:
    """Pseudo-steady-state productivity index of each regime at the scenario:
    ``compute_curve`` at its one flux.  ``scn.regime`` is ignored; the
    results follow ``regimes`` in order."""
    return compute_curve(scn, regimes, (scn.q_over_h,))[0]


def compute_pi(scn: Scenario) -> PiResult:
    """Pseudo-steady-state productivity index for the scenario's regime:
    ``compute_curve`` for that one regime at the scenario's flux."""
    return compute_curve(scn, (scn.regime,), (scn.q_over_h,))[0][0]
