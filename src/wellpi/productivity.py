"""Well productivity index assembled from the per-zone pressure-work integrals.

For any assignment of constitutive laws to the three velocity zones,

    J = L / sum_zones S_law[zone],      L = 2 pi h (r_e^2 - r_w^2)^2,

where empty zones contribute exactly zero.  One accumulator therefore covers
every conventional regime (all-Darcy, all-Forchheimer, and the mixed ones)
as well as arbitrary triples.  The dimensionless index is J * alpha / (2 pi h).

``compute_pis`` makes one pass per scenario: A and the partition (from the
helper behind ``kinematics.partition_zones``) and L once, then each regime's
zones, same-law neighbours merged on the way, with each new (lo, hi, law)
segment integrated once, so regimes share their common segments, by its
law's unchecked kernel, ``darcy_zone_integral``, ``forchheimer_zone_integral``
or ``predarcy_zone_integral``, through ``quadrature._segment_integral``.
``compute_pi`` is its one-regime call.  ``zone_contributions`` gives the
unmerged per-zone S values on demand; the PI itself never needs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .constitutive import RegimeAssignment
from .kinematics import (
    Scenario,
    Zone,
    ZonePartition,
    _flux_and_partition,
    finite_positive,
    partition_zones,
    zone_bounds,
)
from .quadrature import _segment_integral, zone_integral


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

    Their sum is the PI denominator up to rounding: ``compute_pi`` integrates
    a run of same-law zones as one segment instead.
    """
    zones = zone_bounds(scn, partition_zones(scn), scn.regime)
    return tuple(zone_integral(scn, law, lo, hi) for lo, hi, law in zones)


def compute_pis(scn: Scenario, regimes: Sequence[RegimeAssignment]) -> list[PiResult]:
    """Pseudo-steady-state productivity index of each regime at the scenario.

    ``scn.regime`` is ignored; the results follow ``regimes`` in order.  A
    zone integral needed by several regimes (the same law over the same
    radii) is taken once, so each result equals what ``compute_pi`` gives
    for that regime alone, bit for bit.

    The denominator is accumulated over same-law merged segments, so an
    all-Darcy regime is exactly independent of the flux.

    Raises FloatingPointError when an index or its dimensionless form
    overflows, underflows to zero or is NaN, or when A, L or the zone
    integrals leave the float range on the way to it.
    """
    geo, params = scn.geometry, scn.params
    a, part = _flux_and_partition(scn)
    factor = dimensionless_factor(scn)
    done: dict[Zone, float] = {}
    out = []
    try:
        big_l = 2.0 * math.pi * geo.h * geo.radius_span_sq**2
        r_f, r_d, r_e = part.r_F, part.r_D, geo.r_e
        for regime in regimes:
            # the run of same-law nonempty zones [start, end] is integrated, as one
            # segment of merge_zones, when a zone of another law (or the closing
            # pseudo-zone past r_e) starts; empty zones are skipped
            values, start, end, run = [], geo.r_w, geo.r_w, None
            for hi, law in ((r_f, regime.near_well), (r_d, regime.middle),
                            (r_e, regime.near_boundary), (math.inf, None)):
                if hi <= end:
                    continue
                if law is not run:
                    if run is not None:
                        segment = (start, end, run)
                        value = done.get(segment)
                        if value is None:
                            value = _segment_integral(run, params, a, r_e, start, end)
                            done[segment] = value
                        values.append(value)
                    start, run = end, law
                end = hi
            j_raw = finite_positive("PI j_raw", big_l / math.fsum(values))
            out.append(PiResult(j_raw, finite_positive("PI j_dimensionless", j_raw * factor), part))
    except (OverflowError, ZeroDivisionError):
        # a float ** raises where * would give inf: at a huge r_e the powers in L
        # and in the zone integrals overflow, and at a tiny one both underflow to 0,
        # so J is a ratio the float range cannot hold
        raise FloatingPointError("PI j_raw out of the floating-point range: nan") from None
    return out


def compute_pi(scn: Scenario) -> PiResult:
    """Pseudo-steady-state productivity index for the scenario's regime:
    ``compute_pis`` for that one regime."""
    return compute_pis(scn, (scn.regime,))[0]
