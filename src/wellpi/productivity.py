"""Well productivity index assembled from the per-zone pressure-work integrals.

For any assignment of constitutive laws to the three velocity zones,

    J = L / sum_zones S_law[zone],      L = 2 pi h (r_e^2 - r_w^2)^2,

where empty zones contribute exactly zero.  One accumulator therefore covers
every conventional regime (all-Darcy, all-Forchheimer, and the mixed ones)
as well as arbitrary triples.  The dimensionless index is J * alpha / (2 pi h).

The zone partition does not depend on the regime, so ``compute_pis``
evaluates several regimes at one scenario from one partition and takes each
zone integral that two regimes share only once; ``compute_pi`` is its
one-regime call.  ``zone_contributions`` gives the unmerged per-zone S
values on demand; the PI itself never needs them.
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
    finite_positive,
    merge_zones,
    partition_zones,
    zone_bounds,
)
from .quadrature import zone_integral


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


def _denominator(
    scn: Scenario, part: ZonePartition, regime: RegimeAssignment, done: dict[Zone, float]
) -> float:
    """PI denominator of one regime: the S values of its merged same-law
    segments, summed.

    A one-zone segment is that zone again, and a longer one is integrated as
    a whole, so an all-Darcy regime always sums the one integral over
    [r_w, r_e] and its PI does not depend on where the critical radii fall.
    ``done`` maps each segment (lo, hi, law) already integrated at this
    partition to its S value; nothing in it is integrated again, and new
    ones are added.
    """
    values = []
    for segment in merge_zones(zone_bounds(scn, part, regime)):
        value = done.get(segment)
        if value is None:
            lo, hi, law = segment
            value = done[segment] = zone_integral(scn, law, lo, hi)
        values.append(value)
    return math.fsum(values)


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

    ``scn.regime`` is ignored; the results follow ``regimes`` in order.  The
    zones are partitioned once, and a zone integral needed by several
    regimes (the same law over the same radii) is taken once, so each result
    equals what ``compute_pi`` gives for that regime alone, bit for bit.

    The denominator is accumulated over same-law merged segments, so an
    all-Darcy regime is exactly independent of the flux.

    Raises FloatingPointError when an index or its dimensionless form
    overflows, underflows to zero or is NaN, or when L or the zone integrals
    leave the float range on the way to it.
    """
    geo = scn.geometry
    part = partition_zones(scn)
    factor = dimensionless_factor(scn)
    done: dict[Zone, float] = {}
    out = []
    for regime in regimes:
        try:
            j_raw = 2.0 * math.pi * geo.h * geo.radius_span_sq**2 / _denominator(
                scn, part, regime, done
            )
        except (OverflowError, ZeroDivisionError):
            # a float ** raises where * would give inf: at a huge r_e the
            # powers in L and in the zone integrals overflow, and at a tiny one
            # both underflow to 0, so J is a ratio the float range cannot hold
            j_raw = math.nan
        j_raw = finite_positive("PI j_raw", j_raw)
        out.append(PiResult(
            j_raw=j_raw,
            j_dimensionless=finite_positive("PI j_dimensionless", j_raw * factor),
            zone_partition=part,
        ))
    return out


def compute_pi(scn: Scenario) -> PiResult:
    """Pseudo-steady-state productivity index for the scenario's regime:
    ``compute_pis`` for that one regime."""
    return compute_pis(scn, (scn.regime,))[0]
