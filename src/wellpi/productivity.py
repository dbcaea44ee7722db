"""Well productivity index assembled from the per-zone pressure-work integrals.

For any assignment of constitutive laws to the three velocity zones,

    J = L / sum_zones S_law[zone],      L = 2 pi h (r_e^2 - r_w^2)^2,

where empty zones contribute exactly zero.  One accumulator therefore covers
every conventional regime (all-Darcy, all-Forchheimer, and the mixed ones)
as well as arbitrary triples.  The dimensionless index is J * alpha / (2 pi h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constitutive import RegimeAssignment
from .kinematics import Scenario, ZonePartition, merge_zones, partition_zones, zone_bounds
from .quadrature import darcy_zone_integral, zone_integral


@dataclass(frozen=True)
class PiResult:
    """Productivity index with its zone breakdown.

    j_raw:           PI in m^3/(Pa*s)
    j_dimensionless: j_raw * alpha / (2 pi h)
    zone_partition:  critical radii used for the zone split
    contributions:   S values of (near-well, middle, near-boundary) zones
    regime:          the law assignment that produced the result
    """

    j_raw: float
    j_dimensionless: float
    zone_partition: ZonePartition
    contributions: tuple[float, float, float]
    regime: RegimeAssignment


def dimensionless_factor(scn: Scenario) -> float:
    """alpha / (2 pi h), the scaling that makes the PI dimensionless."""
    return scn.params.alpha / (2.0 * math.pi * scn.geometry.h)


def _zone_sums(scn: Scenario, part: ZonePartition) -> tuple[tuple[float, float, float], float]:
    """Per-zone S values and the PI denominator, in one pass over the zones.

    Each nonempty zone is integrated once.  A merged same-law segment that
    covers more than one zone is integrated again as a whole, so an all-Darcy
    regime always sums the one integral over [r_w, r_e] and its PI does not
    depend on where the critical radii fall.
    """
    zones = zone_bounds(scn, part)
    contributions = [0.0, 0.0, 0.0]
    segment_sums = []
    for a, b, law, members in merge_zones(zones):
        for i in members:
            lo, hi, _ = zones[i]
            contributions[i] = zone_integral(scn, law, lo, hi)
        if len(members) == 1:
            segment_sums.append(contributions[members[0]])
        else:
            segment_sums.append(zone_integral(scn, law, a, b))
    return tuple(contributions), math.fsum(segment_sums)


def compute_pi(scn: Scenario) -> PiResult:
    """Pseudo-steady-state productivity index for the scenario's regime.

    The denominator is accumulated over same-law merged segments, so an
    all-Darcy regime is exactly independent of the flux; per-zone
    contributions are reported unmerged.

    Raises FloatingPointError when the index or its dimensionless form
    overflows, underflows to zero or is NaN, so no such value is ever
    reported as a result.
    """
    geo = scn.geometry
    part = partition_zones(scn)
    contributions, total = _zone_sums(scn, part)
    big_l = 2.0 * math.pi * geo.h * geo.radius_span_sq**2
    j_raw = big_l / total
    j_dimensionless = j_raw * dimensionless_factor(scn)
    if not (0.0 < j_raw < math.inf and 0.0 < j_dimensionless < math.inf):
        raise FloatingPointError(
            f"PI out of the floating-point range: j_raw={j_raw!r}, "
            f"j_dimensionless={j_dimensionless!r}"
        )
    return PiResult(
        j_raw=j_raw,
        j_dimensionless=j_dimensionless,
        zone_partition=part,
        contributions=contributions,
        regime=scn.regime,
    )


def darcy_ratio(scn: Scenario) -> float:
    """J_regime / J_Darcy = S_D[r_w, r_e] / sum_zones S_law[zone].

    Multiplying the all-Darcy PI by this skin-style ratio reproduces the
    regime's PI.
    """
    geo = scn.geometry
    _, denom = _zone_sums(scn, partition_zones(scn))
    return darcy_zone_integral(scn, geo.r_w, geo.r_e) / denom
