"""Pseudo-steady-state radial velocity field and the three-zone partition.

For a fully penetrating vertical well at the center of a closed cylindrical
reservoir, the PSS speed profile is

    v(r) = A * (r_e^2 - r^2) / r,      A = Q / (2 pi h (r_e^2 - r_w^2)),

which decreases strictly from v(r_w) = Q / (2 pi h r_w) to v(r_e) = 0.  The
critical velocities v_F > v_D cut the annulus into a fast zone near the well,
a moderate middle zone and a slow zone near the outer boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constitutive import FlowParameters, RegimeAssignment, ZoneLaw


@dataclass(frozen=True)
class Geometry:
    """Cylindrical reservoir of radius r_e and thickness h with a centered
    well of radius r_w, all in meters."""

    r_e: float
    r_w: float
    h: float

    def __post_init__(self):
        if not 0 < self.r_w < self.r_e < math.inf:
            raise ValueError(
                f"need 0 < r_w < r_e < inf, got r_w={self.r_w}, r_e={self.r_e}"
            )
        if not 0 < self.h < math.inf:
            raise ValueError(f"h must be positive and finite, got {self.h}")

    @property
    def radius_span_sq(self) -> float:
        """r_e^2 - r_w^2, factored to avoid cancellation near r_e."""
        return (self.r_e - self.r_w) * (self.r_e + self.r_w)


@dataclass(frozen=True)
class Scenario:
    """One fully specified well/reservoir computation case.

    ``q_over_h`` is the specific well flux Q/h in m^2/s; the total flux is
    Q = q_over_h * h.
    """

    geometry: Geometry
    params: FlowParameters
    regime: RegimeAssignment
    q_over_h: float

    def __post_init__(self):
        checked_flux(self.q_over_h)

    @property
    def q(self) -> float:
        return self.q_over_h * self.geometry.h


@dataclass(frozen=True)
class ZonePartition:
    """Transition radii of the three velocity zones.

    Fast flow occupies [r_w, r_F], moderate [r_F, r_D], slow [r_D, r_e].
    The flags record whether the raw critical radius fell outside the annulus
    and was clamped (that zone is then empty).
    """

    r_F: float
    r_D: float
    clamped_fast: bool
    clamped_slow: bool


def checked_flux(q_over_h: float) -> float:
    """q_over_h itself when 0 < q_over_h < inf; ValueError naming it otherwise.
    The one check of a specific flux, for a ``Scenario`` and for each flux of a
    ``compute_curve``."""
    if not 0 < q_over_h < math.inf:
        raise ValueError(f"q_over_h must be positive and finite, got {q_over_h}")
    return q_over_h


def finite_positive(what: str, x: float) -> float:
    """x itself when 0 < x < inf.

    Raises FloatingPointError naming ``what`` when x overflowed, underflowed
    to zero or is NaN, so that no such value is reported as a result.
    """
    if not 0.0 < x < math.inf:
        raise FloatingPointError(f"{what} out of the floating-point range: {x!r}")
    return x


def flux_density(scn: Scenario) -> float:
    """A = Q / (2 pi h (r_e^2 - r_w^2)), the volumetric source density (1/s).

    Raises FloatingPointError naming A unless 0 < A < inf: Q/h and
    r_e^2 - r_w^2 can each leave the float range, and the zone radii divide
    by A.
    """
    return _flux_density(scn.geometry, scn.q_over_h)


def _flux_density(geo: Geometry, q_over_h: float) -> float:
    span = 2.0 * math.pi * geo.radius_span_sq
    return finite_positive("flux density A", q_over_h / span if span else math.inf)


def velocity_profile(scn: Scenario, r):
    """PSS flow speed (m/s) at radius r in [r_w, r_e], a float or a numpy
    array; a float outside that range, or NaN, raises ValueError, and arrays
    go unchecked, as in ``pressure_gradient``."""
    geo = scn.geometry
    if isinstance(r, (int, float)) and not geo.r_w <= r <= geo.r_e:
        raise ValueError(f"r={r} outside [{geo.r_w}, {geo.r_e}]")
    return flux_density(scn) * (geo.r_e - r) * (geo.r_e + r) / r


def _raw_radius(a: float, r_e: float, v: float) -> float:
    # rationalized inverse of v(r), r = 2 A r_e^2 / (v + sqrt(v^2 + 4 A^2 r_e^2)),
    # with 2 A r_e taken out so that no square can overflow; no subtraction of
    # near-equal terms
    w = v / (2.0 * a * r_e)
    return r_e / (w + math.hypot(w, 1.0))


def radius_of_velocity(scn: Scenario, v: float) -> float:
    """Radius (m) at which the PSS profile attains speed v.

    v must lie in [0, v(r_w)]; v = 0 maps to r_e.
    """
    if not v >= 0:
        raise ValueError(f"v must be nonnegative, got {v}")
    v_max = velocity_profile(scn, scn.geometry.r_w)
    if v > v_max:
        raise ValueError(f"v={v} exceeds the wellbore speed {v_max}")
    return _raw_radius(flux_density(scn), scn.geometry.r_e, v)


def _flux_and_partition(geo: Geometry, params: FlowParameters,
                        q_over_h: float) -> tuple[float, ZonePartition]:
    # A at the flux q_over_h with the partition at it: compute_curve integrates at this A
    a = _flux_density(geo, q_over_h)
    raw_f = _raw_radius(a, geo.r_e, params.v_F)
    raw_d = _raw_radius(a, geo.r_e, params.v_D)
    r_f = min(max(raw_f, geo.r_w), geo.r_e)
    r_d = min(max(raw_d, geo.r_w), geo.r_e)
    return a, ZonePartition(r_f, r_d, r_f != raw_f, r_d != raw_d)


def partition_zones(scn: Scenario) -> ZonePartition:
    """Critical radii r_F = r(v_F) and r_D = r(v_D), clamped to the annulus.

    Clamping makes out-of-range zones empty, so downstream zone integrals
    over them vanish; r_w <= r_F <= r_D <= r_e always holds.
    """
    return _flux_and_partition(scn.geometry, scn.params, scn.q_over_h)[1]


#: One velocity zone: (inner radius, outer radius, governing law).
Zone = tuple[float, float, ZoneLaw]


def zone_bounds(
    scn: Scenario, part: ZonePartition, regime: RegimeAssignment
) -> tuple[Zone, Zone, Zone]:
    """The fast, moderate and slow zones [r_w, r_F], [r_F, r_D], [r_D, r_e]
    with their laws under ``regime``, empty ones included."""
    geo = scn.geometry
    return (
        (geo.r_w, part.r_F, regime.near_well),
        (part.r_F, part.r_D, regime.middle),
        (part.r_D, geo.r_e, regime.near_boundary),
    )


def merge_zones(zones: tuple[Zone, ...]) -> list[Zone]:
    """Nonempty zones, in order, with same-law neighbors merged.

    Merging means e.g. an all-Darcy regime always yields the single segment
    [r_w, r_e] regardless of where the critical radii fall, so its integrals
    do not depend on the flux at all.
    """
    merged: list[Zone] = []
    for a0, b0, law in zones:
        if b0 <= a0:
            continue
        if merged and merged[-1][2] is law:
            merged[-1] = (merged[-1][0], b0, law)
        else:
            merged.append((a0, b0, law))
    return merged


def zone_segments(scn: Scenario) -> list[Zone]:
    """Nonempty radial segments of the scenario's regime with their governing
    law, same-law neighbors merged (see ``merge_zones``)."""
    return merge_zones(zone_bounds(scn, partition_zones(scn), scn.regime))
