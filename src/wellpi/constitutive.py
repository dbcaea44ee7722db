"""Piecewise constitutive laws for radial flow in porous media.

The velocity/pressure-gradient relation is ``g(|v|) v = -grad p`` where the
resistance coefficient ``g`` switches between three branches depending on the
flow speed:

* pre-Darcy (slow):       g(xi) = lambda * xi**(-s),  0 <= xi <= v_D
* Darcy (moderate):       g(xi) = alpha,              v_D <= xi <= v_F
* Forchheimer (fast):     g(xi) = alpha + beta * xi,  xi >= v_F

Everything here is a pure function of immutable values (safe to call from any
number of threads) and all quantities are strict SI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum


class ZoneLaw(Enum):
    """Which constitutive branch governs a flow zone."""

    PRE_DARCY = "pre-darcy"
    DARCY = "darcy"
    FORCHHEIMER = "forchheimer"

    # Members are singletons compared by identity; the identity hash is
    # C-level, which keeps dict keys that hold a law cheap on the PI path.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class FlowParameters:
    """Hydrodynamic coefficients and critical transition velocities.

    alpha:   Darcy coefficient mu/k, Pa*s/m^2
    beta:    Forchheimer coefficient, Pa*s^2/m^3
    lambda_: pre-Darcy coefficient, Pa*s^(1-s)/m^(2-s)
    s:       pre-Darcy exponent in [0, 1]
    v_D:     Darcy/pre-Darcy transition velocity, m/s
    v_F:     Darcy/Forchheimer transition velocity, m/s
    """

    alpha: float
    beta: float
    lambda_: float
    s: float
    v_D: float
    v_F: float

    def __post_init__(self):
        # positive-form comparisons, so NaN fails every one of them
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be nonnegative and finite, got {self.beta}")
        if not 0 < self.lambda_ < math.inf:
            raise ValueError(f"lambda_ must be positive and finite, got {self.lambda_}")
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"s must lie in [0, 1], got {self.s}")
        if not 0 <= self.v_D <= self.v_F < math.inf:
            raise ValueError(
                f"critical velocities must satisfy 0 <= v_D <= v_F < inf, "
                f"got v_D={self.v_D}, v_F={self.v_F}"
            )

    def with_continuous_predarcy(self) -> "FlowParameters":
        """Rescale lambda_ to alpha * v_D**s so g is continuous at v_D."""
        if self.v_D <= 0:
            raise ValueError("continuous pre-Darcy rescaling requires v_D > 0")
        return replace(self, lambda_=self.alpha * self.v_D**self.s)


@dataclass(frozen=True)
class RegimeAssignment:
    """Constitutive law assigned to each of the three velocity zones.

    ``near_well`` governs the fast zone at the well, ``middle`` the moderate
    annulus, ``near_boundary`` the slow zone at the outer boundary.  Any
    combination is allowed; the conventional ones are available as presets.
    """

    near_well: ZoneLaw
    middle: ZoneLaw
    near_boundary: ZoneLaw

    def laws(self) -> tuple[ZoneLaw, ZoneLaw, ZoneLaw]:
        return (self.near_well, self.middle, self.near_boundary)


_D, _F, _P = ZoneLaw.DARCY, ZoneLaw.FORCHHEIMER, ZoneLaw.PRE_DARCY

#: Conventional regime presets, keyed by their usual shorthand.
REGIME_PRESETS: dict[str, RegimeAssignment] = {
    "D": RegimeAssignment(_D, _D, _D),
    "F": RegimeAssignment(_F, _F, _F),
    "FDD": RegimeAssignment(_F, _D, _D),
    "DDpD": RegimeAssignment(_D, _D, _P),
    "FDpD": RegimeAssignment(_F, _D, _P),
    "FpDpD": RegimeAssignment(_F, _P, _P),
    "pure-preDarcy": RegimeAssignment(_P, _P, _P),
}

_PRESET_LOOKUP = {name.lower().replace("-", ""): name for name in REGIME_PRESETS}


def regime_preset(name: str) -> RegimeAssignment:
    """Look up a preset by name (case-insensitive, dashes optional)."""
    key = name.lower().replace("-", "")
    if key not in _PRESET_LOOKUP:
        valid = ", ".join(REGIME_PRESETS)
        raise ValueError(f"unknown regime preset {name!r}; expected one of: {valid}")
    return REGIME_PRESETS[_PRESET_LOOKUP[key]]


def preset_name(regime: RegimeAssignment) -> str:
    """Shorthand name for a regime, or a composed label for ad-hoc triples."""
    for name, preset in REGIME_PRESETS.items():
        if preset == regime:
            return name
    short = {_D: "D", _F: "F", _P: "pD"}
    return "".join(short[law] for law in regime.laws())


def pressure_gradient(params: FlowParameters, law: ZoneLaw, speed):
    """|grad p| = g(speed) * speed in Pa/m along one law branch.

    alpha * v for Darcy, (alpha + beta * v) * v for Forchheimer and
    lambda * v**(1 - s) for pre-Darcy, which is 0 at v = 0 for s < 1 and the
    flux-independent lambda at s = 1.  ``speed`` is a float or a numpy array
    of speeds; only plain operators touch it.  A negative float speed raises
    ValueError; arrays are not checked, since a per-call reduction would cost
    more than the law.
    """
    if isinstance(speed, (int, float)) and speed < 0:
        raise ValueError(f"speed must be nonnegative, got {speed}")
    if law is ZoneLaw.DARCY:
        return params.alpha * speed
    if law is ZoneLaw.FORCHHEIMER:
        return (params.alpha + params.beta * speed) * speed
    return params.lambda_ * speed ** (1.0 - params.s)


def mobility(params: FlowParameters, law: ZoneLaw, grad_p: float) -> float:
    """Mobility K(|grad p|) in m^2/(Pa*s): speed = K * |grad p|.

    Inverse of ``pressure_gradient`` along each branch.  Undefined for the
    pre-Darcy branch at s = 1 (the forward law becomes flux-independent).
    """
    if not grad_p >= 0:
        raise ValueError(f"grad_p must be nonnegative, got {grad_p}")
    if law is ZoneLaw.DARCY:
        return 1.0 / params.alpha
    if law is ZoneLaw.FORCHHEIMER:
        return 2.0 / (params.alpha + math.sqrt(params.alpha**2 + 4.0 * params.beta * grad_p))
    if params.s == 1.0:
        raise ValueError("pre-Darcy mobility is undefined for s = 1")
    if grad_p == 0.0 and params.s > 0:
        raise ValueError("pre-Darcy mobility requires grad_p > 0 when s > 0")
    # log form: the two factors can over/underflow separately as s -> 1
    exponent = (params.s * math.log(grad_p) - math.log(params.lambda_)) / (1.0 - params.s)
    return math.exp(exponent)


def law_for_speed(params: FlowParameters, regime: RegimeAssignment, speed: float) -> ZoneLaw:
    """Pick the zone law that governs a given flow speed."""
    if speed < 0:
        raise ValueError(f"speed must be nonnegative, got {speed}")
    if speed >= params.v_F:
        return regime.near_well
    if speed >= params.v_D:
        return regime.middle
    return regime.near_boundary


def drag_power(params: FlowParameters, regime: RegimeAssignment, speed: float) -> float:
    """g(|v|) * v^2, the drag power density; continuous with value 0 at v = 0."""
    speed = abs(speed)
    return pressure_gradient(params, law_for_speed(params, regime, speed), speed) * speed
