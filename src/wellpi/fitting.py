"""Recover pre-Darcy parameters from measured velocity / pressure-gradient data.

Below the transition velocity the data follow |grad p| = lambda * v^(1-s),
above it the linear Darcy relation |grad p| = alpha * v.  Both are straight
lines in log-log coordinates (the Darcy one with slope exactly 1), so the
fit is a two-segment least squares with an exhaustive search over the
breakpoint; the data sets are small enough that nothing smarter is needed.
The fit runs on the standard library, with correctly rounded sums
(``math.fsum``); only ``synthesize_measurements`` imports numpy, for its
seeded normal generator.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .constitutive import FlowParameters, law_for_speed, pressure_gradient, regime_preset
from .kinematics import finite_positive

#: Law-by-velocity mapping used when synthesizing measurements: Forchheimer
#: above v_F, Darcy between, pre-Darcy below v_D.
_PHYSICAL_REGIME = regime_preset("FDpD")
#: The fitted law: pre-Darcy below v_D_hat, Darcy above (no Forchheimer zone).
_FITTED_REGIME = regime_preset("DDpD")

_MIN_POINTS = 6
_MIN_SEGMENT = 3


@dataclass(frozen=True)
class FlowMeasurement:
    """One (superficial velocity, pressure-gradient magnitude) pair, SI."""

    v: float
    grad_p: float

    def __post_init__(self):
        if not 0 < self.v < math.inf:
            raise ValueError(f"velocity must be positive and finite, got {self.v}")
        if not 0 < self.grad_p < math.inf:
            raise ValueError(f"pressure gradient must be positive and finite, got {self.grad_p}")


@dataclass(frozen=True)
class FitResult:
    """Recovered pre-Darcy/Darcy parameters with residual diagnostics.

    points_per_segment counts (pre-Darcy, Darcy) points; (0, n) marks the
    no-breakpoint fallback where the whole data set is Darcy.  darcy_slope
    is the unconstrained log-log slope of the Darcy segment, a diagnostic
    for how well the pinned slope of 1 actually fits; it is NaN when every
    point of the Darcy segment has the same velocity, where no slope is
    defined.
    """

    s_hat: float
    lambda_hat: float
    alpha_hat: float
    v_D_hat: float
    sse_total: float
    points_per_segment: tuple[int, int]
    darcy_slope: float

    @property
    def no_breakpoint(self) -> bool:
        return self.points_per_segment[0] == 0


def synthesize_measurements(
    params: FlowParameters,
    v_grid: Sequence[float],
    noise_rel: float = 0.0,
    seed: int = 0,
) -> list[FlowMeasurement]:
    """Generate measurements from the composite law, law picked by velocity.

    grad_p = g(v) * v, optionally perturbed by a multiplicative log-normal
    factor exp(noise_rel * N(0,1)) from a seeded generator, so output is
    bit-reproducible for a fixed seed.
    """
    import numpy as np

    if not 0 <= noise_rel < math.inf:
        raise ValueError(f"noise_rel must be nonnegative and finite, got {noise_rel}")
    rng = np.random.default_rng(seed)
    out = []
    for v in v_grid:
        v = float(v)
        grad_p = pressure_gradient(params, law_for_speed(params, _PHYSICAL_REGIME, v), v)
        if noise_rel > 0:
            grad_p *= math.exp(noise_rel * float(rng.standard_normal()))
        out.append(FlowMeasurement(v=v, grad_p=grad_p))
    return out


def _slope_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line y = intercept + slope * x; returns (slope, intercept, sse)."""
    xm, ym = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [xi - xm for xi in x]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise ValueError("degenerate segment: all velocities equal")
    slope = math.fsum(d * (yi - ym) for d, yi in zip(dx, y)) / sxx
    intercept = ym - slope * xm
    sse = math.fsum((yi - (intercept + slope * xi)) ** 2 for xi, yi in zip(x, y))
    return slope, intercept, sse


def _unit_slope_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares intercept of y = intercept + x; returns (intercept, sse)."""
    r = [yi - xi for xi, yi in zip(x, y)]
    intercept = math.fsum(r) / len(r)
    sse = math.fsum((ri - intercept) ** 2 for ri in r)
    return intercept, sse


def _coefficient(what: str, intercept: float) -> float:
    """exp of a log-log intercept; FloatingPointError naming ``what`` at 0.0 or inf."""
    try:
        return finite_positive(what, math.exp(intercept))
    except OverflowError:
        return finite_positive(what, math.inf)


def fit_segments(data: Iterable[FlowMeasurement]) -> FitResult:
    """Two-segment log-log fit with exhaustive breakpoint search.

    Points are sorted by velocity; every split leaving at least three points
    per side is tried.  The lower segment fits log grad_p = log lambda +
    (1 - s) log v with free slope, the upper segment is pinned to the Darcy
    slope of 1.  The split with the smallest total squared residual wins,
    ties going to the smaller transition velocity, which is reported as the
    geometric mean of the two velocities bracketing the split.  If a single
    Darcy line explains the data just as well, the fallback result (s = 0,
    lambda = alpha) is returned instead.

    Raises FloatingPointError naming lambda_hat or alpha_hat when the
    coefficient overflows or underflows to zero.
    """
    points = sorted(data, key=lambda m: (m.v, m.grad_p))
    n = len(points)
    if n < _MIN_POINTS:
        raise ValueError(f"need at least {_MIN_POINTS} points, got {n}")
    if len({m.v for m in points}) < 2:
        raise ValueError("degenerate data: all velocities equal")

    x = [math.log(m.v) for m in points]
    y = [math.log(m.grad_p) for m in points]

    best = None  # (sse, points below the break, slope_low, icept_low, icept_up)
    for i in range(_MIN_SEGMENT - 1, n - _MIN_SEGMENT):
        # lower = points[: i + 1], upper = points[i + 1 :]
        xl = x[: i + 1]
        if xl[0] == xl[-1]:
            continue  # zero velocity spread below the split
        slope_low, icept_low, sse_low = _slope_fit(xl, y[: i + 1])
        icept_up, sse_up = _unit_slope_fit(x[i + 1 :], y[i + 1 :])
        sse = sse_low + sse_up
        if best is None or sse < best[0]:
            best = (sse, i + 1, slope_low, icept_low, icept_up)
    if best is None:
        raise ValueError("no admissible breakpoint: velocity spread too degenerate")

    intercept_all, sse_single = _unit_slope_fit(x, y)
    # prefer the fallback, a single Darcy line (no point below the break, s = 0 and
    # lambda = alpha), when it is as good as the best split, up to the numerical
    # noise floor of exact data
    noise_floor = n * 1e-26
    if sse_single <= best[0] * (1.0 + 1e-9) + noise_floor:
        best = (sse_single, 0, 1.0, intercept_all, intercept_all)

    sse, k, slope_low, icept_low, icept_up = best
    if x[k] == x[-1]:  # no velocity spread above the break
        darcy_slope = math.nan
    else:
        darcy_slope, _, _ = _slope_fit(x[k:], y[k:])
    return FitResult(
        s_hat=min(max(1.0 - slope_low, 0.0), 1.0),
        lambda_hat=_coefficient("lambda_hat", icept_low),
        alpha_hat=_coefficient("alpha_hat", icept_up),
        # v * v can over/underflow
        v_D_hat=math.sqrt(points[k - 1].v) * math.sqrt(points[k].v) if k else 0.0,
        sse_total=sse,
        points_per_segment=(k, n - k),
        darcy_slope=darcy_slope,
    )


# ---------------------------------------------------------------------------
# Measurement CSV interface
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("v_m_per_s", "grad_p_pa_per_m")


def read_measurements_csv(path: str) -> list[FlowMeasurement]:
    """Read measurements from a two-column CSV with the required header.

    Columns are ``v_m_per_s, grad_p_pa_per_m``; `.` is the decimal
    separator.  Malformed rows, and bytes that are not UTF-8, are reported
    with their line number, and a file with no rows but blank ones with its
    path.
    """
    with open(path, "rb") as fh:
        # a byte-order mark, as some editors save it, is not part of the header
        raw = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        # decoded whole, so the error's offset indexes raw; utf-8-sig would
        # count it from after a mark that raw still held
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte ends the slice, so the last line split off is its row
        lineno = len(raw[: exc.start + 1].splitlines())
        raise ValueError(f"row {lineno}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        # blank rows are skipped, before the header as after it
        rows = [(n, row) for n, row in enumerate(reader, start=1) if any(c.strip() for c in row)]
    except csv.Error as exc:  # e.g. a field beyond the csv module's size limit
        raise ValueError(f"row {reader.line_num}: {exc}") from None
    expected = ", ".join(CSV_COLUMNS)
    if not rows:
        raise ValueError(f"{path!r} is empty: expected header '{expected}'")
    header = rows[0][1]
    if [c.strip() for c in header] != list(CSV_COLUMNS):
        raise ValueError(f"expected header '{expected}', got {header!r}")
    out = []
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise ValueError(f"row {lineno}: expected 2 columns, got {len(row)}")
        try:
            out.append(FlowMeasurement(v=float(row[0]), grad_p=float(row[1])))
        except ValueError as exc:
            raise ValueError(f"row {lineno}: {exc}") from None
    return out


def model_curve(fit: FitResult, v_values: Sequence[float]) -> list[tuple[float, float]]:
    """Sample the fitted piecewise law: pre-Darcy below v_D_hat, Darcy above."""
    params = FlowParameters(
        alpha=fit.alpha_hat, beta=0.0, lambda_=fit.lambda_hat, s=fit.s_hat,
        v_D=fit.v_D_hat, v_F=fit.v_D_hat,
    )
    out = []
    for v in v_values:
        v = float(v)
        out.append((v, pressure_gradient(params, law_for_speed(params, _FITTED_REGIME, v), v)))
    return out
