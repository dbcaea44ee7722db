"""Segmented log-log fit of pre-Darcy/Darcy measurement data."""

import math
import random

import numpy as np
import pytest

from wellpi import (
    FlowMeasurement,
    base_scenario,
    fit_segments,
    read_measurements_csv,
    synthesize_measurements,
)
from wellpi.fitting import model_curve


def fit_params(s=0.6562, v_D=5e-8):
    """The base flow parameters (lambda = alpha) at the fitting studies' s and v_D."""
    return base_scenario("D", s=s, v_D=v_D).params


GRID = np.geomspace(1e-9, 1e-6, 20)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def test_noiseless_darcy_branch():
    data = synthesize_measurements(fit_params(), [1e-6, 1e-7])
    for m in data:
        assert m.grad_p == pytest.approx(1.01e10 * m.v, rel=1e-15)


def test_noiseless_predarcy_branch():
    params = fit_params(s=0.3)
    data = synthesize_measurements(params, [1e-9, 1e-8])
    for m in data:
        assert m.grad_p == pytest.approx(params.lambda_ * m.v**0.7, rel=1e-12)


def test_forchheimer_branch_above_v_f():
    params = fit_params()
    (m,) = synthesize_measurements(params, [1e-4])
    assert m.grad_p == pytest.approx((params.alpha + params.beta * 1e-4) * 1e-4, rel=1e-15)


def test_synthesis_is_bit_deterministic():
    params = fit_params()
    a = synthesize_measurements(params, GRID, noise_rel=0.01, seed=42)
    b = synthesize_measurements(params, GRID, noise_rel=0.01, seed=42)
    assert a == b
    c = synthesize_measurements(params, GRID, noise_rel=0.01, seed=43)
    assert a != c


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [0.1, 0.3, 0.5772, 0.6562, 0.9])
def test_noiseless_round_trip(s):
    params = fit_params(s=s)
    data = synthesize_measurements(params, GRID)
    fit = fit_segments(data)
    assert abs(fit.s_hat - s) <= 1e-6
    assert fit.lambda_hat == pytest.approx(params.lambda_, rel=1e-6)
    assert fit.alpha_hat == pytest.approx(params.alpha, rel=1e-6)
    # reported transition brackets the true one
    velocities = sorted(m.v for m in data)
    below = max(v for v in velocities if v < 5e-8)
    above = min(v for v in velocities if v > 5e-8)
    assert fit.v_D_hat == pytest.approx(math.sqrt(below * above), rel=1e-12)
    assert below <= fit.v_D_hat <= above


def test_pure_darcy_data_reports_fallback():
    # every sampled velocity sits in the Darcy range (above v_D, below v_F)
    params = fit_params(v_D=1e-12)
    data = synthesize_measurements(params, np.geomspace(1e-8, 5e-6, 12))
    fit = fit_segments(data)
    assert fit.no_breakpoint
    assert fit.s_hat == 0.0
    assert fit.v_D_hat == 0.0
    assert fit.lambda_hat == fit.alpha_hat
    assert fit.alpha_hat == pytest.approx(params.alpha, rel=1e-9)
    assert fit.points_per_segment == (0, 12)


def test_scale_equivariance():
    data = synthesize_measurements(fit_params(), GRID, noise_rel=0.01, seed=5)
    fit1 = fit_segments(data)
    c = 7.25
    scaled = [FlowMeasurement(v=m.v, grad_p=c * m.grad_p) for m in data]
    fit2 = fit_segments(scaled)
    assert fit2.s_hat == pytest.approx(fit1.s_hat, abs=1e-12)
    assert fit2.v_D_hat == fit1.v_D_hat
    assert fit2.lambda_hat == pytest.approx(c * fit1.lambda_hat, rel=1e-12)
    assert fit2.alpha_hat == pytest.approx(c * fit1.alpha_hat, rel=1e-12)


def test_permutation_invariance():
    data = synthesize_measurements(fit_params(), GRID, noise_rel=0.02, seed=9)
    shuffled = list(data)
    random.Random(3).shuffle(shuffled)
    assert fit_segments(shuffled) == fit_segments(data)


def test_noisy_recovery_within_band():
    errors = []
    for seed in range(100):
        data = synthesize_measurements(fit_params(), GRID, noise_rel=0.01, seed=seed)
        errors.append(abs(fit_segments(data).s_hat - 0.6562))
    assert max(errors) <= 0.05


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------

def test_too_few_points():
    data = synthesize_measurements(fit_params(), GRID[:5])
    with pytest.raises(ValueError, match="6"):
        fit_segments(data)


@pytest.mark.parametrize("v,grad_p", [(math.inf, 1.0), (math.nan, 1.0), (1e-7, math.inf), (1e-7, math.nan)])
def test_nonfinite_measurement_rejected(v, grad_p):
    with pytest.raises(ValueError, match="finite"):
        FlowMeasurement(v=v, grad_p=grad_p)


def test_equal_velocities_rejected():
    data = [FlowMeasurement(v=1e-7, grad_p=float(g)) for g in range(1, 8)]
    with pytest.raises(ValueError, match="equal"):
        fit_segments(data)


@pytest.mark.parametrize("noise_rel", [-0.1, math.inf, math.nan])
def test_noise_outside_zero_to_inf_rejected(noise_rel):
    # nan once gave noise-free data, and inf failed later naming the gradient
    with pytest.raises(ValueError, match="noise_rel"):
        synthesize_measurements(fit_params(), GRID, noise_rel=noise_rel)


def test_split_with_no_velocity_spread_below_is_skipped():
    # the first admissible split has three equal velocities below it
    v = [1e-9] * 3 + list(np.geomspace(2e-9, 3e-8, 3)) + list(np.geomspace(1e-7, 1e-6, 4))
    fit = fit_segments(synthesize_measurements(fit_params(), v))
    assert fit.points_per_segment == (6, 4)
    assert fit.s_hat == pytest.approx(0.6562, rel=1e-9)


@pytest.mark.parametrize("low, lambda_, high, alpha", [
    ((1e-320, 2e-320, 3e-320), 1e5, (1e-5, 2e-5, 3e-5), 1e20),
    ((1e300, 2e300, 3e300), 1.0, (4e302, 5e302, 6e302), 1e-140),
])
def test_breakpoint_of_extreme_velocities_is_finite(low, lambda_, high, alpha):
    # the product of the two bracketing velocities once underflowed to 0.0
    # or overflowed to inf; the geometric mean itself is a normal float
    data = ([FlowMeasurement(v=v, grad_p=lambda_ * math.sqrt(v)) for v in low]
            + [FlowMeasurement(v=v, grad_p=alpha * v) for v in high])
    fit = fit_segments(data)
    assert fit.points_per_segment == (3, 3)
    assert low[-1] < fit.v_D_hat < high[0]
    assert fit.v_D_hat == pytest.approx(math.sqrt(low[-1]) * math.sqrt(high[0]), rel=1e-15)


def test_no_split_with_velocity_spread_below_rejected():
    # every split of six points leaves only equal velocities below it
    data = synthesize_measurements(fit_params(), [1e-7] * 5 + [2e-7])
    with pytest.raises(ValueError, match="no admissible breakpoint"):
        fit_segments(data)


def test_darcy_segment_of_one_velocity_has_no_slope():
    v = list(np.geomspace(1e-9, 3e-8, 5)) + [1e-6] * 3
    fit = fit_segments(synthesize_measurements(fit_params(), v))
    assert fit.points_per_segment == (5, 3)
    assert math.isnan(fit.darcy_slope)


# v and grad_p of eight points on one Darcy line whose coefficient grad_p / v,
# 1e-600 or 1e600, lies outside the float range
OUT_OF_RANGE = {
    "underflow": [(1e300 * (1 + i), 1e-300 * (1 + i)) for i in range(8)],
    "overflow": [(1e-300 * (1 + i), 1e300 * (1 + i)) for i in range(8)],
}


@pytest.mark.parametrize("rows", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_coefficient_out_of_float_range_raises(rows):
    # exp of the fitted intercept once gave 0.0 or raised a bare OverflowError
    data = [FlowMeasurement(v=v, grad_p=grad_p) for v, grad_p in rows]
    with pytest.raises(FloatingPointError, match="(lambda|alpha)_hat out of the floating-point"):
        fit_segments(data)


def test_measurement_invariants():
    with pytest.raises(ValueError):
        FlowMeasurement(v=0.0, grad_p=1.0)
    with pytest.raises(ValueError):
        FlowMeasurement(v=1e-7, grad_p=-1.0)


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------

def _write_csv(path, rows, header="v_m_per_s,grad_p_pa_per_m"):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(cell) for cell in row) + "\n")


def test_csv_round_trip(tmp_path):
    path = tmp_path / "meas.csv"
    data = synthesize_measurements(fit_params(), GRID)
    _write_csv(path, [(f"{m.v:.16e}", f"{m.grad_p:.16e}") for m in data])
    loaded = read_measurements_csv(str(path))
    assert loaded == data


def test_csv_header_required(tmp_path):
    path = tmp_path / "meas.csv"
    _write_csv(path, [(1e-7, 1e3)], header="velocity,gradient")
    with pytest.raises(ValueError, match="header"):
        read_measurements_csv(str(path))


def test_csv_bad_row_is_named(tmp_path):
    path = tmp_path / "meas.csv"
    _write_csv(path, [(1e-7, 1e3), ("oops", 1e3)])
    with pytest.raises(ValueError, match="row 3"):
        read_measurements_csv(str(path))
    _write_csv(path, [(1e-7, 1e3), (2e-7, 1e3, 5.0)])
    with pytest.raises(ValueError, match="^row 3: expected 2 columns, got 3$"):
        read_measurements_csv(str(path))


def test_csv_nonpositive_velocity_is_named(tmp_path):
    path = tmp_path / "meas.csv"
    _write_csv(path, [(1e-7, 1e3), (-1e-7, 1e3)])
    with pytest.raises(ValueError, match="row 3"):
        read_measurements_csv(str(path))


# ---------------------------------------------------------------------------
# fitted curve sampling
# ---------------------------------------------------------------------------

def test_model_curve_piecewise():
    data = synthesize_measurements(fit_params(s=0.3), GRID)
    fit = fit_segments(data)
    curve = dict(model_curve(fit, [1e-9, 1e-6]))
    assert curve[1e-9] == pytest.approx(fit.lambda_hat * (1e-9) ** (1 - fit.s_hat), rel=1e-12)
    assert curve[1e-6] == pytest.approx(fit.alpha_hat * 1e-6, rel=1e-12)
