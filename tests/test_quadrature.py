"""Adaptive integrator and the three zone integrals."""

import math

import numpy as np
import pytest

from wellpi import (
    QuadratureError,
    ZoneLaw,
    base_scenario,
    compute_pi,
    flux_density,
    integrate_adaptive,
    partition_zones,
    zone_integral,
)

from wellpi import quadrature
from wellpi.quadrature import _WG_HALF, _WGK_HALF, _XGK_HALF, _panels, _rule


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def test_polynomial_is_exact():
    res = integrate_adaptive(lambda x: x, 0.0, 1.0)
    assert res.value == pytest.approx(0.5, abs=1e-15)
    assert res.subdivisions == 1


def test_log_integrand():
    res = integrate_adaptive(lambda x: 1.0 / x, 1.0, 2.0)
    assert res.value == pytest.approx(math.log(2.0), rel=1e-13)


def test_empty_interval_is_exactly_zero():
    res = integrate_adaptive(lambda x: np.exp(x), 3.0, 3.0)
    assert res.value == 0.0
    assert res.abs_error_estimate == 0.0
    assert res.subdivisions == 0


def test_error_estimate_contract():
    res = integrate_adaptive(lambda x: np.sin(x), 0.0, 10.0, rel_tol=1e-10)
    assert res.abs_error_estimate <= max(1e-300, 1e-10 * abs(res.value)) or (
        res.abs_error_estimate < 1e-12  # roundoff floor
    )
    assert res.value == pytest.approx(1.0 - math.cos(10.0), rel=1e-12)


def test_bad_arguments():
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(lambda x: x, 0.0, 1.0, rel_tol=-1.0)


@pytest.mark.parametrize("rel_tol", [math.inf, math.nan])
def test_non_finite_rel_tol_rejected(rel_tol):
    # rel_tol = inf once accepted the first panel of 1/sqrt(x) as converged:
    # 1.9543 for the true value 2, with an error estimate of 0.07
    with pytest.raises(ValueError, match="rel_tol"):
        integrate_adaptive(lambda x: 1.0 / np.sqrt(x), 1e-12, 1.0, rel_tol=rel_tol)


@pytest.mark.parametrize("a, b", [
    (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf),
    (math.inf, math.inf), (-math.inf, -math.inf),
])
def test_non_finite_bound_rejected(a, b):
    # NaN once ended in a QuadratureError on a non-finite panel, and inf in
    # numpy's invalid-value warning; neither named the bound
    with pytest.raises(ValueError, match="need finite a <= b"):
        integrate_adaptive(lambda x: np.ones_like(x), a, b)


def test_panel_cap_raises_with_best_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(lambda x: 1.0 / x, 1e-9, 1.0, rel_tol=1e-14)
    best = info.value.best
    assert math.isfinite(best.value)
    assert best.subdivisions == 3
    assert best.abs_error_estimate > 0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_integrand_raises_at_the_first_panel(bad):
    calls = []

    def f(x):
        calls.append(len(x))
        return np.full_like(x, bad)

    with pytest.raises(QuadratureError) as info, np.errstate(invalid="ignore"):
        integrate_adaptive(f, 0.0, 1.0)
    assert len(calls) == 1  # no bisection towards the panel cap
    assert info.value.best.subdivisions == 1
    assert not math.isfinite(info.value.best.value)


def test_batched_panels_match_single_panels_in_one_call():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.exp(-x) / (1.0 + x * x)

    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 5.0, size=9)
    b = a + rng.uniform(1e-6, 3.0, size=9)
    batched = _panels(f, a, b)
    assert calls == [(15 * 9,)]  # one call on all the nodes, flattened
    for i in range(9):
        value, err, resabs = (x[0] for x in _panels(f, a[i:i + 1], b[i:i + 1]))
        ulp = np.spacing(resabs)
        assert abs(batched[0][i] - value) <= 4 * np.spacing(abs(value))
        assert abs(batched[2][i] - resabs) <= 4 * ulp
        # the error is a difference of two estimates of size resabs
        assert abs(batched[1][i] - err) <= 4 * ulp


def test_gauss_kronrod_weights_sum_to_two():
    _, _, w_kronrod, w_gauss = _rule()
    for weights in (w_kronrod, w_gauss):
        assert abs(math.fsum(weights) - 2.0) <= 4 * math.ulp(2.0)


def test_gauss_kronrod_rules_are_exact_on_monomials():
    # 15-node Kronrod rule through degree 22, its 7-node Gauss rule through 13
    _, nodes, w_kronrod, w_gauss = _rule()
    for weights, degree in ((w_kronrod, 22), (w_gauss, 13)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(weights * nodes**k) - exact) <= 1e-14


def _reference_panels(f, a, b):
    # the panel kernel with its arrays built the way the module once built
    # them at import time, with np.concatenate over the half tables
    xgk, wgk, wg = np.array(_XGK_HALF), np.array(_WGK_HALF), np.array(_WG_HALF)
    nodes = np.concatenate([-xgk[:7], xgk[::-1]])
    w_kronrod = np.concatenate([wgk[:7], wgk[::-1]])
    w_gauss = np.zeros(15)
    w_gauss[1:14:2] = np.concatenate([wg[:3], wg[::-1]])
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    x = center[:, None] + half[:, None] * nodes
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    kronrod = half * (fx @ w_kronrod)
    gauss = half * (fx @ w_gauss)
    return kronrod, np.abs(kronrod - gauss), np.abs(half) * (np.abs(fx) @ w_kronrod)


@pytest.mark.parametrize("f", [np.exp, np.sqrt, lambda x: x**7 - 3.0 * x, lambda x: 1.0 / x])
def test_panels_bit_identical_to_reference_construction(f):
    rng = np.random.default_rng(11)
    a = rng.uniform(0.1, 5.0, size=13)
    b = a + rng.uniform(1e-9, 3.0, size=13)
    for got, want in zip(_panels(f, a, b), _reference_panels(f, a, b)):
        assert np.array_equal(got, want)


def test_each_bisection_is_one_integrand_call():
    calls = []

    def f(x):
        calls.append(len(x))
        return 1.0 / x

    res = integrate_adaptive(f, 1e-6, 1.0, rel_tol=1e-12)
    assert res.value == pytest.approx(math.log(1e6), rel=1e-12)
    n0 = 18  # the first mesh: three panels per decade
    bisections = len(calls) - 1
    assert bisections > 10
    # the first mesh, then both halves of each bisected panel together
    assert res.subdivisions == n0 + bisections
    assert calls == [15 * n0] + [30] * bisections


@pytest.mark.parametrize("a,b", [
    (5e-324, 1.0), (1e-300, 1.0), (1e-300, 1e300), (5e-324, 1.7976931348623157e308),
    (1e-3, 1.0), (0.1, 1000.0), (1.0, 2.2), (3.0, 3e8),
])
def test_first_mesh_edges_increase_from_a_to_b(a, b):
    edges = quadrature._first_mesh(a, b)
    assert edges[0] == a and edges[-1] == b  # exactly, not to roundoff
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    # three panels per decade, rounded up, and at most 24
    assert len(edges) - 1 == min(24, math.ceil(3.0 * (math.log10(b) - math.log10(a))))


def test_first_mesh_respects_the_panel_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 5)
    assert len(quadrature._first_mesh(1e-6, 1.0)) - 1 == 5


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (1.0, 1.0 + 1e-9), (1.0, 2.0)])
def test_first_mesh_is_one_panel_from_zero_or_on_a_narrow_interval(a, b):
    calls = []

    def f(x):
        calls.append(len(x))
        return x * x

    res = integrate_adaptive(f, a, b)
    assert calls == [15]
    assert res.value == pytest.approx((b**3 - a**3) / 3.0, rel=1e-13)


def test_first_mesh_near_zero_gives_a_value_or_a_quadrature_error():
    # 1/x overflows at the nodes next to a subnormal a: a clean QuadratureError,
    # not the OverflowError or ValueError of a mesh built from b/a
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError):
            integrate_adaptive(lambda x: 1.0 / x, 5e-324, 1.0)
        res = integrate_adaptive(lambda x: 1.0 / x, 1e-300, 1.0)
    assert res.value == pytest.approx(300.0 * math.log(10.0), rel=1e-10)


@pytest.mark.parametrize("ratio", [1.01, 2.0, 10.0, 1e3, 1e5, 1e8])
def test_first_mesh_keeps_power_law_integrals_within_rel_tol(ratio):
    mp = pytest.importorskip("mpmath")
    r_e = 1000.0
    r_w = r_e / ratio
    rel_tol = 1e-10
    with mp.workdps(40):
        lo, hi = mp.mpf(r_w), mp.mpf(r_e)
        cases = [
            (lambda r: 1.0 / r, mp.log(hi / lo)),
            (lambda r: r**-0.3, (hi**0.7 - lo**0.7) / mp.mpf(0.7)),
            (lambda r: ((r_e - r) * (r_e + r)) ** 2 / r,
             hi**4 * mp.log(hi / lo) - hi**2 * (hi**2 - lo**2) + (hi**4 - lo**4) / 4),
        ]
        for f, exact in cases:
            value = integrate_adaptive(f, r_w, r_e, rel_tol=rel_tol).value
            assert abs(value - exact) <= rel_tol * abs(exact)


# ---------------------------------------------------------------------------
# closed forms vs quadrature
# ---------------------------------------------------------------------------

def _quad_darcy(scn, r1, r2):
    r_e = scn.geometry.r_e
    res = integrate_adaptive(
        lambda r: ((r_e - r) * (r_e + r)) ** 2 / r, r1, r2, rel_tol=1e-12
    )
    return scn.params.alpha * res.value


def _quad_forch(scn, r1, r2):
    r_e = scn.geometry.r_e
    res = integrate_adaptive(
        lambda r: ((r_e - r) * (r_e + r)) ** 3 / r**2, r1, r2, rel_tol=1e-12
    )
    return _quad_darcy(scn, r1, r2) + scn.params.beta * flux_density(scn) * res.value


def test_closed_forms_match_quadrature_on_random_subintervals():
    scn = base_scenario("D")
    rng = np.random.default_rng(7)
    for _ in range(100):
        r1, r2 = sorted(rng.uniform(0.3, 1000.0, size=2))
        assert zone_integral(scn, ZoneLaw.DARCY, r1, r2) == pytest.approx(
            _quad_darcy(scn, r1, r2), rel=1e-9
        )
        assert zone_integral(scn, ZoneLaw.FORCHHEIMER, r1, r2) == pytest.approx(
            _quad_forch(scn, r1, r2), rel=1e-9
        )


@pytest.mark.parametrize("r1,r2", [(999.99, 1000.0), (999.0, 999.001), (999.9999, 999.99995)])
def test_closed_forms_survive_near_boundary_cancellation(r1, r2):
    # the textbook antiderivative loses ~10 digits here; the series path must not
    scn = base_scenario("D")
    assert zone_integral(scn, ZoneLaw.DARCY, r1, r2) == pytest.approx(
        _quad_darcy(scn, r1, r2), rel=1e-9
    )
    assert zone_integral(scn, ZoneLaw.FORCHHEIMER, r1, r2) == pytest.approx(
        _quad_forch(scn, r1, r2), rel=1e-9
    )


# ---------------------------------------------------------------------------
# segments [r1, r_e]: the closed form whole from within r_e / 4, else the
# closed form to the series cut plus the precomputed tail
# ---------------------------------------------------------------------------

CLOSED_STARTS = (3e-4, 0.1, 0.25)  # r1 / r_e; 3e-4 is r_w / r_e of the baseline
TAIL_STARTS = (0.5, 0.7499)
TAIL_R_E = (1.0, 10.0, 437.3, 1000.0, 1e5)


def _refuse_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("series evaluated on a segment ending at r_e")

    monkeypatch.setattr(quadrature, "_x_series", refuse)


@pytest.mark.parametrize("regime", ["D", "F", "FDD"])
def test_pi_at_base_scenario_runs_no_darcy_or_forchheimer_series(regime, monkeypatch):
    _refuse_series(monkeypatch)
    assert compute_pi(base_scenario(regime)).j_raw > 0


# r_F at about 0.90 r_e and 0.997 r_e, past the series cut
@pytest.mark.parametrize("q_over_h", [0.3, 10.0])
@pytest.mark.parametrize("regime", ["D", "F", "FDD", "FDpD"])
def test_pi_at_high_flux_runs_no_series_on_a_segment_from_the_well(regime, q_over_h, monkeypatch):
    scn = base_scenario(regime, q_over_h=q_over_h)
    r_F = partition_zones(scn).r_F
    assert 0.75 * scn.geometry.r_e < r_F < scn.geometry.r_e
    # summed by term, every I0 and I1 run of these regimes starts at r_w: FDD's
    # Darcy zone from r_F is part of I0[r_w, r_e], and FDpD's of I0[r_w, r_D],
    # so each is one closed form
    _refuse_series(monkeypatch)
    assert compute_pi(scn).j_raw > 0


@pytest.mark.parametrize("r_e", TAIL_R_E)
@pytest.mark.parametrize("start", CLOSED_STARTS)
def test_segment_from_within_a_quarter_of_r_e_is_the_closed_form_whole(r_e, start, monkeypatch):
    _refuse_series(monkeypatch)
    for law in (quadrature._DARCY, quadrature._FORCH):
        assert quadrature._x_bracket(law, r_e, start * r_e, r_e) == law.closed(r_e, start * r_e, r_e)


@pytest.mark.parametrize("r_e", TAIL_R_E)
@pytest.mark.parametrize("start", TAIL_STARTS)
def test_tail_equals_split_closed_form_plus_series(r_e, start, monkeypatch):
    r1, cut = start * r_e, quadrature._SERIES_CUT * r_e
    splits = [law.closed(r_e, r1, cut) + quadrature._x_series(law, r_e, cut, r_e)
              for law in (quadrature._DARCY, quadrature._FORCH)]
    _refuse_series(monkeypatch)  # the part beyond the cut is the tail constant
    for law, split in zip((quadrature._DARCY, quadrature._FORCH), splits):
        assert abs(quadrature._x_bracket(law, r_e, r1, r_e) - split) <= 4 * math.ulp(split)


@pytest.mark.parametrize("s", [0.0, 1e-9, 0.3, 0.5, 1.0 - 1e-9, 1.0])
def test_predarcy_tail_equals_outer_series(s):
    for r_e in (1.0, 437.3, 1000.0, 1e5):
        outer = quadrature._predarcy_outer(r_e, s, quadrature._SERIES_CUT * r_e, r_e)
        assert abs(quadrature._predarcy_tail(s) - outer) <= 4 * math.ulp(outer)


def test_predarcy_tail_of_a_repeated_power_is_computed_once(monkeypatch):
    # [700, 1000] falls back to the split series at s = 0.3 and 0.4 (0.7^s > 0.45 s B)
    calls = []
    outer = quadrature._predarcy_outer

    def spy(*args):
        calls.append(args)
        return outer(*args)

    monkeypatch.setattr(quadrature, "_predarcy_outer", spy)
    quadrature._predarcy_tail.cache_clear()
    try:
        for q_over_h in (1e-6, 1e-4, 1e-2):
            scn = base_scenario("D", s=0.3, q_over_h=q_over_h)
            zone_integral(scn, ZoneLaw.PRE_DARCY, 700.0, 1000.0)
        assert len(calls) == 1
        zone_integral(base_scenario("D", s=0.4), ZoneLaw.PRE_DARCY, 700.0, 1000.0)
        assert len(calls) == 2
    finally:
        quadrature._predarcy_tail.cache_clear()


# ---------------------------------------------------------------------------
# S_pD to r_e as the complete beta function minus its head
# ---------------------------------------------------------------------------

def _split_bracket(r_e, s, r1):
    # the route of every segment [r1, r_e] that the guard turns away
    cut = quadrature._SERIES_CUT * r_e
    beta = quadrature._predarcy_inner(r_e, s, r1, cut) + quadrature._predarcy_tail(s)
    return 0.5 * r_e ** (4.0 - s) * beta


@pytest.mark.parametrize("s", [0.0, 5e-324, 1e-310, 1e-300, 1e-9, 1e-3, 1.0])
def test_predarcy_to_r_e_at_edge_powers_agrees_with_the_split_series(s):
    # math.gamma(s / 2) would raise at s = 5e-324 and overflow at 1e-310
    scn = base_scenario("D", s=s)
    r_e, r_w = scn.geometry.r_e, scn.geometry.r_w
    assert math.isfinite(zone_integral(scn, ZoneLaw.PRE_DARCY, r_w, r_e))
    got = quadrature._predarcy_bracket(r_e, s, r_w, r_e)
    split = _split_bracket(r_e, s, r_w)
    assert abs(got - split) <= 4 * math.ulp(split)


def test_predarcy_to_r_e_at_s_zero_is_unchanged():
    assert quadrature._predarcy_bracket(1000.0, 0.0, 0.3, 1000.0) == 7361728173308.071


def _beta_series_calls(monkeypatch, fn, *args):
    calls = []
    series = quadrature._beta_series

    def spy(*series_args):
        calls.append(series_args)
        return series(*series_args)

    monkeypatch.setattr(quadrature, "_beta_series", spy)
    quadrature._predarcy_tail.cache_clear()
    try:
        fn(*args)
    finally:
        quadrature._predarcy_tail.cache_clear()
        monkeypatch.setattr(quadrature, "_beta_series", series)
    return calls


def test_guard_sums_no_head_for_a_fallback_segment(monkeypatch):
    # s = 0.3 from 700 m: 0.7^0.3 = 0.899 > 0.45 s B = 0.741, so only the split series run
    r_e, s, r1 = 1000.0, 0.3, 700.0
    got = _beta_series_calls(monkeypatch, quadrature._predarcy_bracket, r_e, s, r1, r_e)
    assert got == _beta_series_calls(monkeypatch, _split_bracket, r_e, s, r1)
    assert len(got) == 2


def _is_head(call):
    # the inner series from r = 0: rho = 0, so step = 1 and log(rho) = -inf
    *_, step, log_rho = call
    return step == 1.0 and log_rho == -math.inf


def test_head_route_sums_one_series_from_zero(monkeypatch):
    r_e, s, r1 = 1000.0, 0.3, 0.3
    got = _beta_series_calls(monkeypatch, quadrature._predarcy_bracket, r_e, s, r1, r_e)
    assert len(got) == 1 and _is_head(got[0])
    assert got == _beta_series_calls(monkeypatch, quadrature._predarcy_inner, r_e, s, 0.0, r1)


@pytest.mark.parametrize("s, r1, beta", [
    # int_u1^1 u^(s/2-1) (1-u)^(2-s) du from mpmath at 40 digits
    (0.01, 1e-170, 194.78845285786758),
    (0.001, 1e-300, 1003.0270992502075),
    (1.0, 1e-300, 1.3333333333333333),
])
def test_head_route_when_u1_underflows(s, r1, beta, monkeypatch):
    # (r1 / r_e)^2 is 0 in floating point, and the head is still one series
    # from r = 0, whose terms beyond (r1 / r_e)^s * 2 / s vanish
    r_e = 1000.0
    calls = _beta_series_calls(monkeypatch, quadrature._predarcy_bracket, r_e, s, r1, r_e)
    assert len(calls) == 1 and _is_head(calls[0])
    got = quadrature._predarcy_bracket(r_e, s, r1, r_e) / (0.5 * r_e ** (4.0 - s))
    assert abs(got - beta) <= 1e-14 * beta


# ---------------------------------------------------------------------------
# the term bound: the stop rule ends every series before _MAX_TERMS
# ---------------------------------------------------------------------------

BOUND_S = (0.0, 5e-324, 1e-300, 1e-9, 0.3, 0.7, 1.0 - 1e-9, 1.0)
CUT = quadrature._SERIES_CUT
# on the unit reservoir, the intervals where each series runs longest: from the
# cut, where x or u is largest, to the far end or to a sliver, whose terms fall slowest
X_WORST = ((CUT, 1.0), (CUT, 0.9), (CUT, CUT * (1.0 + 1e-9)), (CUT, math.nextafter(CUT, 1.0)))
U_WORST = ((5e-324, CUT), (1e-300, CUT), (1e-3, CUT), (0.5, CUT),
           (CUT * (1.0 - 1e-9), CUT), (math.nextafter(CUT, 0.0), CUT))


@pytest.mark.parametrize("law", [quadrature._DARCY, quadrature._FORCH], ids=["S_D", "S_F"])
@pytest.mark.parametrize("r1, r2", X_WORST)
def test_x_series_stops_before_the_term_bound(law, r1, r2):
    taken = []

    def weights():
        for w in law.weights:
            taken.append(w)
            yield w

    assert len(law.weights) == quadrature._MAX_TERMS
    quadrature._x_series(law._replace(weights=weights()), 1.0, r1, r2)
    assert len(taken) < quadrature._MAX_TERMS


def _beta_terms(monkeypatch, series, *args):
    """Terms that ``series(*args)`` sums: term 0, then one per step of the
    kernel's loop over range(1, _MAX_TERMS), which is counted."""
    steps = []

    def counted_range(*bounds):
        assert bounds == (1, quadrature._MAX_TERMS)
        for k in range(*bounds):
            steps.append(k)
            yield k

    monkeypatch.setattr(quadrature, "range", counted_range, raising=False)
    series(*args)
    return 1 + len(steps)


@pytest.mark.parametrize("s", BOUND_S)
def test_beta_series_stop_before_the_term_bound(s, monkeypatch):
    terms = [_beta_terms(monkeypatch, quadrature._predarcy_outer, 1.0, s, r1, r2)
             for r1, r2 in X_WORST]
    terms += [_beta_terms(monkeypatch, quadrature._predarcy_inner, 1.0, s, r1, r2)
              for r1, r2 in U_WORST]
    if 0.5 * s > 0.0:
        # the head from r = 0 diverges where s/2 is 0, and the guard keeps those s off it
        terms.append(_beta_terms(monkeypatch, quadrature._predarcy_inner, 1.0, s, 0.0, CUT))
    assert max(terms) < quadrature._MAX_TERMS


# ---------------------------------------------------------------------------
# zone integral properties
# ---------------------------------------------------------------------------

def test_empty_zone_integrals_are_zero():
    scn = base_scenario("D")
    assert zone_integral(scn, ZoneLaw.DARCY, 5.0, 5.0) == 0.0
    assert zone_integral(scn, ZoneLaw.FORCHHEIMER, 5.0, 5.0) == 0.0
    assert zone_integral(scn, ZoneLaw.PRE_DARCY, 5.0, 5.0) == 0.0


def test_out_of_range_interval_rejected():
    scn = base_scenario("D")
    with pytest.raises(ValueError):
        zone_integral(scn, ZoneLaw.DARCY, 0.1, 5.0)
    with pytest.raises(ValueError):
        zone_integral(scn, ZoneLaw.PRE_DARCY, 5.0, 1001.0)
    with pytest.raises(ValueError):
        zone_integral(scn, ZoneLaw.FORCHHEIMER, 7.0, 5.0)


@pytest.mark.parametrize("law", [ZoneLaw.DARCY, ZoneLaw.FORCHHEIMER, ZoneLaw.PRE_DARCY])
def test_additivity(law):
    scn = base_scenario("D", s=0.7)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b, c = sorted(rng.uniform(0.3, 1000.0, size=3))
        whole = zone_integral(scn, law, a, c)
        parts = zone_integral(scn, law, a, b) + zone_integral(scn, law, b, c)
        assert parts == pytest.approx(whole, rel=1e-10)


def test_interval_monotonicity_and_ordering():
    scn = base_scenario("D", s=0.7)

    def s_law(law, r2):
        return zone_integral(scn, law, 1.0, r2)

    assert s_law(ZoneLaw.DARCY, 10.0) <= s_law(ZoneLaw.DARCY, 100.0)
    assert s_law(ZoneLaw.FORCHHEIMER, 100.0) >= s_law(ZoneLaw.DARCY, 100.0)
    assert s_law(ZoneLaw.PRE_DARCY, 10.0) <= s_law(ZoneLaw.PRE_DARCY, 100.0)


def test_predarcy_s0_collapses_to_darcy():
    scn = base_scenario("D", s=0.0)  # lambda_ = alpha in the baseline
    a, b = 10.0, 800.0
    assert zone_integral(scn, ZoneLaw.PRE_DARCY, a, b) == pytest.approx(
        zone_integral(scn, ZoneLaw.DARCY, a, b), rel=1e-9
    )


def test_predarcy_nondecreasing_in_s_over_slow_zone():
    # all speeds below 1 m/s and lambda = alpha, so larger s means more drag
    values = []
    for s in np.linspace(0.0, 1.0, 11):
        scn = base_scenario("D", s=float(s))
        values.append(zone_integral(scn, ZoneLaw.PRE_DARCY, 155.3, 1000.0))
    assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# published-value anchors
# ---------------------------------------------------------------------------

def test_darcy_bracket_full_interval():
    # alpha-stripped integral over the whole annulus, direct arithmetic
    scn = base_scenario("D")
    expected = (
        1000.0**4 * math.log(1000.0 / 0.3)
        - 1000.0**2 * (1000.0**2 - 0.3**2)
        + (1000.0**4 - 0.3**4) / 4.0
    )
    bracket = zone_integral(scn, ZoneLaw.DARCY, 0.3, 1000.0) / scn.params.alpha
    assert bracket == pytest.approx(expected, rel=1e-10)
    assert bracket == pytest.approx(7.3617e12, rel=1e-4)
    # dimensionless all-Darcy PI published as 0.1358
    j = (1000.0**2 - 0.3**2) ** 2 / bracket
    assert j == pytest.approx(0.1358, rel=0.01)


def test_forchheimer_full_interval_published_value():
    # dimensionless all-Forchheimer PI at Q/h = 1 published as 0.0497
    scn = base_scenario("D", q_over_h=1.0)
    s_f = zone_integral(scn, ZoneLaw.FORCHHEIMER, 0.3, 1000.0)
    j = scn.params.alpha * (1000.0**2 - 0.3**2) ** 2 / s_f
    assert j == pytest.approx(0.0497, rel=0.01)
