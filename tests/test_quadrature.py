"""Adaptive integrator and the three zone integrals."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wellpi import (
    QuadratureError,
    ZoneLaw,
    base_scenario,
    compute_pi,
    flux_density,
    integrate_adaptive,
    partition_zones,
    zone_contributions,
    zone_integral,
)

from wellpi import checks, quadrature, validation
from wellpi.constitutive import pressure_gradient
from wellpi.kinematics import velocity_profile
from wellpi.validation import (
    _GK_GAUSS,
    _GK_KRONROD,
    _GK_NODES,
    _WG_HALF,
    _WGK_HALF,
    _XGK_HALF,
    _integrate_batch,
    _panels,
)


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
    monkeypatch.setattr(validation, "_MAX_PANELS", 3)
    # the message names the interval, as that of a non-finite panel does
    message = r"no convergence within 3 panels on \[1e-09, 1\.0\]"
    with pytest.raises(QuadratureError, match=message) as info:
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


@pytest.mark.parametrize("n", [1, 2, 7, 30, 300, 3000])
def test_batched_panels_match_single_panels_in_one_call(n):
    # each row is reduced on its own, so a panel's numbers do not depend on
    # the batch; a matrix-vector product's blocking makes the last bit of a
    # row depend on the row count and position
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.exp(-x) / (1.0 + x * x)

    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 5.0, size=n)
    b = a + rng.uniform(1e-6, 3.0, size=n)
    batched = _panels(f, a, b)
    assert calls == [(15 * n,)]  # one call on all the nodes, flattened
    for i in range(n):
        single = _panels(f, a[i:i + 1], b[i:i + 1])
        for got, want in zip(batched, single):
            assert got[i].hex() == want[0].hex()


def test_gauss_kronrod_weights_sum_to_two():
    for weights in (_GK_KRONROD, _GK_GAUSS):
        assert abs(math.fsum(weights) - 2.0) <= 4 * math.ulp(2.0)


def test_gauss_kronrod_rules_are_exact_on_monomials():
    # 15-node Kronrod rule through degree 22, its 7-node Gauss rule through 13
    for weights, degree in ((_GK_KRONROD, 22), (_GK_GAUSS, 13)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(weights * _GK_NODES**k) - exact) <= 1e-14


def _reference_panels(f, a, b):
    # the panel kernel with its arrays built the way the module once built
    # them, with np.concatenate over the arrays of the half tables
    xgk, wgk, wg = np.array(_XGK_HALF), np.array(_WGK_HALF), np.array(_WG_HALF)
    nodes = np.concatenate([-xgk[:7], xgk[::-1]])
    w_kronrod = np.concatenate([wgk[:7], wgk[::-1]])
    w_gauss = np.zeros(15)
    w_gauss[1:14:2] = np.concatenate([wg[:3], wg[::-1]])
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    x = center[:, None] + half[:, None] * nodes
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    kronrod = half * np.vecdot(fx, w_kronrod)
    gauss = half * np.vecdot(fx, w_gauss)
    return kronrod, np.abs(kronrod - gauss), np.abs(half) * np.vecdot(np.abs(fx), w_kronrod)


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


# ---------------------------------------------------------------------------
# batch engine: independent integrals in one pass
# ---------------------------------------------------------------------------

def _alone(f, j):
    # the batch integrand of integral j, as integrate_adaptive takes it
    return lambda x: f(x, np.full(x.shape, j))


def _assert_each_as_alone(f, a, b, rel_tol=1e-10, singular_b=None):
    batched = _integrate_batch(f, a, b, rel_tol, singular_b)
    for j, res in enumerate(batched):
        graded = bool(singular_b and singular_b[j])
        alone = integrate_adaptive(_alone(f, j), a[j], b[j], rel_tol, graded)
        assert res.value.hex() == alone.value.hex()
        assert res.abs_error_estimate.hex() == alone.abs_error_estimate.hex()
        assert res.subdivisions == alone.subdivisions
    return batched


def test_batch_of_closed_vs_quadrature_equals_each_integral_alone(monkeypatch):
    # the 3 x 100 drag-energy integrals of validate, laws and per-node s included
    jobs = []

    def spy(f, a, b, rel_tol):
        jobs.append((f, a, b, rel_tol))
        return _integrate_batch(f, a, b, rel_tol)

    monkeypatch.setattr(checks, "_integrate_batch", spy)
    assert checks.check_closed_vs_quadrature().passed
    (f, a, b, rel_tol), = jobs
    assert len(a) == 300
    _assert_each_as_alone(f, a, b, rel_tol)


_LAWS = tuple(ZoneLaw)


def _energy_batch(laws, powers):
    # drag energy of integral j along laws[j] with s = powers[j], each law once
    # per call on the coefficients of its nodes, in the base reservoir
    scn = base_scenario("D")
    laws, powers = np.array(laws), np.array(powers)

    def f(r, k):
        v = velocity_profile(scn, r)
        out = np.empty_like(r)
        for i, law in enumerate(_LAWS):
            m = laws[k] == i
            coefficients = SimpleNamespace(
                alpha=scn.params.alpha, beta=scn.params.beta, lambda_=scn.params.lambda_,
                s=powers[k[m]],
            )
            out[m] = r[m] * pressure_gradient(coefficients, law, v[m]) * v[m]
        return out

    return f


_EDGE_POWERS = [0.0, 1.0, 5e-324, 1e-300, 1e-12, 1.0 - 2.0**-53]


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(
        st.floats(0.1, 1000.0), st.floats(0.1, 1000.0), st.integers(0, 2),
        st.one_of(st.sampled_from(_EDGE_POWERS), st.floats(0.0, 1.0)), st.booleans(),
    ),
    min_size=1, max_size=12,
))
def test_batch_equals_each_integral_alone(jobs):
    # a mixed singular_b column: graded and plain first meshes in one batch
    a = [min(r1, r2) for r1, r2, *_ in jobs]
    b = [max(r1, r2) for r1, r2, *_ in jobs]
    f = _energy_batch([law for _, _, law, _, _ in jobs], [s for *_, s, _ in jobs])
    _assert_each_as_alone(f, a, b, singular_b=[graded for *_, graded in jobs])


def test_empty_interval_in_a_batch_is_exactly_zero():
    f = _energy_batch([0, 1, 2], [0.3, 0.3, 0.3])
    empty, full, other = _integrate_batch(f, [5.0, 1.0, 7.5], [5.0, 2.0, 7.5])
    for res in (empty, other):
        assert res.value == 0.0 and res.abs_error_estimate == 0.0 and res.subdivisions == 0
    assert full.value > 0.0


def test_batch_calls_its_integrand_once_per_round():
    calls = []
    inner = _energy_batch([0, 1, 2, 2], [0.0, 0.5, 0.2, 1.0])

    def f(r, k):
        calls.append(k.copy())
        return inner(r, k)

    a, b = [0.1, 0.3, 2.0, 999.0], [1000.0, 40.0, 3.0, 1000.0]
    results = _integrate_batch(f, a, b)
    # integral j takes one round for its first mesh and one per bisection
    rounds = [res.subdivisions - (len(validation._first_mesh(lo, hi)) - 1) + 1
              for res, lo, hi in zip(results, a, b)]
    assert len(calls) == max(rounds)
    for i, k in enumerate(calls):
        assert np.all(np.diff(k) >= 0)  # grouped by integral, ascending
        assert set(k.tolist()) == {j for j, n in enumerate(rounds) if n > i}


def _failing_batch(bad):
    # `bad` maps each failing integral to "nan", a NaN integrand that fails
    # in the first round, or "cap", 1/sqrt(x) on [0, 1], which bisects until
    # it reaches the panel cap in the third; the others integrate 1 exactly
    def f(x, k):
        out = np.ones_like(x)
        for j, kind in bad.items():
            out[k == j] = np.nan if kind == "nan" else 1.0 / np.sqrt(x[k == j])
        return out

    return f


def _quadrature_error(call):
    with pytest.raises(QuadratureError) as info, np.errstate(invalid="ignore"):
        call()
    best = info.value.best
    return str(info.value), best.value.hex(), best.abs_error_estimate.hex(), best.subdivisions


@pytest.mark.parametrize("bad", [
    {1: "nan"}, {1: "cap"}, {1: "nan", 2: "cap"}, {1: "cap", 2: "nan"}, {2: "nan", 3: "nan"},
])
def test_batch_raises_what_a_loop_of_single_integrals_raises_first(bad, monkeypatch):
    monkeypatch.setattr(validation, "_MAX_PANELS", 3)
    f = _failing_batch(bad)
    a, b = [0.0] * 4, [1.0] * 4
    first = min(bad)
    batched = _quadrature_error(lambda: _integrate_batch(f, a, b, 1e-14))
    assert batched[0].startswith("no convergence" if bad[first] == "cap" else "non-finite")
    assert batched == _quadrature_error(
        lambda: integrate_adaptive(_alone(f, first), a[first], b[first], 1e-14)
    )
    # a loop of single integrals gets past the ones before the first failure
    for j in range(first):
        assert integrate_adaptive(_alone(f, j), a[j], b[j], 1e-14).value == 1.0


@pytest.mark.parametrize("a,b", [
    (5e-324, 1.0), (1e-300, 1.0), (1e-300, 1e300), (5e-324, 1.7976931348623157e308),
    (1e-3, 1.0), (0.1, 1000.0), (1.0, 2.2), (3.0, 3e8),
])
def test_first_mesh_edges_increase_from_a_to_b(a, b):
    edges = validation._first_mesh(a, b)
    assert edges[0] == a and edges[-1] == b  # exactly, not to roundoff
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    # three panels per decade, rounded up, and at most 24
    assert len(edges) - 1 == min(24, math.ceil(3.0 * (math.log10(b) - math.log10(a))))


def test_first_mesh_respects_the_panel_cap(monkeypatch):
    monkeypatch.setattr(validation, "_MAX_PANELS", 5)
    assert len(validation._first_mesh(1e-6, 1.0)) - 1 == 5


_GRADED_INTERVALS = [
    (5e-324, 1.0), (1e-300, 1e300), (0.0, 1.0), (-1.0, 1.0), (0.3, 1000.0), (0.3, 137.0),
    (999.0, 1000.0), (1.0, 1.0 + 1e-5), (136.99, 137.0), (1.0, 2.0),
]


@pytest.mark.parametrize("cap", [1, 2, 3, 5, 2000])
@pytest.mark.parametrize("a,b", _GRADED_INTERVALS)
def test_graded_first_mesh_keeps_its_ends_order_and_cap(a, b, cap, monkeypatch):
    monkeypatch.setattr(validation, "_MAX_PANELS", cap)
    plain = validation._first_mesh(a, b)
    edges = validation._first_mesh(a, b, singular_b=True)
    assert edges[0] == a and edges[-1] == b
    assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
    assert len(edges) - 1 <= cap
    # the graded edges are those b - (b - a) 10^(-k) at least 1e-6 b below b
    graded = [b - (b - a) * 10.0**-k for k in range(1, 5)]
    graded = [x for x in graded if b - x >= 1e-6 * abs(b)][:cap - 1]
    assert edges[len(edges) - 1 - len(graded):-1] == graded
    if cap == 2000:
        assert edges == plain[:-1] + graded + [b]


@pytest.mark.parametrize("a,b", [(136.99994103574292, 137.0), (1.0, 1.0 + 1e-9)])
def test_graded_first_mesh_takes_no_edge_within_float_resolution_of_b(a, b):
    # nodes within about 1e-10 of b are so few ulps from it that the integrand
    # turns noisy: the pre-Darcy zone of DDpD at r_e = 137 and q/h = 100 is
    # the first interval
    assert validation._first_mesh(a, b, singular_b=True) == validation._first_mesh(a, b) == [a, b]


@pytest.mark.parametrize("s", [0.3, 0.7, 0.99])
def test_graded_first_mesh_meets_a_power_singularity_at_b_in_fewer_rounds(s):
    # the shape of the pre-Darcy drag at r_e, (b - r)^(1-s)
    def rounds(singular_b):
        calls = []

        def f(r):
            calls.append(None)
            return (1.0 - r) ** (1.0 - s)

        value = integrate_adaptive(f, 0.0, 1.0, 1e-12, singular_b).value
        assert value == pytest.approx(1.0 / (2.0 - s), rel=1e-12)
        return len(calls)

    assert rounds(True) < rounds(False)


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
    # [200, 1000] falls back to the split series at s = 0.01 and 0.02: 0.2^s = 0.984
    # and 0.968 > 0.45 s B = 0.893 and 0.887, and 200 m lies below 0.35 r_e
    calls = []
    outer = quadrature._predarcy_outer

    def spy(*args):
        calls.append(args)
        return outer(*args)

    monkeypatch.setattr(quadrature, "_predarcy_outer", spy)
    quadrature._predarcy_tail.cache_clear()
    try:
        for q_over_h in (1e-6, 1e-4, 1e-2):
            scn = base_scenario("D", s=0.01, q_over_h=q_over_h)
            zone_integral(scn, ZoneLaw.PRE_DARCY, 200.0, 1000.0)
        assert len(calls) == 1
        zone_integral(base_scenario("D", s=0.02), ZoneLaw.PRE_DARCY, 200.0, 1000.0)
        assert len(calls) == 2
    finally:
        quadrature._predarcy_tail.cache_clear()


# ---------------------------------------------------------------------------
# S_pD to r_e: the continued fraction, or the complete beta function minus its head
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
    # s = 0.01 from 200 m: 0.2^0.01 = 0.984 > 0.45 s B = 0.893, and 200 m lies below
    # 0.35 r_e, so only the split series run
    r_e, s, r1 = 1000.0, 0.01, 200.0
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


def _cf_and_series_calls(monkeypatch, r_e, s, r1):
    cf_calls = []
    cf = quadrature._predarcy_cf

    def spy(*args):
        cf_calls.append(args)
        return cf(*args)

    monkeypatch.setattr(quadrature, "_predarcy_cf", spy)
    try:
        series_calls = _beta_series_calls(monkeypatch, quadrature._predarcy_bracket, r_e, s, r1, r_e)
    finally:
        monkeypatch.setattr(quadrature, "_predarcy_cf", cf)
    return cf_calls, series_calls


@pytest.mark.parametrize("s", [0.0, 1e-9, 0.3, 0.77, 1.0])
@pytest.mark.parametrize("r1", [500.0, 620.0, 750.0, 900.0, 999.999])
def test_segment_to_r_e_from_half_of_it_is_one_continued_fraction(r1, s, monkeypatch):
    cf_calls, series_calls = _cf_and_series_calls(monkeypatch, 1000.0, s, r1)
    assert cf_calls == [(1000.0, s, r1)]
    assert series_calls == []


@pytest.mark.parametrize("s, r1, route", [
    # from 400 m: 0.4^0.1 = 0.912 > 0.45 s B = 0.838, so the guard fails and the
    # continued fraction runs; 0.4^0.77 = 0.494 <= 0.619 passes it, and the head runs
    (0.1, 400.0, "cf"),
    (0.77, 400.0, "head"),
    # from 340 m, below 0.35 r_e, the guard fails (0.34^0.1 = 0.898): the split series
    (0.1, 340.0, "split"),
])
def test_segment_to_r_e_from_below_half_of_it_follows_the_guard(s, r1, route, monkeypatch):
    cf_calls, series_calls = _cf_and_series_calls(monkeypatch, 1000.0, s, r1)
    if route == "cf":
        assert cf_calls == [(1000.0, s, r1)] and series_calls == []
    elif route == "head":
        assert cf_calls == [] and len(series_calls) == 1 and _is_head(series_calls[0])
    else:
        assert cf_calls == [] and len(series_calls) == 2


# ---------------------------------------------------------------------------
# the term bound: the stop rule ends every series and the continued fraction
# before _MAX_TERMS
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


@pytest.mark.parametrize("s", BOUND_S)
def test_continued_fraction_stops_before_the_term_bound(s, monkeypatch):
    # from _CF_FLOOR r_e, where x1 is largest and the fraction converges slowest
    floor = quadrature._CF_FLOOR
    steps = [_beta_terms(monkeypatch, quadrature._predarcy_cf, r_e, s, floor * r_e)
             for r_e in (1.0, 1000.0)]
    assert max(steps) < quadrature._MAX_TERMS


# _beta_series at the parent of its float-counter loop, as float.hex: inner series
# [0.3, 750], heads from r = 0 (and from a subnormal r1, where rho^p0 underflows)
# and outer series [750, 999], [800, r_e] and [750, r_e], each on r_e = 1000; the
# last sums the most terms, so it is the one that shows a changed rounding of a term
BETA_SERIES_BITS = [
    ("inner", 0.0, 0.3, 750.0, "0x1.d5cd2bdb64bddp+3"),
    ("outer", 0.0, 750.0, 999.0, "0x1.59620fc65a90fp-5"),
    ("outer", 0.0, 800.0, 1000.0, "0x1.600b70c4ca76fp-6"),
    ("outer", 0.0, 750.0, 1000.0, "0x1.59621134db927p-5"),
    ("inner", 5e-324, 0.3, 750.0, "0x1.d5cd2bdb64bddp+3"),
    ("outer", 5e-324, 750.0, 999.0, "0x1.59620fc65a90fp-5"),
    ("outer", 5e-324, 800.0, 1000.0, "0x1.600b70c4ca76fp-6"),
    ("outer", 5e-324, 750.0, 1000.0, "0x1.59621134db927p-5"),
    ("inner", 1e-300, 0.3, 750.0, "0x1.d5cd2bdb64bddp+3"),
    ("inner", 1e-300, 0.0, 400.0, "0x1.7e43c8800759bp+997"),
    ("outer", 1e-300, 750.0, 999.0, "0x1.59620fc65a90fp-5"),
    ("outer", 1e-300, 800.0, 1000.0, "0x1.600b70c4ca76fp-6"),
    ("outer", 1e-300, 750.0, 1000.0, "0x1.59621134db927p-5"),
    ("inner", 1e-09, 0.3, 750.0, "0x1.d5cd2bb8ba7b4p+3"),
    ("inner", 1e-09, 0.0, 400.0, "0x1.dcd64ff770dd2p+30"),
    ("outer", 1e-09, 750.0, 999.0, "0x1.59620fcba6832p-5"),
    ("outer", 1e-09, 800.0, 1000.0, "0x1.600b70cba93bbp-6"),
    ("outer", 1e-09, 750.0, 1000.0, "0x1.5962113a2784fp-5"),
    ("inner", 0.3, 0.3, 750.0, "0x1.36836ce75a665p+2"),
    ("inner", 0.3, 0.0, 400.0, "0x1.38f843affdcb7p+2"),
    ("outer", 0.3, 750.0, 999.0, "0x1.c940d58c6db76p-5"),
    ("outer", 0.3, 800.0, 1000.0, "0x1.f61d71b57dcefp-6"),
    ("outer", 0.3, 750.0, 1000.0, "0x1.c940dfcf8be50p-5"),
    ("inner", 0.7, 0.3, 750.0, "0x1.e8454fe7d20acp+0"),
    ("inner", 0.7, 0.0, 400.0, "0x1.6ca949d059e4fp+0"),
    ("outer", 0.7, 750.0, 999.0, "0x1.544b2b96f6684p-4"),
    ("outer", 0.7, 800.0, 1000.0, "0x1.9c51c56300290p-5"),
    ("outer", 0.7, 750.0, 1000.0, "0x1.544b73eddb5e7p-4"),
    ("inner", 0.999999999, 0.3, 750.0, "0x1.37d8adb240e6ap+0"),
    ("inner", 0.999999999, 0.0, 400.0, "0x1.83c131e209813p-1"),
    ("inner", 0.999999999, 5e-324, 400.0, "0x1.83c131e209813p-1"),
    ("outer", 0.999999999, 750.0, 999.0, "0x1.d5533c9b6f894p-4"),
    ("outer", 0.999999999, 800.0, 1000.0, "0x1.31d5acb002477p-4"),
    ("outer", 0.999999999, 750.0, 1000.0, "0x1.d555554c9343dp-4"),
    ("inner", 1.0, 0.3, 750.0, "0x1.37d8adabb3203p+0"),
    ("inner", 1.0, 0.0, 400.0, "0x1.83c131d5acb70p-1"),
    ("inner", 1.0, 5e-324, 400.0, "0x1.83c131d5acb70p-1"),
    ("outer", 1.0, 750.0, 999.0, "0x1.d5533ca4315e6p-4"),
    ("outer", 1.0, 800.0, 1000.0, "0x1.31d5acb6f4652p-4"),
    ("outer", 1.0, 750.0, 1000.0, "0x1.d555555555556p-4"),
]


@pytest.mark.parametrize("kind, s, r1, r2, bits", BETA_SERIES_BITS)
def test_beta_series_gives_its_pinned_bits(kind, s, r1, r2, bits):
    series = quadrature._predarcy_inner if kind == "inner" else quadrature._predarcy_outer
    assert series(1000.0, s, r1, r2).hex() == bits


# ---------------------------------------------------------------------------
# zone integral properties
# ---------------------------------------------------------------------------

def test_empty_zone_integrals_are_zero():
    scn = base_scenario("D")
    assert zone_integral(scn, ZoneLaw.DARCY, 5.0, 5.0) == 0.0
    assert zone_integral(scn, ZoneLaw.FORCHHEIMER, 5.0, 5.0) == 0.0
    assert zone_integral(scn, ZoneLaw.PRE_DARCY, 5.0, 5.0) == 0.0


def test_zone_integrals_take_their_brackets_through_the_pi_dispatch(monkeypatch):
    # every per-law kernel sums its law's terms through _term_bracket, the one
    # route the PI takes, in _LAW_TERMS order: F is I0 then I1, pD is P
    terms = []
    bracket = quadrature._term_bracket

    def spy(term, r_e, s, r1, r2):
        terms.append(term)
        return bracket(term, r_e, s, r1, r2)

    monkeypatch.setattr(quadrature, "_term_bracket", spy)
    zone_contributions(base_scenario("FpDpD", q_over_h=1e-2))
    assert terms == [quadrature._I0, quadrature._I1, quadrature._P, quadrature._P]


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
