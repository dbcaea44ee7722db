"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines immediately).
"""

import time

import numpy as np

from wellpi import (
    FlowMeasurement,
    compute_pi,
    darcy_zone_integral,
    fit_segments,
    flux_density,
    forchheimer_zone_integral,
    integrate_adaptive,
    load_reference_entries,
    pi_from_profile,
    radius_of_velocity,
    reference_scenario,
    synthesize_measurements,
    velocity_profile,
)
from wellpi.checks import check_gamma_linearity

from helpers import make_scenario
from test_fitting import fit_params

FLUX_GRID = (2e-7, 1e-4, 1e-3, 5.95e-3, 1e-2, 3.18e-2, 1e-1, 1.0, 1e1, 1e4)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:02d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------

def test_c01_darcy_baseline():
    start = time.perf_counter()
    values = [
        compute_pi(make_scenario("D", q_over_h=q)).j_dimensionless for q in FLUX_GRID
    ]
    elapsed = time.perf_counter() - start
    in_band = abs(values[0] - 0.1358) <= 0.0005
    bit_identical = len(set(values)) == 1
    _report(
        1,
        in_band and bit_identical and elapsed < 1.0,
        f"J_D = {values[0]:.6f} (target 0.1358 +- 0.0005), "
        f"{'bit-identical' if bit_identical else 'VARIES'} over {len(FLUX_GRID)} fluxes, "
        f"{elapsed:.2f}s < 1s",
    )


def test_c02_table_1_reproduction():
    start = time.perf_counter()
    worst = 0.0
    twin_ok = True
    checked = 0
    for entry in load_reference_entries(1):
        computed = compute_pi(reference_scenario(entry)).j_dimensionless
        checked += 1
        is_twin = (
            entry.regime == "FDpD" and entry.s == 0.7 and entry.q_over_h == 1e-2
        )
        if is_twin:
            # published twice with inconsistent values; match either
            twin_ok = any(
                abs(computed - ref) / ref <= 0.01 for ref in (0.0863, 0.0864)
            )
            continue
        worst = max(worst, abs(computed - entry.published) / abs(entry.published))
    elapsed = time.perf_counter() - start
    _report(
        2,
        worst <= 0.01 and twin_ok and elapsed < 10.0,
        f"{checked} table-1 entries, worst deviation {worst:.3%} <= 1%, "
        f"twin entry {'ok' if twin_ok else 'BAD'}, {elapsed:.2f}s < 10s",
    )


def _table_criterion(number: int, table: int, anchors) -> None:
    worst = 0.0
    values = {}
    for entry in load_reference_entries(table):
        computed = compute_pi(reference_scenario(entry)).j_dimensionless
        worst = max(worst, abs(computed - entry.published) / abs(entry.published))
        values[(entry.regime, entry.s, entry.v_d, entry.q_over_h)] = computed
    anchors_ok = all(
        abs(values[key] - expected) / expected <= 0.01 for key, expected in anchors
    )
    _report(
        number,
        worst <= 0.01 and anchors_ok,
        f"table {table}: worst deviation {worst:.3%} <= 1%, anchors "
        f"{'ok' if anchors_ok else 'BAD'}",
    )


def test_c03_table_2_reproduction():
    _table_criterion(3, 2, [
        (("DDpD", 1.0, 1e-7, 1e-4), 3.1e-8),
        (("FDpD", 1.0, 1e-7, 1e-4), 3.1e-8),
    ])


def test_c04_table_3_reproduction():
    _table_criterion(4, 3, [
        (("DDpD", 0.5, 1e-9, 1e-4), 0.1128),
        (("DDpD", 1.0, 1e-6, 1e-4), 2.446e-8),
    ])


def test_c05_table_4_reproduction():
    _table_criterion(5, 4, [
        (("FDpD", 0.05, 0.0, 1e-4), 0.1976),
        (("FDpD", 0.3, 0.0, 1e-4), 0.1976),
        (("pure-preDarcy", 0.05, 1e-5, 1e-4), 0.1058),
        (("pure-preDarcy", 0.3, 1e-5, 1e-4), 0.0042),
    ])


def test_c06_oracle_equivalence_105_cases():
    start = time.perf_counter()
    presets = ("D", "F", "FDD", "DDpD", "FDpD", "FpDpD", "pure-preDarcy")
    worst = 0.0
    cases = 0
    for regime in presets:
        for q_over_h in (2e-7, 1e-4, 1e-2, 1.0, 1e2):
            for s in (0.3, 0.5, 0.7):
                scn = make_scenario(regime, q_over_h=q_over_h, s=s)
                j_closed = compute_pi(scn).j_raw
                j_profile = pi_from_profile(scn)
                worst = max(worst, abs(j_closed - j_profile) / abs(j_profile))
                cases += 1
    elapsed = time.perf_counter() - start
    _report(
        6,
        cases == 105 and worst <= 1e-6 and elapsed < 30.0,
        f"{cases} regime/flux/s cases, worst deviation {worst:.2e} <= 1e-6, "
        f"{elapsed:.1f}s < 30s",
    )


def test_c07_closed_forms_vs_quadrature():
    scn = make_scenario()
    geo = scn.geometry
    a_flux = flux_density(scn)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        r1, r2 = sorted(rng.uniform(geo.r_w, geo.r_e, size=2))
        quad_d = scn.params.alpha * integrate_adaptive(
            lambda r: ((geo.r_e - r) * (geo.r_e + r)) ** 2 / r, r1, r2, rel_tol=1e-12
        ).value
        worst = max(worst, abs(darcy_zone_integral(scn, r1, r2) - quad_d) / abs(quad_d))
        quad_f = quad_d + scn.params.beta * a_flux * integrate_adaptive(
            lambda r: ((geo.r_e - r) * (geo.r_e + r)) ** 3 / r**2, r1, r2, rel_tol=1e-12
        ).value
        worst = max(
            worst, abs(forchheimer_zone_integral(scn, r1, r2) - quad_f) / abs(quad_f)
        )
    _report(7, worst <= 1e-9, f"100 random subintervals, worst deviation {worst:.2e} <= 1e-9")


def test_c08_inverse_round_trip():
    worst = 0.0
    for r_e in (1000.0, 100.0):
        scn = make_scenario(r_e=r_e)
        for r in np.geomspace(scn.geometry.r_w, r_e, 100):
            back = radius_of_velocity(scn, velocity_profile(scn, float(r)))
            worst = max(worst, abs(back - float(r)) / float(r))
    _report(8, worst <= 1e-10, f"200 log-grid radii, worst deviation {worst:.2e} <= 1e-10")


def test_c09_gamma_affinity():
    result = check_gamma_linearity()
    _report(9, result.passed, f"error ratio gamma 1e-3 vs 1e-4 = {result.measured:.3f} in [9, 11]")


def test_c10_monotonicity_suite():
    js_f = [compute_pi(make_scenario("F", q_over_h=q)).j_dimensionless for q in FLUX_GRID]
    forch_ok = all(a > b for a, b in zip(js_f, js_f[1:]))
    s_ok = True
    for regime in ("DDpD", "FDpD"):
        js = [
            compute_pi(make_scenario(regime, s=float(s))).j_dimensionless
            for s in np.linspace(0.0, 1.0, 11)
        ]
        s_ok = s_ok and all(b <= a * (1 + 1e-12) for a, b in zip(js, js[1:]))
    j_fdpd = compute_pi(make_scenario("FDpD", v_D=0.0)).j_raw
    j_fdd = compute_pi(make_scenario("FDD", v_D=0.0)).j_raw
    limit_dev = abs(j_fdpd - j_fdd) / j_fdd
    _report(
        10,
        forch_ok and s_ok and limit_dev <= 1e-10,
        f"J_F decreasing: {forch_ok}, J in s nonincreasing: {s_ok}, "
        f"FDpD->FDD limit deviation {limit_dev:.2e} <= 1e-10",
    )


def test_c11_prefit_round_trip():
    grid = np.geomspace(1e-9, 1e-6, 20)
    worst_s = 0.0
    for s in (0.1, 0.3, 0.5772, 0.6562, 0.9):
        fit = fit_segments(synthesize_measurements(fit_params(s=s), grid))
        worst_s = max(worst_s, abs(fit.s_hat - s))
    data = synthesize_measurements(fit_params(), grid, noise_rel=0.01, seed=1)
    fit1 = fit_segments(data)
    fit2 = fit_segments([FlowMeasurement(m.v, 3.5 * m.grad_p) for m in data])
    equivariant = (
        abs(fit2.s_hat - fit1.s_hat) <= 1e-12
        and fit2.v_D_hat == fit1.v_D_hat
        and abs(fit2.lambda_hat / fit1.lambda_hat - 3.5) <= 1e-12
    )
    noisy_errs = [
        abs(fit_segments(synthesize_measurements(fit_params(), grid, 0.01, seed)).s_hat - 0.6562)
        for seed in range(100)
    ]
    _report(
        11,
        worst_s <= 1e-6 and equivariant and max(noisy_errs) <= 0.05,
        f"noiseless |s_hat - s| <= {worst_s:.2e} (tol 1e-6), scale-equivariant: "
        f"{equivariant}, noisy max error {max(noisy_errs):.4f} <= 0.05 over 100 trials",
    )


def test_c12_fdpd_flux_curve_is_unimodal():
    s07_grid = [q for q in FLUX_GRID if q != 5.95e-3]  # that row is s = 0.3 only
    js = [
        compute_pi(make_scenario("FDpD", q_over_h=q, s=0.7)).j_dimensionless
        for q in s07_grid
    ]
    peak = js.index(max(js))
    rising = all(a < b for a, b in zip(js[: peak + 1], js[1 : peak + 1]))
    falling = all(a > b for a, b in zip(js[peak:], js[peak + 1 :]))
    _report(
        12,
        0 < peak < len(js) - 1 and rising and falling,
        f"J_FDpD(Q/h) rises to {max(js):.4f} at Q/h={s07_grid[peak]:g} then falls "
        f"(rising: {rising}, falling: {falling})",
    )
