"""Pressure-profile oracle, energy identity and the compressible sweep."""

import math
import re
import sys

import numpy as np
import pytest

import wellpi.checks
import wellpi.quadrature
import wellpi.validation
from wellpi import (
    QuadratureError,
    StepSizeUnderflow,
    base_scenario,
    compressible_velocity,
    compute_pi,
    dimensionless_factor,
    flux_density,
    integrate_adaptive,
    pi_from_energy,
    pi_from_profile,
    pressure_profile,
    velocity_profile,
    zone_contributions,
    zone_segments,
)
from wellpi.checks import check_oracle_equivalence, gamma_scaled_scenario
from wellpi.constitutive import REGIME_PRESETS, ZoneLaw, drag_power, pressure_gradient
from wellpi.kinematics import zone_bounds

from helpers import reference_compressible_velocity, reference_oracle_routes


# ---------------------------------------------------------------------------
# pressure profile
# ---------------------------------------------------------------------------

def test_profile_is_zero_at_the_well():
    scn = base_scenario("FDpD")
    assert pressure_profile(scn, scn.geometry.r_w) == 0.0


def test_profile_nondecreasing():
    scn = base_scenario("FDpD")
    radii = np.geomspace(0.3, 1000.0, 40)
    values = [pressure_profile(scn, float(r)) for r in radii]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_profile_matches_darcy_antiderivative():
    # W(r) = alpha A [re^2 ln(r / rw) - (r^2 - rw^2)/2] for the all-Darcy regime
    scn = base_scenario("D")
    geo = scn.geometry
    a = flux_density(scn)
    for r in (0.5, 3.0, 55.0, 400.0, 1000.0):
        exact = scn.params.alpha * a * (
            geo.r_e**2 * math.log(r / geo.r_w) - (r**2 - geo.r_w**2) / 2.0
        )
        assert pressure_profile(scn, r) == pytest.approx(exact, rel=1e-10)


def test_profile_out_of_range():
    scn = base_scenario("D")
    with pytest.raises(ValueError):
        pressure_profile(scn, 0.1)
    for radii in ([1.0, 0.1], [1.0, 1000.5], [1.0, math.nan]):
        with pytest.raises(ValueError, match="outside"):
            pressure_profile(scn, np.array(radii))


@pytest.mark.parametrize("regime", ["D", "FDpD", "FpDpD", "pure-preDarcy"])
def test_profile_of_an_array_is_each_radius_alone(regime):
    # one batch for every radius and segment, and each W bit for bit as alone
    # to the loop over segments of one integrate_adaptive call each, graded
    # into r_e on a pre-Darcy segment that ends there
    scn = base_scenario(regime, q_over_h=1e-2)
    geo = scn.geometry
    segments = zone_segments(scn)
    radii = [geo.r_w, geo.r_e, *np.geomspace(geo.r_w, geo.r_e, 22)[1:-1].tolist()]
    radii = np.array(radii + [a for a, _, _ in segments]).reshape(-1, 1)
    batch = pressure_profile(scn, radii)
    assert batch.shape == radii.shape
    for r, w in zip(radii.ravel().tolist(), batch.ravel().tolist()):
        alone = 0.0
        for a, b, law in segments:
            if r <= a:
                break
            alone += integrate_adaptive(
                lambda x, law=law: pressure_gradient(scn.params, law, velocity_profile(scn, x)),
                a, min(r, b), rel_tol=1e-10,
                singular_b=law is ZoneLaw.PRE_DARCY and min(r, b) == geo.r_e,
            ).value
        assert w.hex() == alone.hex()
        assert pressure_profile(scn, r).hex() == alone.hex()


# ---------------------------------------------------------------------------
# PI from the profile
# ---------------------------------------------------------------------------

def test_profile_pi_darcy_published():
    scn = base_scenario("D")
    assert pi_from_profile(scn) * dimensionless_factor(scn) == pytest.approx(0.1358, rel=0.01)


def test_profile_pi_fdpd_published():
    scn = base_scenario("FDpD", s=0.7)
    assert pi_from_profile(scn) * dimensionless_factor(scn) == pytest.approx(5.65e-6, rel=0.01)


def test_profile_pi_beta_zero_equals_darcy():
    j_f = pi_from_profile(base_scenario("F", beta=0.0))
    j_d = pi_from_profile(base_scenario("D", beta=0.0))
    assert j_f == pytest.approx(j_d, rel=1e-9)


@pytest.mark.parametrize("regime", ["D", "F", "FDD", "DDpD", "FDpD", "FpDpD", "pure-preDarcy"])
def test_profile_pi_agrees_with_zone_integrals(regime):
    scn = base_scenario(regime, q_over_h=1e-2, s=0.5)
    j_closed = compute_pi(scn).j_raw
    j_profile = pi_from_profile(scn)
    assert j_profile == pytest.approx(j_closed, rel=1e-6)


@pytest.mark.parametrize("r_e", [1000.0, 137.0])
@pytest.mark.parametrize("s", [0.3, 0.7])
@pytest.mark.parametrize("q_over_h", [1e-4, 1e-2])
@pytest.mark.parametrize("regime", list(REGIME_PRESETS))
def test_oracle_routes_agree_with_the_closed_forms_to_1e_13(regime, q_over_h, s, r_e):
    # the pre-Darcy drag vanishes like (r_e - r)^(1-s) at r_e; a first mesh
    # graded into r_e takes both routes there to roundoff (7.8e-12 when it
    # was geometric toward the well only)
    scn = base_scenario(regime, q_over_h=q_over_h, s=s, r_e=r_e)
    j_closed = compute_pi(scn).j_raw
    assert pi_from_profile(scn) == pytest.approx(j_closed, rel=1e-13, abs=0.0)
    assert pi_from_energy(scn) == pytest.approx(j_closed, rel=1e-13, abs=0.0)


def test_profile_pi_of_a_pre_darcy_zone_near_float_resolution():
    # the pre-Darcy zone [136.99994..., 137] is 6e-5 wide: graded edges within
    # about 1e-10 of r_e made the integrand noisy and raised QuadratureError
    scn = base_scenario("DDpD", q_over_h=100.0, s=0.3, r_e=137.0)
    assert pi_from_profile(scn) == pytest.approx(compute_pi(scn).j_raw, rel=1e-12)


# F: every batched first panel passes; the pre-Darcy regimes still fall back
@pytest.mark.parametrize("regime,falls_back", [
    ("F", False), ("FDpD", True), ("pure-preDarcy", True),
], ids=["F", "FDpD", "pure-preDarcy"])
def test_profile_pi_matches_fresh_profile_at_every_node(regime, falls_back, monkeypatch):
    # reference: W(r) integrated afresh from r_w at every outer node, then
    # r W(r) integrated over each segment of [r_w, r_e]
    scn = base_scenario(regime, q_over_h=1e-2, s=0.7)
    accepted = []  # per inner gap: did its batched first panel pass?
    converged = wellpi.validation._converged

    def spy(*args):
        # the batched first-panel trials of the outer integrand only, one
        # verdict per gap of its array, not the acceptance tests of the
        # adaptive integrals
        passed = converged(*args)
        if sys._getframe(1).f_code.co_name == "outer_integrand":
            accepted.extend(np.atleast_1d(passed).tolist())
        return passed

    monkeypatch.setattr(wellpi.validation, "_converged", spy)
    geo = scn.geometry

    def r_times_w(radii):
        return np.array([r * pressure_profile(scn, float(r)) for r in radii])

    total_rw = sum(
        integrate_adaptive(r_times_w, a, b, rel_tol=1e-9).value
        for a, b, _ in zone_segments(scn)
    )
    reference = scn.q * geo.radius_span_sq / (2.0 * total_rw)
    assert pi_from_profile(scn) == pytest.approx(reference, rel=1e-9)
    # the batched first panels, and where it runs the adaptive fallback, were exercised
    if falls_back:
        assert 0 < accepted.count(False) < accepted.count(True)
    else:
        assert accepted.count(False) == 0 < accepted.count(True)


# the grid's gaps that fail their first panel come one per outer-integrand
# call; at r_e = 50, Q/h = 100 two fail in one call, so that the fallback
# batch holds two integrals
@pytest.mark.parametrize("regime,q_over_h,s,r_e", [
    *[(regime, q_over_h, s, r_e) for regime in REGIME_PRESETS for q_over_h in (1e-4, 1e-2)
      for s in (0.0, 0.3, 0.7, 1.0) for r_e in (1000.0, 137.0)],
    ("DDpD", 100.0, 0.5, 50.0),
    ("FDpD", 100.0, 0.7, 50.0),
])
def test_oracle_routes_are_the_reference_loops_bit_for_bit(regime, q_over_h, s, r_e, monkeypatch):
    # the array outer integrand, its fallback batch and the batch of zone
    # energies against the per-node loop with one adaptive integral per
    # failing gap and per zone energy, down to r W(r) at every outer node
    scn = base_scenario(regime, q_over_h=q_over_h, s=s, r_e=r_e)
    ref = reference_oracle_routes(scn)
    outer_values = []
    integrate = wellpi.validation.integrate_adaptive

    def recorded(f, *args):
        def recording(radii):
            out = f(radii)
            outer_values.extend(out.tolist())
            return out

        return integrate(recording, *args)

    monkeypatch.setattr(wellpi.validation, "integrate_adaptive", recorded)
    assert pi_from_profile(scn).hex() == ref.j_profile.hex()
    assert [x.hex() for x in outer_values] == [x.hex() for x in ref.outer_values]
    assert pi_from_energy(scn).hex() == ref.j_energy.hex()
    if r_e == 50.0:
        assert max(ref.fallbacks) == 2
    elif regime in ("FDpD", "pure-preDarcy") and q_over_h == 1e-2 and s == 0.7:
        assert ref.fallbacks == [1]


def test_profile_pi_raises_on_a_non_finite_gap_without_a_warning(monkeypatch):
    # NaN drag in FDpD's last segment, the pre-Darcy one: every inner gap
    # there fails its first panel, and the fallback batch raises on the
    # first, from the segment start; the suite turns a numpy warning into an
    # error
    gradient = wellpi.validation.pressure_gradient

    def nan_in_pre_darcy(params, law, speed):
        grad = gradient(params, law, speed)
        return grad * np.nan if law is ZoneLaw.PRE_DARCY else grad

    monkeypatch.setattr(wellpi.validation, "pressure_gradient", nan_in_pre_darcy)
    scn = base_scenario("FDpD")
    start, _, law = zone_segments(scn)[-1]
    assert law is ZoneLaw.PRE_DARCY
    with pytest.raises(QuadratureError, match="^" + re.escape(f"non-finite panel on [{start}, ")):
        pi_from_profile(scn)


@pytest.mark.xfail(raises=QuadratureError, strict=True, reason=(
    "ROADMAP item 17: an inner gap of the pre-Darcy zone [5.963309145385375, r_e], "
    "2.5e-10 wide, reaches the 2000-panel cap"))
def test_profile_pi_of_a_pre_darcy_zone_below_the_graded_floor():
    # the zone lies below the graded first mesh's 1e-6 b floor
    scn = base_scenario(
        "DDpD", r_e=5.963309145635265, r_w=0.006061572283553533, q_over_h=501.5664542146667,
        s=0.9172400711714016, v_D=1.1218992074181735e-09,
    )
    assert pi_from_profile(scn) == pytest.approx(compute_pi(scn).j_raw, rel=1e-6)


@pytest.mark.parametrize("regime,calls", [("FDpD", 3), ("D", 1)])
def test_profile_pi_takes_each_zone_energy_once(regime, calls, monkeypatch):
    # one batch of one energy per merged segment: FDpD has three one-zone
    # segments, D the one segment [r_w, r_e]
    seen = []
    zone_energies = wellpi.validation._zone_energies

    def spy(scn, bounds):
        seen.append(list(bounds))
        return zone_energies(scn, bounds)

    monkeypatch.setattr(wellpi.validation, "_zone_energies", spy)
    scn = base_scenario(regime)
    pi_from_profile(scn)
    assert len(seen) == 1
    assert seen[0] == zone_segments(scn)
    assert len(seen[0]) == len(set(seen[0])) == calls


def test_validate_stays_within_its_panel_budget(monkeypatch):
    # a work count instead of a timing: every oracle integral starts from the
    # log-spaced first mesh, and the independent integrals of
    # closed-form-vs-quadrature, of darcy-profile-closed-form and of each
    # pressure_profile call are one batch whose every round is one panel
    # call, as are the zone energies of each pi_from_energy and the inner
    # gaps of each outer_integrand call whose first panel fails, and a
    # pre-Darcy integral that ends at r_e starts from a mesh graded into r_e
    # as well, so `validate` makes 196 panel calls (216 with one adaptive
    # integral per zone energy and per failing gap; 427 when those bisected
    # their way to r_e; 453 while oracle-equivalence also ran D, F and FDD at
    # its second power; 830 with one call per integral and round; 2,625 when
    # each integral also started from one panel and bisected its way to the
    # well)
    calls = []
    panels = wellpi.validation._panels

    def counted(*args):
        calls.append(None)
        return panels(*args)

    monkeypatch.setattr(wellpi.validation, "_panels", counted)
    results = wellpi.checks.run_all()
    assert all(result.passed for result in results)
    assert 0 < len(calls) <= 200
    # Python types, not numpy scalars, which json.dumps cannot take
    assert len(results) == 11
    assert all(type(r.passed) is bool and type(r.measured) is float for r in results)


@pytest.mark.parametrize("inject_fault", [False, True])
def test_oracle_check_reads_as_the_whole_cross_product(monkeypatch, inject_fault):
    # s enters only the pre-Darcy law, so the check runs D, F and FDD at one
    # power only; its reading must stay that of every preset at every power
    worst = 0.0
    for q in (1e-4, 1e-2):
        for s in (0.3, 0.7):
            for regime in REGIME_PRESETS.values():
                scn = base_scenario(regime, q_over_h=q, s=s)
                j_closed = compute_pi(scn).j_raw
                if inject_fault:
                    contributions = zone_contributions(scn)
                    j_closed *= math.fsum(contributions) / math.fsum(
                        c * wellpi.checks._FAULT_SCALE if law is ZoneLaw.FORCHHEIMER else c
                        for c, law in zip(contributions, regime.laws())
                    )
                j_profile = pi_from_profile(scn)
                worst = max(worst, abs(j_closed - j_profile) / abs(j_profile))
    runs = []

    def counted(scn):
        runs.append(scn)
        return pi_from_profile(scn)

    monkeypatch.setattr(wellpi.checks, "pi_from_profile", counted)
    assert check_oracle_equivalence(inject_fault=inject_fault).measured == worst
    # 2 fluxes x (4 pre-Darcy presets x 2 powers + 3 other presets)
    assert len(runs) == 22
    assert len(set(runs)) == 22


def test_profile_pi_uses_no_closed_form(monkeypatch):
    # the oracle must stay independent of the zone integrals it checks
    def refuse(*args, **kwargs):
        raise AssertionError("closed-form zone integral called by the oracle")

    for name in ("_x_bracket", "_predarcy_bracket", "_term_bracket"):
        monkeypatch.setattr(wellpi.quadrature, name, refuse)
    assert pi_from_profile(base_scenario("FDpD", q_over_h=1e-2)) > 0


def test_energy_route_agrees_with_profile_route():
    scn = base_scenario("FDpD", s=0.3)
    assert pi_from_energy(scn) == pytest.approx(pi_from_profile(scn), rel=1e-8)


def test_profile_pi_raises_when_the_routes_disagree(monkeypatch):
    # an energy route 1e-6 off is beyond the 1e-7 consistency tolerance
    zone_energies = wellpi.validation._zone_energies
    monkeypatch.setattr(
        wellpi.validation, "_zone_energies",
        lambda *args: [e * (1.0 + 1e-6) for e in zone_energies(*args)],
    )
    with pytest.raises(RuntimeError, match="disagree"):
        pi_from_profile(base_scenario("FDpD"))


def test_energy_pi_out_of_float_range_raises():
    # 2 pi h underflows, so Q^2 / (2 pi h E) would come out as 0.0
    with pytest.raises(FloatingPointError):
        pi_from_energy(base_scenario("FDpD", h=1e-320))


def test_profile_pi_out_of_float_range_raises():
    # both routes give 0.0 here, so their consistency check alone passes
    with pytest.raises(FloatingPointError):
        pi_from_profile(base_scenario("D", h=1e-320))


def test_zone_energies_match_zone_contributions():
    # a zone's drag energy is A^2 times its S value, so the quadrature energy
    # of each zone cross-checks its closed-form contribution
    scn = base_scenario("FDpD")
    a_flux = flux_density(scn)
    energies = wellpi.validation._zone_energies(scn, zone_bounds(scn))
    contributions = zone_contributions(scn)
    assert len(energies) == len(contributions) == 3
    for energy, contribution in zip(energies, contributions):
        assert energy / (a_flux * a_flux) == pytest.approx(contribution, rel=1e-8)


# ---------------------------------------------------------------------------
# compressible sweep
# ---------------------------------------------------------------------------

def test_gamma_zero_returns_incompressible_profile():
    scn = gamma_scaled_scenario()
    radii = np.linspace(0.3, 1000.0, 101)
    _, v0 = compressible_velocity(scn, 0.0, radii)
    expected = velocity_profile(scn, radii)
    scale = velocity_profile(scn, 0.3)
    assert np.max(np.abs(v0 - expected)) <= 1e-10 * scale


def test_gamma_error_scales_linearly():
    scn = gamma_scaled_scenario()
    radii = np.linspace(0.3, 1000.0, 201)
    expected = velocity_profile(scn, radii)
    errs = {}
    for gamma in (1e-3, 1e-4):
        _, v_gamma = compressible_velocity(scn, gamma, radii)
        errs[gamma] = float(np.max(np.abs(v_gamma - expected)))
    assert 9.0 <= errs[1e-3] / errs[1e-4] <= 11.0


def test_compressible_exceeds_incompressible():
    # the gamma source only adds inflow, so v_gamma >= v everywhere
    scn = gamma_scaled_scenario()
    radii = np.linspace(0.3, 1000.0, 101)
    _, v_gamma = compressible_velocity(scn, 1e-3, radii)
    expected = velocity_profile(scn, radii)
    assert np.all(v_gamma >= expected - 1e-14)


def test_compressible_integral_identity_physical_gamma():
    # r (v_gamma - v) = gamma * int_r^re rho g(v_gamma) v_gamma^2 drho; check the
    # returned samples against a trapezoid evaluation of their own drag power.
    # All-Darcy keeps the drag smooth, which is what trapezoid can verify.
    scn = base_scenario("D")
    gamma = 1e-8
    radii = np.geomspace(0.3, 1000.0, 3001)
    r, v_gamma = compressible_velocity(scn, gamma, radii)
    v_inc = velocity_profile(scn, r)
    drag = np.array([x * drag_power(scn.params, scn.regime, v) for x, v in zip(r, v_gamma)])
    segments = (drag[1:] + drag[:-1]) / 2.0 * np.diff(r)
    cumulative = np.concatenate([[0.0], np.cumsum(segments)])  # int from r_w to r
    lhs = r * (v_gamma - v_inc)
    rhs = gamma * (cumulative[-1] - cumulative)  # int from r to r_e
    scale = float(np.max(np.abs(lhs)))
    assert scale > 0
    assert np.max(np.abs(lhs - rhs)) <= 0.01 * scale


def test_compressible_physical_fdpd_is_finite_and_ordered():
    # with the published physical parameters the correction is large but the
    # sweep must stay finite and above the incompressible profile
    scn = base_scenario("FDpD")
    radii = np.geomspace(0.3, 1000.0, 201)
    r, v_gamma = compressible_velocity(scn, 1e-8, radii)
    v_inc = velocity_profile(scn, r)
    assert np.all(np.isfinite(v_gamma))
    assert np.all(v_gamma >= v_inc - 1e-14)


def test_compressible_rejects_bad_inputs():
    scn = gamma_scaled_scenario()
    with pytest.raises(ValueError):
        compressible_velocity(scn, -1e-9, [0.3, 1000.0])
    with pytest.raises(ValueError):
        compressible_velocity(scn, 0.0, [0.1, 10.0])
    # no radius, and NaN radii, which the range test once let through
    for radii in ([], [math.nan], [0.3, math.nan, 500.0]):
        with pytest.raises(ValueError):
            compressible_velocity(scn, 1e-3, radii)


def test_compressible_step_underflow_raises():
    # at gamma = 1e4 the profile blows up just inside r_e; the NaN and inf
    # trial speeds reach drag_power, which returns NaN instead of raising,
    # so the controller rejects those steps until the step size underflows
    with pytest.raises(StepSizeUnderflow):
        compressible_velocity(gamma_scaled_scenario(), 1e4, [0.3, 1000.0])


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_compressible_rejects_non_finite_gamma(gamma):
    # nan and inf once slipped past `gamma < 0` and ended in StepSizeUnderflow
    with pytest.raises(ValueError, match="gamma"):
        compressible_velocity(gamma_scaled_scenario(), gamma, [0.3, 1000.0])


def test_compressible_work_does_not_grow_with_the_radii(monkeypatch):
    # the sweep takes the controller's own steps and reads the samples from
    # their continuous extension, so neither the steps nor the samples depend
    # on the other radii requested, only on the smallest one
    calls = []

    def counting(*args):
        calls.append(1)
        return drag_power(*args)

    monkeypatch.setattr(wellpi.validation, "drag_power", counting)
    scn = gamma_scaled_scenario()
    fine = np.linspace(0.3, 1000.0, 3001)
    for gamma in (1e-3, 1e-4, 1e-5):
        counts, speeds = [], []
        for radii in (fine[[0, -1]], fine[::15], fine):
            calls.clear()
            speeds.append(compressible_velocity(scn, gamma, radii)[1])
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]
        # one first stage, then six stages per attempt: the seventh stage of
        # an accepted step is the first stage of the next
        assert counts[0] % 6 == 1
        assert np.array_equal(speeds[1], speeds[2][::15])
        assert np.array_equal(speeds[0], speeds[2][[0, -1]])


@pytest.mark.parametrize("scn, gamma", [
    (gamma_scaled_scenario(), 0.0),
    (gamma_scaled_scenario(), 1e-5),
    (gamma_scaled_scenario(), 1e-4),
    (gamma_scaled_scenario(), 1e-3),
    (gamma_scaled_scenario(), 1.0),
    (base_scenario("FDpD"), 1e-8),
])
def test_written_out_stages_equal_the_tableau_loop(monkeypatch, scn, gamma):
    # the sweep writes each stage, weight and dense-output sum out; the
    # reference sums the Dormand-Prince tableau in a loop, so every float and
    # every right-hand-side evaluation (the tracer's rhs_evals) must agree.
    # Below gamma = 1 the stages hardly depend on u: a reordered stage sum
    # moved the samples' last bits at gamma = 1 only
    geo = scn.geometry
    ends = reference_compressible_velocity(scn, gamma, [geo.r_w, geo.r_e]).step_ends
    inside = [(a + b) / 2.0 for a, b in zip(ends, ends[1:])]
    # the steps depend on the smallest radius only, so ends[::2] fall on
    # step ends here and inside[::3] inside steps
    radii = [geo.r_w, geo.r_e, *ends[::2], *inside[::3], *np.linspace(geo.r_w, geo.r_e, 51)]
    ref = reference_compressible_velocity(scn, gamma, radii)
    assert ref.step_ends == ends
    assert gamma == 0.0 or ref.rejected > 0
    calls = []

    def counting(*args):
        calls.append(1)
        return drag_power(*args)

    monkeypatch.setattr(wellpi.validation, "drag_power", counting)
    r, v = compressible_velocity(scn, gamma, radii)
    assert r.tolist() == ref.radii.tolist()
    assert [x.hex() for x in v.tolist()] == [x.hex() for x in ref.speeds.tolist()]
    assert len(calls) == ref.rhs_evals


@pytest.mark.parametrize("scn, gamma", [
    (gamma_scaled_scenario(), 1e-3),
    (gamma_scaled_scenario(), 1e-4),
    (gamma_scaled_scenario(), 1e-5),
    (base_scenario("FDpD"), 1e-8),
])
def test_interpolated_samples_match_sweeps_that_end_on_them(scn, gamma):
    geo = scn.geometry
    r, v = compressible_velocity(scn, gamma, np.linspace(geo.r_w, geo.r_e, 201))
    scale = velocity_profile(scn, geo.r_w)
    for i in range(5, 200, 10):
        _, v_end = compressible_velocity(scn, gamma, [r[i]])
        assert abs(v_end[0] - v[i]) <= 1e-10 * scale


def test_compressible_radii_come_back_unique_and_ascending():
    scn = gamma_scaled_scenario()
    r, v = compressible_velocity(scn, 1e-3, [500.0, 1000.0, 0.3, 500.0, 1000.0, 37.5])
    assert r.tolist() == [0.3, 37.5, 500.0, 1000.0]
    assert v[-1] == 0.0
    _, v_sorted = compressible_velocity(scn, 1e-3, [0.3, 37.5, 500.0, 1000.0])
    assert np.array_equal(v, v_sorted)
    assert compressible_velocity(scn, 1e-3, [1000.0])[1].tolist() == [0.0]
