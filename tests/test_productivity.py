"""Productivity index assembly, published anchors and structural properties."""

import itertools
import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wellpi.productivity
import wellpi.quadrature
from wellpi import (
    REGIME_PRESETS,
    RegimeAssignment,
    ZoneLaw,
    base_scenario,
    compute_curve,
    compute_pi,
    compute_pis,
    partition_zones,
    regime_preset,
    velocity_profile,
    zone_contributions,
    zone_integral,
    zone_segments,
)
from wellpi.quadrature import _I0, _I1, _P


# ---------------------------------------------------------------------------
# published anchors (dimensionless)
# ---------------------------------------------------------------------------

def test_all_darcy_baseline():
    pi = compute_pi(base_scenario("D"))
    assert pi.j_dimensionless == pytest.approx(0.1358, abs=0.0005)


def test_ddpd_low_flux():
    pi = compute_pi(base_scenario("DDpD", s=0.3))
    assert pi.j_dimensionless == pytest.approx(5.21e-3, rel=0.01)


def test_fdpd_small_reservoir_no_slow_zone():
    pi = compute_pi(base_scenario("FDpD", r_e=100.0, v_D=0.0, s=0.3))
    assert pi.j_dimensionless == pytest.approx(0.1976, rel=0.01)


def test_pure_predarcy_small_reservoir():
    pi = compute_pi(base_scenario("pure-preDarcy", r_e=100.0, s=0.3))
    assert pi.j_dimensionless == pytest.approx(0.0042, rel=0.01)


def test_ddpd_s_equal_one():
    pi = compute_pi(base_scenario("DDpD", s=1.0))
    assert pi.j_dimensionless == pytest.approx(3.1e-8, rel=0.01)


# ---------------------------------------------------------------------------
# result structure
# ---------------------------------------------------------------------------

def test_dimensionless_scaling_is_exact():
    scn = base_scenario("FDpD")
    pi = compute_pi(scn)
    factor = scn.params.alpha / (2.0 * math.pi * scn.geometry.h)
    assert pi.j_dimensionless == pi.j_raw * factor  # bitwise, by construction


def test_contributions_are_nonnegative_and_positioned():
    scn = base_scenario("FDpD")
    contributions = zone_contributions(scn)
    assert len(contributions) == 3
    assert all(c >= 0.0 for c in contributions)
    # slow pre-Darcy zone dominates the drawdown in this case
    assert contributions[2] > contributions[0] > 0


def test_empty_zone_contributes_zero():
    assert zone_contributions(base_scenario("FDpD", v_D=0.0))[2] == 0.0


@pytest.mark.parametrize("regime, rel", [("FDpD", 0.0), ("D", 1e-12)])
def test_zone_contributions_sum_to_the_pi_denominator(regime, rel):
    # FDpD merges nothing, so its denominator is the same fsum of the same
    # three integrals; D sums three zones where the PI takes one [r_w, r_e]
    scn = base_scenario(regime)
    geo = scn.geometry
    j_raw = 2.0 * math.pi * geo.h * geo.radius_span_sq**2 / math.fsum(zone_contributions(scn))
    assert abs(j_raw - compute_pi(scn).j_raw) <= rel * j_raw


def test_pi_path_runs_no_quadrature(monkeypatch):
    # adaptive quadrature is only the oracle; every zone integral is closed
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature called on the PI path")

    monkeypatch.setattr(wellpi.quadrature, "integrate_adaptive", refuse)
    for regime in REGIME_PRESETS:
        for s in (0.0, 0.5, 1.0):
            assert compute_pi(base_scenario(regime, s=s, q_over_h=1e-2)).j_raw > 0


# ---------------------------------------------------------------------------
# flux dependence
# ---------------------------------------------------------------------------

FLUX_GRID = (2e-7, 1e-4, 1e-3, 5.95e-3, 1e-2, 3.18e-2, 1e-1, 1.0, 1e1, 1e4)


def test_darcy_pi_is_flux_independent_bitwise():
    values = {compute_pi(base_scenario("D", q_over_h=q)).j_dimensionless for q in FLUX_GRID}
    assert len(values) == 1


def test_forchheimer_pi_strictly_decreasing_in_flux():
    js = [compute_pi(base_scenario("F", q_over_h=q)).j_dimensionless for q in FLUX_GRID]
    assert all(a > b for a, b in zip(js, js[1:]))


def test_pure_predarcy_pi_scales_as_flux_to_the_s():
    # S_pD is proportional to A^(-s), so J(c q) = c^s J(q) up to rounding
    worst = 0.0
    for s in (0.0, 0.3, 0.7, 1.0):
        for q in (1e-6, 1e-4, 1e-2, 1.0):
            j = compute_pi(base_scenario("pure-preDarcy", s=s, q_over_h=q)).j_raw
            for c in (2.0, 10.0, 1e3):
                jc = compute_pi(base_scenario("pure-preDarcy", s=s, q_over_h=c * q)).j_raw
                worst = max(worst, abs(jc - c**s * j) / jc)
    assert worst <= 1e-15


def test_dimensionless_pi_is_independent_of_thickness():
    # at fixed Q/h every velocity, and so every S, is the same for any h
    for name in REGIME_PRESETS:
        ref = compute_pi(base_scenario(name, h=10.0)).j_dimensionless
        for h in (0.1, 3.0, 1e3):
            j = compute_pi(base_scenario(name, h=h)).j_dimensionless
            assert abs(j - ref) <= 1e-15 * ref, (name, h)


# ---------------------------------------------------------------------------
# pre-Darcy power dependence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", ["DDpD", "FDpD"])
def test_pi_nonincreasing_in_s(regime):
    # lambda = alpha and all speeds < 1 m/s, so raising s only adds drag
    js = [
        compute_pi(base_scenario(regime, s=float(s))).j_dimensionless
        for s in np.linspace(0.0, 1.0, 11)
    ]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(js, js[1:]))


def test_composition_bounds():
    fdpd = compute_pi(base_scenario("FDpD")).j_raw
    fdd = compute_pi(base_scenario("FDD")).j_raw
    ddpd = compute_pi(base_scenario("DDpD")).j_raw
    assert fdpd <= fdd
    assert fdpd <= ddpd


# ---------------------------------------------------------------------------
# limit consistency
# ---------------------------------------------------------------------------

def test_fdpd_with_vanishing_slow_zone_equals_fdd():
    j1 = compute_pi(base_scenario("FDpD", v_D=0.0)).j_raw
    j2 = compute_pi(base_scenario("FDD", v_D=0.0)).j_raw
    assert j1 == pytest.approx(j2, rel=1e-10)


def test_fdpd_with_no_fast_and_no_slow_zone_equals_darcy():
    scn = base_scenario("FDpD", v_D=0.0, v_F=1.0)  # v_F above the wellbore speed
    assert velocity_profile(scn, scn.geometry.r_w) < 1.0
    j1 = compute_pi(scn).j_raw
    j2 = compute_pi(base_scenario("D", v_D=0.0, v_F=1.0)).j_raw
    assert j1 == pytest.approx(j2, rel=1e-12)


def test_collapsed_laws_give_the_darcy_pi():
    # beta = 0 and s = 0 with lambda = alpha: every law is Darcy in disguise
    scn = base_scenario("FDpD", beta=0.0, s=0.0)
    fdpd, darcy = compute_pis(scn, (scn.regime, regime_preset("D")))
    assert fdpd.j_raw == pytest.approx(darcy.j_raw, rel=1e-12)


# ---------------------------------------------------------------------------
# several regimes at one scenario
# ---------------------------------------------------------------------------

ALL_TRIPLES = tuple(RegimeAssignment(*laws) for laws in itertools.product(ZoneLaw, repeat=3))


@settings(max_examples=60, deadline=None)
@given(
    s=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    v_D=st.one_of(st.just(0.0), st.floats(-9.0, -5.0).map(lambda e: 10.0**e)),
    v_F_over_v_D=st.floats(1.0, 1e3),
    log_q=st.floats(-8.0, 3.0),
    r_e=st.floats(10.0, 3000.0),
    order=st.permutations(ALL_TRIPLES),
)
def test_compute_pis_equals_compute_pi_per_regime(s, v_D, v_F_over_v_D, log_q, r_e, order):
    # the edges of s, v_D = 0 and the flux range give clamped and empty zones
    v_F = v_D * v_F_over_v_D if v_D > 0 else 1e-5
    scn = base_scenario("D", s=s, v_D=v_D, v_F=v_F, q_over_h=10.0**log_q, r_e=r_e)
    regimes = order[:10] + order[:3]  # a repeated regime is computed again
    expected = [compute_pi(replace(scn, regime=r)) for r in regimes]
    assert compute_pis(scn, regimes) == expected


# The term sum against the per-zone route, in units of eps: the worst of
# 216,000 PIs over 64,000 draws of this test's strategy was 2.54 eps, where an
# F zone next to a D zone takes I0 over both zones at once instead of S_F plus
# S_D.  tests/test_pi_reference.py checks both routes against 40 digits.
FLAT_PASS_EPS = 5.1


@settings(max_examples=80, deadline=None)
@given(
    regimes=st.lists(
        st.one_of(st.sampled_from(sorted(REGIME_PRESETS)).map(regime_preset),
                  st.sampled_from(ALL_TRIPLES)),
        min_size=1, max_size=5,
    ),
    s=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    v_D=st.one_of(st.just(0.0), st.floats(-9.0, -5.0).map(lambda e: 10.0**e)),
    log_q=st.floats(-10.0, 4.0),
    r_e=st.floats(10.0, 3000.0),
)
def test_flat_pass_equals_the_checked_route(regimes, s, v_D, log_q, r_e):
    # the low flux clamps both radii to r_w, v_D = 0 puts r_D on r_e, and the
    # high flux puts both within a hair of r_e; the PI sums by term, the checked
    # route by merged zone, so they agree to a few eps rather than bit for bit
    scn = base_scenario("D", s=s, v_D=v_D, q_over_h=10.0**log_q, r_e=r_e)
    geo = scn.geometry
    big_l = 2.0 * math.pi * geo.h * geo.radius_span_sq**2
    for regime, pi in zip(regimes, compute_pis(scn, regimes)):
        one = replace(scn, regime=regime)
        denominator = math.fsum(zone_integral(one, law, lo, hi) for lo, hi, law in zone_segments(one))
        checked = big_l / denominator
        assert abs(pi.j_raw - checked) <= FLAT_PASS_EPS * sys.float_info.epsilon * checked
        assert pi.zone_partition == partition_zones(scn)


def _count_brackets(monkeypatch) -> list:
    # (term, lo, hi) of every bracket the PI path takes, through its one dispatch
    calls = []
    bracket = wellpi.productivity._term_bracket

    def count(term, r_e, s, lo, hi):
        calls.append((term, lo, hi))
        return bracket(term, r_e, s, lo, hi)

    monkeypatch.setattr(wellpi.productivity, "_term_bracket", count)
    return calls


@pytest.mark.parametrize("presets, separate, shared", [
    (("DDpD", "FDpD", "FpDpD", "pure-preDarcy"), 9, {_I0: 2, _I1: 1, _P: 3}),
    (("D", "F", "FDD"), 5, {_I0: 1, _I1: 2}),
    (("D",), 1, {_I0: 1}),  # I0[r_w, r_e] only
], ids=["pre-Darcy", "closed", "all-Darcy"])
def test_regimes_at_one_scenario_share_zone_integrals(monkeypatch, presets, separate, shared):
    # summed by term, an F zone next to a D zone shares one I0 with it, and
    # regimes at one scenario share every bracket they have in common
    calls = _count_brackets(monkeypatch)
    scn = base_scenario("D")
    regimes = [regime_preset(name) for name in presets]
    for regime in regimes:
        compute_pi(replace(scn, regime=regime))
    assert len(calls) == separate
    calls.clear()
    compute_pis(scn, regimes)
    assert Counter(term for term, _, _ in calls) == shared
    assert len(set(calls)) == len(calls)  # no bracket taken twice


@settings(max_examples=60, deadline=None)
@given(
    regimes=st.lists(
        st.one_of(st.sampled_from(sorted(REGIME_PRESETS)).map(regime_preset),
                  st.sampled_from(ALL_TRIPLES)),
        min_size=1, max_size=5,
    ),
    s=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    v_D=st.one_of(st.just(0.0), st.floats(-9.0, -5.0).map(lambda e: 10.0**e)),
    fluxes=st.lists(st.floats(-10.0, 4.0).map(lambda e: 10.0**e), min_size=1, max_size=12),
    r_e=st.floats(10.0, 3000.0),
)
def test_each_point_of_a_curve_is_compute_pi_at_its_flux(regimes, s, v_D, fluxes, r_e):
    # a repeated flux or regime is computed again; the shared brackets change no bit
    scn = base_scenario("D", s=s, v_D=v_D, r_e=r_e)
    curve = compute_curve(scn, regimes, fluxes + fluxes[:1])
    expected = [[compute_pi(replace(scn, regime=regime, q_over_h=q)) for regime in regimes]
                for q in fluxes + fluxes[:1]]
    assert curve == expected


def test_a_closed_curve_takes_each_whole_annulus_bracket_once(monkeypatch):
    # F's I0 and I1 over [r_w, r_e] do not depend on the flux, and that I0 is
    # D's and FDD's too, so the only bracket left per point is FDD's I1[r_w, r_F]
    # where r_F is not clamped to r_w
    calls = _count_brackets(monkeypatch)
    scn = base_scenario("D")
    fluxes = [float(q) for q in np.geomspace(1e-7, 1e3, 100)]
    compute_curve(scn, [regime_preset(name) for name in ("D", "F", "FDD")], fluxes)
    r_w, r_e = scn.geometry.r_w, scn.geometry.r_e
    assert {(term, lo) for term, lo, _ in calls[2:]} == {(_I1, r_w)}
    assert calls.count((_I0, r_w, r_e)) == 1
    assert calls.count((_I1, r_w, r_e)) == 1
    assert len(set(calls)) == len(calls)
    assert all(lo < hi for _, lo, hi in calls)  # an empty zone takes no bracket


@pytest.mark.parametrize("laws, terms", [
    ((ZoneLaw.FORCHHEIMER, ZoneLaw.PRE_DARCY, ZoneLaw.FORCHHEIMER), (_I0, _I1)),
    ((ZoneLaw.PRE_DARCY, ZoneLaw.DARCY, ZoneLaw.PRE_DARCY), (_P,)),
])
def test_a_term_run_spans_an_empty_zone(monkeypatch, laws, terms):
    # v_D = v_F empties the middle zone, so its neighbours make one run
    calls = _count_brackets(monkeypatch)
    scn = base_scenario(RegimeAssignment(*laws), v_D=1e-5, v_F=1e-5)
    assert compute_pi(scn).j_raw > 0
    r_w, r_e = scn.geometry.r_w, scn.geometry.r_e
    assert calls == [(term, r_w, r_e) for term in terms]


@pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
def test_a_curve_rejects_a_flux_as_a_scenario_does(q):
    scn = base_scenario("D")
    with pytest.raises(ValueError) as from_curve:
        compute_curve(scn, [scn.regime], [1e-3, q])
    with pytest.raises(ValueError) as from_scenario:
        replace(scn, q_over_h=q)
    assert str(from_curve.value) == str(from_scenario.value)
