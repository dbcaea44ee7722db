"""Command-line interface: exit codes, output contracts, determinism."""

import codecs
import re

import numpy as np
import pytest

from wellpi import (
    FlowParameters,
    Geometry,
    RegimeAssignment,
    Scenario,
    ZoneLaw,
    base_scenario,
    compute_pi,
    load_reference_entries,
    reference_scenario,
    regime_preset,
)
from wellpi import cli
from wellpi.cli import build_parser, build_scenario, main
from wellpi.reference import (
    BASE_ALPHA,
    BASE_BETA,
    BASE_H,
    BASE_LAMBDA,
    BASE_Q_OVER_H,
    BASE_R_E,
    BASE_R_W,
    BASE_V_D,
    BASE_V_F,
)

from helpers import write_measurements
from test_fitting import OUT_OF_RANGE, fit_params
from test_imports import run_fresh


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

def test_pi_darcy_prints_published_value(capsys):
    code, out, _ = run_cli(capsys, "pi", "--regime", "D")
    assert code == 0
    assert "0.1358" in out
    assert "j_raw" in out and "r_F" in out and "r_D" in out
    assert "S_near_well" in out


def test_pi_raw_leads_with_si_value(capsys):
    code, out, _ = run_cli(capsys, "pi", "--regime", "D", "--raw")
    assert code == 0
    assert out.splitlines()[0].startswith("j_raw")


def test_pi_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "pi.csv"
    code, _, _ = run_cli(capsys, "pi", "--regime", "D", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("axis_name,axis_value,regime")
    assert len(lines) == 2


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, "pi", "--config", "/nonexistent/path.cfg")
    assert code == 2
    assert "config" in err
    # an empty path is a path too, not "no config file"
    code, _, err = run_cli(capsys, "pi", "--config", "")
    assert code == 2
    assert "cannot read config file ''" in err


def test_nonpositive_flux_names_field(capsys):
    code, _, err = run_cli(capsys, "pi", "--q-over-h", "-1")
    assert code == 2
    assert "q_over_h" in err


_FIELD_FLAGS = {
    "r_e": "--r-e", "r_w": "--r-w", "h": "--h", "alpha": "--alpha", "beta": "--beta",
    "lambda_": "--lambda", "s": "--s", "v_D": "--v-d", "v_F": "--v-f",
    "q_over_h": "--q-over-h",
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", list(_FIELD_FLAGS))
def test_nonfinite_input_names_field(capsys, field, value):
    # NaN fails every comparison, so each guard must be written in positive form
    code, out, err = run_cli(capsys, "pi", "--regime", "F", _FIELD_FLAGS[field], value)
    assert code == 2
    assert out == ""
    assert f"{field}=" in err or err.startswith(f"error: {field} ")


@pytest.mark.parametrize("regime", ["D", "FDpD"])
def test_overflowing_geometry_is_a_numerical_failure(capsys, regime):
    # r_e^4 overflows a double: a clean exit 3, not a traceback
    code, out, err = run_cli(capsys, "pi", "--regime", regime, "--r-e", "1e200")
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [
    ("--regime", "FDpD", "--q-over-h", "1e300"),  # S_F overflows, J = 0
    ("--h", "1e-320"),  # J underflows to 0, alpha / (2 pi h) overflows: 0 * inf = nan
    ("--r-w", "1e-300"),  # S_F overflows near the well, J = 0
    ("--r-e", "1e150", "--r-w", "1e149"),  # r_e^4 in L and the zone integrals overflows
    ("--r-e", "1e-150", "--r-w", "1e-151"),  # L and the zone integrals underflow to 0
], ids=["huge-flux", "subnormal-h", "tiny-r-w", "huge-annulus", "tiny-annulus"])
def test_pi_out_of_float_range_is_a_numerical_failure(capsys, argv):
    code, out, err = run_cli(capsys, "pi", *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: PI j_")
    assert " out of the floating-point range: " in err


@pytest.mark.parametrize("argv, printed", [
    # the PI of a 40-digit reference, at well radii where r_w itself or
    # (r_w / r_e)^2 is subnormal or underflows to 0
    (("--regime", "D", "--r-w", "1e-310"), "(1.38896772e-03)"),
    (("--regime", "D", "--r-w", "1e-308"), "(1.39790936e-03)"),
    (("--regime", "pure-preDarcy", "--r-w", "1e-300", "--s", "1e-5"), "(1.43961565e-03)"),
    (("--regime", "pure-preDarcy", "--r-w", "1e-170", "--s", "0"), "(2.51510812e-03)"),
    (("--regime", "pure-preDarcy", "--r-w", "5e-324", "--s", "1e-9"), "(1.33227185e-03)"),
    (("--regime", "pure-preDarcy", "--r-w", "5e-324", "--s", "1e-3"), "(1.86192690e-03)"),
])
def test_pi_from_a_tiny_well_radius(capsys, argv, printed):
    code, out, err = run_cli(capsys, "pi", *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith(printed)


@pytest.mark.parametrize("argv", [
    ("--q-over-h", "1e-320"),  # A underflows to 0
    ("--r-e", "1e200", "--r-w", "1e-200"),  # r_e^2 - r_w^2 overflows, so A = 0
    ("--r-e", "1e-170", "--r-w", "1e-171", "--h", "1"),  # r_e^2 - r_w^2 underflows to 0
], ids=["tiny-flux", "overflowing-span", "vanishing-span"])
def test_flux_density_out_of_float_range_is_named(capsys, argv):
    code, out, err = run_cli(capsys, "pi", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: flux density A out of the floating-point range: ")


def test_a_subnormal_flux_density_is_refused_where_a_predarcy_zone_needs_it(capsys):
    # lambda A^(-s) would carry the bits a subnormal A lost: this PI once
    # printed 6.93979355e-224, 4.6e-3 off the exact 6.972e-224
    argv = ("--q-over-h", "1e-315", "--s", "0.7")
    code, out, err = run_cli(capsys, "pi", "--regime", "pure-preDarcy", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: flux density A=1.6e-322 is subnormal")
    code, out, err = run_cli(capsys, "pi", "--regime", "F", *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith("(1.35837645e-01)")


def test_invalid_regime(capsys, tmp_path):
    code, _, err = run_cli(capsys, "pi", "--regime", "bogus")
    assert code == 2
    assert "preset" in err
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text("regime.preset = bogus\n")
    code, out, err = run_cli(capsys, "pi", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cfg}:1: unknown regime preset 'bogus'; expected one of: D, F,")


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "# small reservoir\n"
        "geometry.r_e = 100\n"
        "regime.preset = FDpD\n"
        "params.s = 0.3\n"
        "params.v_D = 0\n"
    )
    code, out, _ = run_cli(capsys, "pi", "--config", str(cfg))
    assert code == 0
    assert "0.1976" in out  # published small-reservoir value
    # flag overrides the config file: back to the big reservoir
    code, out, _ = run_cli(capsys, "pi", "--config", str(cfg), "--r-e", "1000", "--regime", "D")
    assert code == 0
    assert "0.1358" in out


def test_regime_flag_overrides_the_file_zone_laws(capsys, tmp_path):
    # the file's zone law once overrode the flag's preset: pDpDD
    cfg = tmp_path / "z.cfg"
    cfg.write_text("regime.near_boundary = darcy\n")
    code, out, _ = run_cli(capsys, "pi", "--config", str(cfg))
    assert code == 0
    assert "regime            = FDD" in out.splitlines()
    code, out, _ = run_cli(capsys, "pi", "--config", str(cfg), "--regime", "pure-preDarcy")
    assert (code, out) == run_cli(capsys, "pi", "--regime", "pure-preDarcy")[:2]
    assert "regime            = pure-preDarcy" in out.splitlines()


@pytest.mark.parametrize("near_well, middle, near_boundary", [
    ("pd", "F", "darcy"),
    ("pre-darcy", "f", "D"),
    ("PreDarcy", "Forchheimer", "d"),
])
def test_config_sets_the_law_of_each_zone(capsys, tmp_path, near_well, middle, near_boundary):
    cfg = tmp_path / "zones.cfg"
    cfg.write_text(
        f"regime.near_well = {near_well}\n"
        f"regime.middle = {middle}\n"
        f"regime.near_boundary = {near_boundary}\n"
    )
    code, out, _ = run_cli(capsys, "pi", "--config", str(cfg))
    assert code == 0
    assert "regime            = pDFD" in out.splitlines()
    triple = RegimeAssignment(ZoneLaw.PRE_DARCY, ZoneLaw.FORCHHEIMER, ZoneLaw.DARCY)
    j = compute_pi(base_scenario(triple)).j_dimensionless
    assert out.splitlines()[0] == f"j_dimensionless   = {j:.4g} ({j:.8e})"


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("geometry.radius = 10\n")
    code, _, err = run_cli(capsys, "pi", "--config", str(cfg))
    assert code == 2
    assert "geometry.radius" in err
    cfg.write_text("regime.near_well = pd\nregime.middle = bogus\n")
    code, out, err = run_cli(capsys, "pi", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:2: regime.middle: unknown zone law 'bogus'\n"


@pytest.mark.parametrize("content, message", [
    (b"# comment\n\ngeometry.r_e 500\n", "3: expected 'key = value', got 'geometry.r_e 500'"),
    (b"geometry.r_e = abc\n", "1: geometry.r_e: not a number: 'abc'"),
    (codecs.BOM_UTF8 + b"geometry.r_e = 500\nparams.s = 0.3 # \xff\n",
     "2: 'utf-8' codec can't decode byte 0xff in position 17: invalid start byte"),
], ids=["no-equals-sign", "not-a-number", "invalid-utf8"])
def test_config_error_names_file_and_line(capsys, tmp_path, content, message):
    cfg = tmp_path / "case.cfg"
    cfg.write_bytes(content)
    code, out, err = run_cli(capsys, "pi", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}:{message}\n"


def test_gamma_is_neither_a_flag_nor_a_config_key(capsys, tmp_path):
    # no PI command reads a compressibility, so none accepts one
    with pytest.raises(SystemExit) as info:
        main(["pi", "--gamma", "1e-3"])
    assert info.value.code == 2
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text("params.gamma = 1e-8\n")
    code, out, err = run_cli(capsys, "pi", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "unknown key 'params.gamma'" in err


_FIELD_KEYS = {
    "r_e": "geometry.r_e", "r_w": "geometry.r_w", "h": "geometry.h",
    "alpha": "params.alpha", "beta": "params.beta", "lambda_": "params.lambda",
    "s": "params.s", "v_D": "params.v_D", "v_F": "params.v_F",
    "q_over_h": "flow.q_over_h",
}
# a valid value off the default for each field
_FIELD_VALUES = {
    "r_e": "500", "r_w": "0.2", "h": "20", "alpha": "2e10", "beta": "1e11",
    "lambda_": "3e9", "s": "0.4", "v_D": "2e-7", "v_F": "2e-5", "q_over_h": "3e-3",
}


def _scenario(*argv):
    return build_scenario(build_parser().parse_args(["pi", *argv]))


def _field(scn, field):
    if field in ("r_e", "r_w", "h"):
        return getattr(scn.geometry, field)
    if field == "q_over_h":
        return scn.q_over_h
    return getattr(scn.params, field)


@pytest.mark.parametrize("field", list(_FIELD_FLAGS))
def test_config_key_sets_the_same_field_as_its_flag(tmp_path, field):
    value = _FIELD_VALUES[field]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{_FIELD_KEYS[field]} = {value}\n")
    from_key = _scenario("--config", str(cfg))
    assert from_key == _scenario(_FIELD_FLAGS[field], value)
    assert _field(from_key, field) == float(value)
    for other in _FIELD_FLAGS:
        if other != field:
            assert _field(from_key, other) == _field(_scenario(), other)


def test_no_flag_and_no_key_gives_the_base_scenario():
    scn = _scenario()
    assert scn.geometry == Geometry(r_e=BASE_R_E, r_w=BASE_R_W, h=BASE_H)
    assert scn.params == FlowParameters(
        alpha=BASE_ALPHA, beta=BASE_BETA, lambda_=BASE_LAMBDA, s=0.7, v_D=BASE_V_D, v_F=BASE_V_F,
    )
    assert scn.q_over_h == BASE_Q_OVER_H
    assert scn.regime == regime_preset("FDpD")


def test_no_flag_and_no_key_gives_the_base_builder_at_fdpd():
    assert _scenario() == base_scenario("FDpD")


@pytest.mark.parametrize("table", [1, 2, 3, 4])
def test_reference_scenario_is_the_base_case_at_the_entry(table):
    e = load_reference_entries(table)[-1]
    assert reference_scenario(e) == Scenario(
        geometry=Geometry(r_e=e.r_e, r_w=BASE_R_W, h=BASE_H),
        params=FlowParameters(
            alpha=BASE_ALPHA, beta=BASE_BETA, lambda_=BASE_LAMBDA, s=e.s, v_D=e.v_d, v_F=BASE_V_F,
        ),
        regime=regime_preset(e.regime),
        q_over_h=e.q_over_h,
    )


def test_reference_entries_are_a_new_list_on_every_call():
    # the CSV is parsed once per process; a caller's list is its own
    first = load_reference_entries()
    second = load_reference_entries()
    assert first == second and first is not second
    first.clear()
    assert load_reference_entries() == second
    table_1 = load_reference_entries(1)
    table_1.pop()
    assert len(load_reference_entries(1)) == len(table_1) + 1
    assert len(second) == 137


def test_reference_entries_reject_an_unknown_table():
    with pytest.raises(ValueError, match="table 5"):
        load_reference_entries(5)


def test_base_scenario_rejects_a_misspelt_field():
    with pytest.raises(TypeError):
        base_scenario("D", r_E=500.0)
    with pytest.raises(TypeError):
        base_scenario("D", False, 500.0)


def test_continuous_rescaling_is_checked_before_the_geometry(capsys):
    # r_w > r_e is a Geometry error too, but the flow parameters come first
    code, out, err = run_cli(capsys, "pi", "--r-w", "2000", "--v-d", "0", "--continuous-predarcy")
    assert (code, out) == (2, "")
    assert err == "error: continuous pre-Darcy rescaling requires v_D > 0\n"


def test_config_file_may_start_with_a_byte_order_mark(capsys, tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(codecs.BOM_UTF8 + b"geometry.r_e = 500\n")
    assert run_cli(capsys, "pi", "--config", str(cfg)) == run_cli(capsys, "pi", "--r-e", "500")


def test_continuous_predarcy_flag_changes_result(capsys):
    code, out_default, _ = run_cli(capsys, "pi", "--regime", "DDpD", "--s", "0.5")
    assert code == 0
    code, out_cont, _ = run_cli(
        capsys, "pi", "--regime", "DDpD", "--s", "0.5", "--continuous-predarcy"
    )
    assert code == 0
    assert out_default.splitlines()[0] != out_cont.splitlines()[0]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_single_value_sweep_matches_pi(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "q_over_h", "--values", "1e-4", "--regimes", "FDpD"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    expected = compute_pi(base_scenario("FDpD"))
    # CSV carries 9 significant digits
    assert float(cells["j_dimensionless"]) == pytest.approx(expected.j_dimensionless, rel=1e-8)
    assert float(cells["r_F"]) == pytest.approx(expected.zone_partition.r_F, rel=1e-8)
    assert cells["regime"] == "FDpD"


def test_sweep_is_byte_deterministic(capsys):
    argv = ["sweep", "--axis", "s", "--values", "0.1,0.5,0.9", "--regimes", "DDpD,FDpD"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 1 + 6  # header + axis-major rows


def test_sweep_log_range(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "q_over_h", "--log-range", "1e-4,1e-2,3",
        "--regimes", "D",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 3
    values = [float(row.split(",")[1]) for row in rows]
    assert values == pytest.approx([1e-4, 1e-3, 1e-2], rel=1e-12)


@pytest.mark.parametrize("axis, value, message", [
    ("v_D", "1e-3", "axis v_D=0.001: critical velocities must satisfy"
                    " 0 <= v_D <= v_F < inf, got v_D=0.001, v_F=1e-05"),
    # formatted with :g, 1.0000001 read as the in-range s = 1
    ("s", "1.0000001", "axis s=1.0000001: s must lie in [0, 1], got 1.0000001"),
], ids=["v_D", "s"])
def test_sweep_rejects_out_of_range_axis_value(capsys, axis, value, message):
    code, out, err = run_cli(
        capsys, "sweep", "--axis", axis, "--values", value, "--regimes", "FDpD"
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("values, bad", [
    ("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"), ("1e-3,0", "0.0"),
])
def test_sweep_names_the_flux_it_rejects(capsys, values, bad):
    code, out, err = run_cli(capsys, "sweep", "--axis", "q_over_h", "--values", values,
                             "--regimes", "D,F,FDpD")
    assert (code, out) == (2, "")
    assert err == f"error: axis q_over_h={bad}: q_over_h must be positive and finite, got {bad}\n"


def test_sweep_checks_every_parameter_value_before_any_pi(capsys):
    # at r_e = 1e200 the PI at s = 0.5 leaves the float range (exit 3), but
    # the rejected s = 2 is reported first, as a rejected flux is
    code, out, err = run_cli(capsys, "sweep", "--axis", "s", "--values", "0.5,2",
                             "--r-e", "1e200", "--regimes", "D")
    assert (code, out) == (2, "")
    assert err == "error: axis s=2.0: s must lie in [0, 1], got 2.0\n"

def test_sweep_rejects_malformed_log_range(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--axis", "s", "--log-range", "nope", "--regimes", "D"
    )
    assert code == 2
    assert "log-range" in err


@pytest.mark.parametrize("log_range", [
    "1,inf,3", "inf,1,3", "1,-inf,3", "-inf,1,3", "nan,1,3", "1,nan,3",
])
def test_sweep_rejects_non_finite_log_range_end(capsys, log_range):
    # the suite turns warnings into errors, so a numpy RuntimeWarning from
    # np.geomspace on an infinite end would fail this test too
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "q_over_h", f"--log-range={log_range}", "--regimes", "D"
    )
    assert code == 2
    assert "--log-range" in err
    assert out == ""


def test_sweep_log_range_too_large_to_allocate_is_a_config_error(capsys, monkeypatch):
    # a list of 1e12 points (7.28 TiB) raises MemoryError where the machine
    # refuses it, or is allocated where it does not; no test makes one
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "_geomspace", refuse)
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "q_over_h", "--log-range", "1e-4,1e-2,1000000000000",
        "--regimes", "D",
    )
    assert code == 2
    assert err == "error: --log-range: 1000000000000 points do not fit in memory\n"
    assert out == ""


def test_sweep_log_range_beyond_the_index_range_is_a_config_error(capsys):
    # the list repetition raises OverflowError before it allocates anything
    code, out, err = run_cli(
        capsys, "sweep", "--axis", "q_over_h", "--log-range", "1,2,100000000000000000000",
        "--regimes", "D",
    )
    assert (code, out) == (2, "")
    assert err == "error: --log-range: 100000000000000000000 points do not fit in memory\n"


@pytest.mark.parametrize("start, stop, count", [
    (1e-4, 1e-2, 1), (1e-4, 1e-2, 2), (1e-4, 1e-2, 3), (1e-8, 1e3, 250),
    (1e3, 1e-8, 250), (7.5, 7.5, 3), (5e-324, 1.0, 250), (1.0, 1.7976931348623157e308, 250),
    (1.7976931348623157e308, 1.0, 7),
], ids=["one", "two", "three", "ascending", "descending", "equal-ends", "subnormal-start",
        "float-max-stop", "float-max-start"])
def test_geomspace_prints_as_numpy_geomspace(start, stop, count):
    values = cli._geomspace(start, stop, count)
    with np.errstate(over="ignore"):  # numpy raises the float-max end from its log, then pins it
        reference = np.geomspace(start, stop, count)
    assert [f"{v:.8e}" for v in values] == [f"{v:.8e}" for v in reference]
    assert (values[0], values[-1]) == (start, stop if count > 1 else start)


def test_geomspace_keeps_a_point_between_two_ends_at_the_float_maximum():
    # both logarithms round to one whose power overflows; the point lies between the ends
    top, below = 1.7976931348623157e308, 1.7976931348623155e308
    assert cli._geomspace(below, top, 3) == [below, top, top]
    assert cli._geomspace(top, below, 4) == [top, top, top, below]


@pytest.mark.parametrize("log_range, count", [
    ("1,1.7976931348623157e308,3", 3), ("1.7976931348623157e308,1,7", 7),
])
def test_sweep_log_range_to_the_float_maximum(capsys, log_range, count):
    # the suite turns warnings into errors, as `python -W error` does: an
    # overflow warning in the end's power would fail this test
    code, out, err = run_cli(capsys, "sweep", "--axis", "q_over_h", "--log-range", log_range,
                             "--regimes", "D")
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + count


def test_sweep_over_v_d_reproduces_small_reservoir_row(capsys):
    # FDpD over the v_D grid at r_e = 100 m, s = 0.05: published row values
    code, out, _ = run_cli(
        capsys, "sweep", "--axis", "v_D",
        "--values", "0,5e-7,1.5e-6,5e-6,9.5e-6,1e-5",
        "--regimes", "FDpD", "--r-e", "100", "--s", "0.05",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    got = [float(row.split(",")[-1]) for row in rows]
    published = [0.1976, 0.1754, 0.1502, 0.1296, 0.1214, 0.1208]
    assert got == pytest.approx(published, rel=0.01)


@pytest.mark.parametrize("axis, flag, values", [
    ("s", "--s", ["0", "0.3", "1"]),
    ("v_D", "--v-d", ["1e-8", "1e-7", "5e-6"]),
])
def test_continuous_predarcy_sweep_row_equals_pi(capsys, tmp_path, axis, flag, values):
    # lambda is rescaled at each row's s and v_D, not at the base values
    code, out, _ = run_cli(capsys, "sweep", "--axis", axis, "--values", ",".join(values),
                           "--regimes", "DDpD", "--continuous-predarcy")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == len(values)
    pi_csv = tmp_path / "pi.csv"
    for value, row in zip(values, rows):
        code, _, _ = run_cli(capsys, "pi", "--regime", "DDpD", flag, value,
                             "--continuous-predarcy", "--out", str(pi_csv))
        assert code == 0
        pi_row = pi_csv.read_text().splitlines()[1]
        assert row.split(",")[2:] == pi_row.split(",")[2:]


def test_continuous_predarcy_sweep_to_zero_v_d_is_a_config_error(capsys):
    for argv in (("pi", "--v-d", "0"), ("sweep", "--axis", "v_D", "--values", "0")):
        code, out, err = run_cli(capsys, *argv, "--continuous-predarcy")
        assert (code, out) == (2, "")
        assert "requires v_D > 0" in err


def _cell(x):
    return f"{x:.8e}"  # cli._fmt


def _expected_sweep(axis, values, regimes):
    """The sweep CSV rebuilt with one compute_pi per row."""
    lines = ["axis_name,axis_value,regime,s,v_D,v_F,q_over_h,r_F,r_D,j_raw,j_dimensionless"]
    for value in values:
        for name in regimes:
            scn = base_scenario(name, **{axis: value})
            pi = compute_pi(scn)
            p, part = scn.params, pi.zone_partition
            lines.append(",".join((axis, _cell(value), name, *map(_cell, (
                p.s, p.v_D, p.v_F, scn.q_over_h, part.r_F, part.r_D,
                pi.j_raw, pi.j_dimensionless,
            )))))
    return "\n".join(lines) + "\n"


ALL_PRESETS = "D,F,FDD,DDpD,FDpD,FpDpD,pure-preDarcy"


@pytest.mark.parametrize("axis, flag, spec, values, regimes", [
    # both radii clamp to r_w at the low end; r_D rounds to r_e at the high end
    ("q_over_h", "--log-range", "1e-9,1e14,24", list(np.geomspace(1e-9, 1e14, 24)), ALL_PRESETS),
    ("s", "--values", "0,0.25,0.5,0.75,1", [0.0, 0.25, 0.5, 0.75, 1.0], ALL_PRESETS),
    ("q_over_h", "--values", "1e-7,1e-4,1e-1", [1e-7, 1e-4, 1e-1], "D,F,D"),
    # v_D = 0 empties the slow zone; 5e-324 is a subnormal cell
    ("v_D", "--values", "0,5e-324,1e-7,1e-5", [0.0, 5e-324, 1e-7, 1e-5], ALL_PRESETS),
    # v_F = 1e300 clamps r_F to r_w and is a 1e300 cell
    ("v_F", "--values", "1e-7,1e-3,1e300", [1e-7, 1e-3, 1e300], ALL_PRESETS),
    # more points than one compute_curve call of the sweep takes
    ("q_over_h", "--log-range", "1e-8,1e3,250", list(np.geomspace(1e-8, 1e3, 250)), "D,F,FDD,FDpD"),
    ("s", "--log-range", "1e-6,1,230", list(np.geomspace(1e-6, 1, 230)), "D,F,DDpD,FpDpD"),
], ids=["clamped-flux-range", "s-with-both-ends", "repeated-preset", "v_D-zero-and-subnormal",
        "v_F-huge", "curve-in-parts", "s-curve-in-parts"])
def test_sweep_csv_equals_compute_pi_per_row(capsys, axis, flag, spec, values, regimes):
    code, out, _ = run_cli(capsys, "sweep", "--axis", axis, flag, spec, "--regimes", regimes)
    assert code == 0
    assert out == _expected_sweep(axis, [float(v) for v in values], regimes.split(","))


def test_sweep_rejects_unknown_axis_and_empty_lists(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--axis", "bogus", "--values", "1"])
    assert info.value.code == 2
    code, out, err = run_cli(capsys, "sweep", "--axis", "s", "--values", ",")
    assert (code, out) == (2, "")
    assert "at least one axis value" in err
    code, out, err = run_cli(capsys, "sweep", "--axis", "s", "--values", "0.5,abc")
    assert (code, out) == (2, "")
    assert err == "error: --values: could not convert string to float: 'abc'\n"
    code, out, err = run_cli(capsys, "sweep", "--axis", "s", "--values", "0.5", "--regimes", ",")
    assert (code, out) == (2, "")
    assert "at least one regime" in err
    code, out, err = run_cli(capsys, "sweep", "--axis", "s", "--values", "0.5", "--regimes", "D,bogus")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown regime preset 'bogus'; expected one of: D, F,")


def test_sweep_has_no_regime_flag(capsys):
    # `--regime` once printed all five default regimes; nor is it taken as
    # an abbreviation of --regimes
    code, out, err = _outcome(capsys, ["sweep", "--axis", "q_over_h", "--values", "1e-4",
                                       "--regime", "D"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --regime D" in err


@pytest.mark.parametrize("line", [
    "regime.preset = D", "regime.near_well = F", "regime.middle = pD", "regime.near_boundary = D",
])
def test_sweep_rejects_a_config_regime(capsys, tmp_path, line):
    # a sweep takes its regimes from --regimes alone; pi takes the file's
    cfg = tmp_path / "regime.cfg"
    cfg.write_text(f"geometry.r_e = 500\n{line}\n")
    code, out, err = run_cli(capsys, "sweep", "--axis", "s", "--values", "0.5", "--config", str(cfg))
    assert (code, out) == (2, "")
    key = line.split(" = ")[0]
    assert err == f"error: {cfg}: {key} is not used by sweep; name its regime presets with --regimes\n"
    code, _, _ = run_cli(capsys, "pi", "--config", str(cfg))
    assert code == 0


def test_sweep_takes_the_rest_of_a_config_file(capsys, tmp_path):
    cfg = tmp_path / "case.cfg"
    cfg.write_text("geometry.r_e = 500\n")
    argv = ["sweep", "--axis", "s", "--values", "0.5", "--regimes", "D"]
    assert run_cli(capsys, *argv, "--config", str(cfg)) == run_cli(capsys, *argv, "--r-e", "500")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("table", [1, 2, 3, 4])
def test_tables_reproduce_within_tolerance(capsys, table):
    code, out, err = run_cli(capsys, "table", str(table))
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0].startswith("table,regime")
    assert all(row.endswith(",yes") for row in rows[1:])
    assert "0 beyond" in err


@pytest.mark.parametrize("table", [1, 2, 3, 4])
def test_table_csv_equals_compute_pi_per_entry(capsys, table):
    lines = ["table,regime,s,v_D,q_over_h,r_e,published,computed,rel_deviation,within_1pct"]
    for e in load_reference_entries(table):
        j = compute_pi(reference_scenario(e)).j_dimensionless
        dev = abs(j - e.published) / abs(e.published)
        lines.append(",".join((
            str(e.table), e.regime, *map(_cell, (e.s, e.v_d, e.q_over_h, e.r_e, e.published, j, dev)),
            "yes" if dev <= 0.01 else "NO",
        )))
    code, out, _ = run_cli(capsys, "table", str(table))
    assert code == 0
    assert out == "\n".join(lines) + "\n"


def test_table_3_contains_published_anchor(capsys):
    code, out, _ = run_cli(capsys, "table", "3")
    assert code == 0
    anchors = [row for row in out.splitlines() if row.startswith("3,DDpD,7.0")]
    assert any("9.06400000e-03" in row for row in anchors)


def test_table_4_contains_pure_predarcy_column(capsys):
    code, out, _ = run_cli(capsys, "table", "4")
    assert code == 0
    predarcy_rows = [row for row in out.splitlines() if ",pure-preDarcy," in row]
    assert len(predarcy_rows) == 2
    assert any("4.20000000e-03" in row for row in predarcy_rows)


def test_table_continuous_predarcy_with_zero_v_d_is_a_config_error(capsys):
    # table 4 has v_D = 0 entries, where lambda = alpha * v_D^s is undefined
    code, out, err = run_cli(capsys, "table", "4", "--continuous-predarcy")
    assert code == 2
    assert err.startswith("error:") and "v_D" in err
    assert "Traceback" not in err and out == ""


def test_table_continuous_predarcy_runs(capsys):
    code, out, _ = run_cli(capsys, "table", "1", "--continuous-predarcy")
    assert code == 0
    assert out.startswith("table,regime")


def test_table_writes_file(capsys, tmp_path):
    out_path = tmp_path / "t1.csv"
    code, _, _ = run_cli(capsys, "table", "1", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("table,regime")


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes(capsys):
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert "11/11" in lines[-1]


def test_validate_inject_fault_fails(capsys):
    code, out, _ = run_cli(capsys, "validate", "--inject-fault")
    assert code == 1
    assert any(
        line.startswith("FAIL oracle-equivalence") for line in out.splitlines()
    )


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_recovers_power(capsys, tmp_path):
    path = tmp_path / "meas.csv"
    write_measurements(path, fit_params(s=0.5772), np.geomspace(1e-9, 1e-6, 20))
    code, out, _ = run_cli(capsys, "fit", str(path))
    assert code == 0
    assert "s_hat             = 0.5772" in out
    assert "note:" not in out
    # every velocity in the Darcy range: no breakpoint
    write_measurements(path, fit_params(v_D=1e-12), np.geomspace(1e-8, 5e-6, 12))
    code, out, _ = run_cli(capsys, "fit", str(path))
    assert code == 0
    assert out.splitlines()[-1] == (
        "note: single Darcy segment explains the data; no breakpoint reported"
    )


def test_fit_emit_model(capsys, tmp_path):
    path = tmp_path / "meas.csv"
    model_path = tmp_path / "model.csv"
    write_measurements(path, fit_params(), np.geomspace(1e-9, 1e-6, 20))
    code, _, _ = run_cli(capsys, "fit", str(path), "--emit-model", str(model_path))
    assert code == 0
    lines = model_path.read_text().splitlines()
    assert lines[0] == "v_m_per_s,grad_p_pa_per_m"
    assert len(lines) == 201


@pytest.mark.parametrize("emit_model", [False, True], ids=["stdout", "emit-model"])
@pytest.mark.parametrize("rows", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_fit_coefficient_out_of_float_range_is_numerical(capsys, tmp_path, rows, emit_model):
    # no 0.0 or inf coefficient is printed, and none reaches the model's parameter checks
    path, model_path = tmp_path / "meas.csv", tmp_path / "model.csv"
    path.write_text("v_m_per_s,grad_p_pa_per_m\n" + "".join(f"{v!r},{g!r}\n" for v, g in rows))
    argv = ["fit", str(path)] + (["--emit-model", str(model_path)] if emit_model else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert re.fullmatch(r"numerical failure: (lambda|alpha)_hat out of the floating-point "
                        r"range: (0\.0|inf)\n", err)
    assert not model_path.exists()


def test_fit_darcy_segment_of_one_velocity_prints_no_nan(capsys, tmp_path):
    path = tmp_path / "meas.csv"
    v = list(np.geomspace(1e-10, 5e-8, 6)) + [1e-6] * 3
    write_measurements(path, base_scenario("FDpD").params, v)
    code, out, _ = run_cli(capsys, "fit", str(path))
    assert code == 0
    assert "points_per_segment= 6,3" in out.splitlines()
    assert "darcy_slope       = undefined  (the Darcy segment has one velocity)" in out.splitlines()
    assert "nan" not in out


def test_fit_too_few_points(capsys, tmp_path):
    path = tmp_path / "meas.csv"
    write_measurements(path, fit_params(), np.geomspace(1e-9, 1e-6, 5))
    code, _, err = run_cli(capsys, "fit", str(path))
    assert code == 2
    assert "6" in err


def test_fit_nonpositive_velocity_names_row(capsys, tmp_path):
    path = tmp_path / "meas.csv"
    path.write_text(
        "v_m_per_s,grad_p_pa_per_m\n1e-7,1e3\n-2e-7,1e3\n1e-6,1e4\n"
    )
    code, _, err = run_cli(capsys, "fit", str(path))
    assert code == 2
    assert "row 3" in err


def test_fit_oversized_field_names_row(capsys, tmp_path):
    # the csv module rejects a field over 131072 characters
    path = tmp_path / "meas.csv"
    path.write_text(
        "v_m_per_s,grad_p_pa_per_m\n1e-7,1e3\n1e-6," + "1" * 200_000 + "\n"
    )
    code, _, err = run_cli(capsys, "fit", str(path))
    assert code == 2
    assert err.startswith("error: row 3: field larger than field limit")
    assert "Traceback" not in err


@pytest.mark.parametrize("row, newline", [(3, b"\n"), (1501, b"\n"), (3, b"\r")],
                         ids=["row-3", "row-1501", "row-3-cr-endings"])
def test_fit_invalid_utf8_names_row(capsys, tmp_path, row, newline):
    # a 26-byte header and 2,000 26-byte rows, so row N starts at byte 26 (N - 1);
    # row 1501 lies beyond the first chunk that a text-mode reader decodes
    lines = [b"v_m_per_s,grad_p_pa_per_m" + newline]
    lines += [f"{1e-9 * k:.6e},{1e3 * k:.6e}".encode() + newline for k in range(1, 2001)]
    assert {len(line) for line in lines} == {26}
    lines[row - 1] = b"\xff" + lines[row - 1][1:]
    path = tmp_path / "meas.csv"
    path.write_bytes(b"".join(lines))
    code, out, err = run_cli(capsys, "fit", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(
        f"error: row {row}: 'utf-8' codec can't decode byte 0xff in position {26 * (row - 1)}:"
    )


def test_fit_reads_a_file_with_a_byte_order_mark(capsys, tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_measurements(plain, fit_params(), np.geomspace(1e-9, 1e-6, 20))
    bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    code, out, err = run_cli(capsys, "fit", str(bom))
    assert (code, out, err) == run_cli(capsys, "fit", str(plain))
    assert code == 0


@pytest.mark.parametrize("row", [2, 3])
def test_fit_invalid_utf8_after_a_byte_order_mark_names_row(capsys, tmp_path, row):
    lines = [b"v_m_per_s,grad_p_pa_per_m\n", b"1e-7,1e3\n", b"1e-6,1e4\n"]
    lines[row - 1] = b"\xff" + lines[row - 1][1:]
    path = tmp_path / "meas.csv"
    path.write_bytes(codecs.BOM_UTF8 + b"".join(lines))
    code, out, err = run_cli(capsys, "fit", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: row {row}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("content", [
    b"", codecs.BOM_UTF8, b"\n", codecs.BOM_UTF8 + b"\r\n \n,\n",
], ids=["empty", "byte-order-mark-only", "blank-line", "blank-rows"])
def test_fit_empty_file_is_named(capsys, tmp_path, content):
    path = tmp_path / "empty.csv"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "fit", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: {str(path)!r} is empty: expected header 'v_m_per_s, grad_p_pa_per_m'\n"
    )
    # the same rows before a header are skipped
    plain = tmp_path / "plain.csv"
    write_measurements(plain, fit_params(), np.geomspace(1e-9, 1e-6, 20))
    path.write_bytes(content + plain.read_bytes())
    assert run_cli(capsys, "fit", str(path)) == run_cli(capsys, "fit", str(plain))


def test_fit_missing_file(capsys):
    code, _, err = run_cli(capsys, "fit", "/nonexistent/data.csv")
    assert code == 2
    assert "data.csv" in err


# ---------------------------------------------------------------------------
# parser reuse
# ---------------------------------------------------------------------------

# successes, help, version, argparse errors and a library error, with the
# mutually exclusive sweep values given one way and then the other
_REUSE_CALLS = (
    ("pi", "--raw"), ("pi",), ("-h",), ("pi", "--help"), ("--version",),
    ("pi", "--bogus"), ("pi", "--s", "2"),
    ("sweep", "--axis", "q_over_h", "--values", "1e-4,1e-3"),
    ("sweep", "--axis", "q_over_h", "--log-range", "1e-4,1e-2,3"),
    ("sweep", "--values", "1e-4"), ("table", "5"), ("table", "1"),
)


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse ends help, --version and its errors this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_answers_as_a_fresh_one(capsys):
    reused = [_outcome(capsys, argv) for argv in _REUSE_CALLS]
    fresh = []
    for argv in _REUSE_CALLS:
        build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert {code for code, _, _ in reused} == {0, 2}


def test_main_builds_the_parser_once(capsys):
    build_parser.cache_clear()
    for argv in (["pi"], ["pi", "--raw"], ["table", "2"]):
        run_cli(capsys, *argv)
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_importing_the_cli_builds_no_parser():
    assert run_fresh(
        "import wellpi.cli\n"
        "print(json.dumps(wellpi.cli.build_parser.cache_info().misses))\n"
    ) == 0
