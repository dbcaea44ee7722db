"""Command-line interface: exit codes, output contracts, determinism."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wellpi
from wellpi import (
    RegimeAssignment,
    ZoneLaw,
    compute_pi,
    load_reference_entries,
    reference_scenario,
    synthesize_measurements,
)
from wellpi.cli import main

from helpers import make_scenario
from test_fitting import fit_params


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
], ids=["huge-flux", "subnormal-h", "tiny-r-w"])
def test_pi_out_of_float_range_is_a_numerical_failure(capsys, argv):
    code, out, err = run_cli(capsys, "pi", *argv)
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_invalid_regime(capsys, tmp_path):
    code, _, err = run_cli(capsys, "pi", "--regime", "bogus")
    assert code == 2
    assert "preset" in err
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text("regime.preset = bogus\n")
    code, out, err = run_cli(capsys, "pi", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown regime preset 'bogus'; expected one of: D, F,")


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
    j = compute_pi(make_scenario(triple)).j_dimensionless
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
    assert err == "error: regime.middle: unknown zone law 'bogus'\n"


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
    expected = compute_pi(make_scenario("FDpD"))
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


def test_sweep_rejects_out_of_range_axis_value(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--axis", "v_D", "--values", "1e-3", "--regimes", "FDpD"
    )
    assert code == 2
    assert "v_D" in err


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


def _cell(x):
    return f"{x:.8e}"


def _expected_sweep(axis, values, regimes):
    """The sweep CSV rebuilt with one compute_pi per row."""
    lines = ["axis_name,axis_value,regime,s,v_D,v_F,q_over_h,r_F,r_D,j_raw,j_dimensionless"]
    for value in values:
        for name in regimes:
            scn = make_scenario(name, **{axis: value})
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
], ids=["clamped-flux-range", "s-with-both-ends", "repeated-preset"])
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
    code, out, err = run_cli(capsys, "sweep", "--axis", "s", "--values", "0.5", "--regimes", ",")
    assert (code, out) == (2, "")
    assert "at least one regime" in err
    code, out, err = run_cli(capsys, "sweep", "--axis", "s", "--values", "0.5", "--regimes", "D,bogus")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown regime preset 'bogus'; expected one of: D, F,")


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

def _write_measurements(path, params, grid):
    data = synthesize_measurements(params, grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("v_m_per_s,grad_p_pa_per_m\n")
        for m in data:
            fh.write(f"{m.v:.16e},{m.grad_p:.16e}\n")


def test_fit_recovers_power(capsys, tmp_path):
    path = tmp_path / "meas.csv"
    _write_measurements(path, fit_params(s=0.5772), np.geomspace(1e-9, 1e-6, 20))
    code, out, _ = run_cli(capsys, "fit", str(path))
    assert code == 0
    assert "s_hat             = 0.5772" in out


def test_fit_emit_model(capsys, tmp_path):
    path = tmp_path / "meas.csv"
    model_path = tmp_path / "model.csv"
    _write_measurements(path, fit_params(), np.geomspace(1e-9, 1e-6, 20))
    code, _, _ = run_cli(capsys, "fit", str(path), "--emit-model", str(model_path))
    assert code == 0
    lines = model_path.read_text().splitlines()
    assert lines[0] == "v_m_per_s,grad_p_pa_per_m"
    assert len(lines) == 201


def test_fit_too_few_points(capsys, tmp_path):
    path = tmp_path / "meas.csv"
    _write_measurements(path, fit_params(), np.geomspace(1e-9, 1e-6, 5))
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


def test_fit_missing_file(capsys):
    code, _, err = run_cli(capsys, "fit", "/nonexistent/data.csv")
    assert code == 2
    assert "data.csv" in err


# ---------------------------------------------------------------------------
# output paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["pi", "sweep", "table", "fit"])
def test_unwritable_output_path_is_a_config_error(tmp_path, command):
    # a fresh interpreter, so that a traceback would show on stderr
    target = str(tmp_path / "missing" / "out.csv")
    measurements = tmp_path / "meas.csv"
    _write_measurements(measurements, fit_params(), np.geomspace(1e-9, 1e-6, 20))
    argv = {
        "pi": ["pi", "--out", target],
        "sweep": ["sweep", "--axis", "s", "--values", "0.5", "--out", target],
        "table": ["table", "1", "--out", target],
        "fit": ["fit", str(measurements), "--emit-model", target],
    }[command]
    src = str(Path(wellpi.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         f"import sys; sys.path.insert(0, {src!r}); from wellpi.cli import main; sys.exit(main())",
         *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert f"error: cannot write '{target}'" in proc.stderr
    assert "Traceback" not in proc.stderr
