"""Import contract: every command but ``validate`` runs without numpy, and
the names of the lazy group load together on first use."""

import codecs
import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import wellpi

from helpers import write_measurements
from test_fitting import fit_params

SRC = str(Path(wellpi.__file__).resolve().parent.parent)
NUMPY_MODULES = ("wellpi.validation", "wellpi.fitting", "wellpi.checks")


def run_fresh(code: str):
    """Run ``code`` in a fresh interpreter, with warnings as errors and this
    wellpi first on the path; return what it printed, parsed as JSON."""
    prelude = f"import json, sys\nsys.path.insert(0, {SRC!r})\n"
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", prelude + code],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_pi_commands_and_reference_load_import_no_numpy(tmp_path):
    # a config file, here one with a UTF-8 byte-order mark, goes through base_scenario
    config = tmp_path / "bom.cfg"
    config.write_bytes(codecs.BOM_UTF8 + b"geometry.r_e = 500\nregime.preset = DDpD\n")
    measured = tmp_path / "measured.csv"
    write_measurements(measured, fit_params(), np.geomspace(1e-9, 1e-6, 20))
    got = run_fresh(
        "import contextlib, io\n"
        "from wellpi.cli import main\n"
        "from wellpi.reference import load_reference_entries\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'numpy' or m in %r)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(['pi']), main(['pi', '--config', %r]), main(['table', '1']),\n"
        "             main(['sweep', '--axis', 'q_over_h', '--values', '1e-4,1e-3'])]\n"
        "    entries = len(load_reference_entries())\n"
        "    after_pi = loaded()\n"
        "    codes.append(main(['sweep', '--axis', 'q_over_h', '--log-range', '1e-4,1e-2,3']))\n"
        "    after_sweep = loaded()\n"
        "    codes += [main(['fit', %r]), main(['fit', %r, '--emit-model', %r])]\n"
        "print(json.dumps([codes, entries > 0, after_pi, after_sweep, loaded()]))\n"
        % (NUMPY_MODULES, str(config), str(measured), str(measured), str(tmp_path / "model.csv"))
    )
    # fit loads its own module, and nothing else of the lazy group
    assert got == [[0] * 7, True, [], [], ["wellpi.fitting"]]


def test_commands_but_validate_print_the_same_with_numpy_blocked(tmp_path):
    measured = tmp_path / "measured.csv"
    write_measurements(measured, fit_params(), np.geomspace(1e-9, 1e-6, 20))
    argv = [["pi"], ["table", "1"], ["sweep", "--axis", "s", "--values", "0.3,0.7"],
            ["sweep", "--axis", "q_over_h", "--log-range", "1e-6,1,40"],
            ["fit", str(measured), "--emit-model", str(tmp_path / "model.csv")]]
    code = (
        "import contextlib, io, pathlib\n"
        "from wellpi.cli import main\n"
        "runs = []\n"
        "for argv in %r:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        runs.append([main(argv), out.getvalue()])\n"
        "runs.append(pathlib.Path(%r).read_text())\n"
        "print(json.dumps(runs))\n" % (argv, str(tmp_path / "model.csv"))
    )
    blocked = run_fresh("sys.modules['numpy'] = None\n" + code)
    assert [run[0] for run in blocked[:-1]] == [0] * len(argv)
    assert blocked == run_fresh(code)


def test_every_export_resolves_in_a_fresh_interpreter():
    got = run_fresh(
        "import wellpi\n"
        "before = 'numpy' in sys.modules\n"
        "listed = set(wellpi.__all__) <= set(dir(wellpi))\n"
        "missing = [n for n in wellpi.__all__ if getattr(wellpi, n, None) is None]\n"
        "namespace = {}\n"
        "exec('from wellpi import *', namespace)\n"
        "print(json.dumps([before, listed, missing, sorted(set(wellpi.__all__) - set(namespace))]))\n"
    )
    assert got == [False, True, [], []]


def test_dir_lists_lazy_names_and_submodules():
    names = dir(wellpi)
    for name in ("pi_from_profile", "StepSizeUnderflow", "fit_segments", "FitResult",
                 "validation", "fitting", "checks"):
        assert name in names


def test_all_lists_exactly_the_exports():
    # an export dropped from only one of its two lists (the import or the
    # lazy table, and __all__) fails here
    public = {
        name for name, value in vars(wellpi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(wellpi.__all__) == sorted(public | set(wellpi._LAZY_EXPORTS) | {"__version__"})


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wellpi.no_such_name
    assert not hasattr(wellpi, "numpy")


def test_one_lazy_name_loads_the_whole_numpy_group():
    got = run_fresh(
        "import wellpi\n"
        "before = [m in sys.modules for m in %r]\n"
        "from wellpi import pi_from_profile\n"
        "after = [m in sys.modules for m in %r]\n"
        "bound = wellpi.pi_from_profile is wellpi.validation.pi_from_profile\n"
        "print(json.dumps([before, after, bound, wellpi.checks.__name__]))\n"
        % (NUMPY_MODULES, NUMPY_MODULES)
    )
    assert got == [[False] * 3, [True] * 3, True, "wellpi.checks"]


def test_quadrature_loads_its_engine_on_the_first_oracle_call():
    # the closed forms carry none of the oracle's numpy engine, which lives
    # in validation; integrate_adaptive imports it when it first runs
    got = run_fresh(
        "import wellpi.quadrature as q\n"
        "loaded = lambda: [m in sys.modules for m in ('numpy', 'wellpi.validation')]\n"
        "before = loaded()\n"
        "engine = [hasattr(q, n) for n in ('_integrate_batch', '_panels', '_rule')]\n"
        "import wellpi\n"
        "value = wellpi.integrate_adaptive(lambda x: x, 0.0, 1.0).value\n"
        "print(json.dumps([before, engine, value, loaded()]))\n"
    )
    assert got == [[False, False], [False] * 3, 0.5, [True, True]]


def test_commands_run_without_the_test_extras(tmp_path):
    # mpmath and hypothesis are test extras only: an import of either from
    # wellpi fails here, while a CI job that installs `.[test]` would pass
    csv_path = str(tmp_path / "measured.csv")
    got = run_fresh(
        "sys.modules['mpmath'] = sys.modules['hypothesis'] = None\n"
        "import contextlib, io\n"
        "import numpy as np\n"
        "from wellpi import base_scenario, synthesize_measurements\n"
        "from wellpi.cli import main\n"
        "params = base_scenario('D', s=0.6562, v_D=5e-8).params\n"
        "data = synthesize_measurements(params, np.geomspace(1e-9, 1e-6, 20), noise_rel=0.01)\n"
        "with open(%r, 'w') as fh:\n"
        "    fh.write('v_m_per_s,grad_p_pa_per_m\\n')\n"
        "    fh.writelines(f'{m.v!r},{m.grad_p!r}\\n' for m in data)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [main(['validate']), main(['table', '1']),\n"
        "             main(['sweep', '--axis', 's', '--log-range', '0.1,0.9,3']), main(['fit', %r])]\n"
        "print(json.dumps([codes, sys.modules['mpmath'], sys.modules['hypothesis']]))\n"
        % (csv_path, csv_path)
    )
    assert got == [[0, 0, 0, 0], None, None]
