"""Command-line interface: single-run PI, sweeps, table reproduction,
self-validation and measurement fitting.

Scenario parameters come from built-in defaults, overridden by an optional
flat key/value config file, overridden in turn by command-line flags.  The
config key and flag of each of the ten scalar fields (geometry, flow
parameters, flux) come from one table, ``_SCENARIO_FIELDS``; their defaults
are those of ``reference.base_scenario``.  All
CSV output is UTF-8 with a header row, ``.`` decimal separator and
scientific notation with nine significant digits; identical inputs
produce byte-identical output.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure.

``pi``, ``sweep`` with ``--values`` and ``table`` run without numpy; it is
imported only by ``validate``, ``fit`` and ``sweep --log-range``.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import io
import math
import sys
from dataclasses import replace
from typing import Sequence

from . import __version__
from .constitutive import RegimeAssignment, ZoneLaw, preset_name, regime_preset
from .kinematics import Scenario
from .productivity import PiResult, compute_pi, compute_pis, zone_contributions
from .reference import REPRODUCTION_RTOL, base_scenario, compare_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_DEFAULT_REGIME = regime_preset("FDpD")

SWEEP_AXES = ("q_over_h", "s", "v_D", "v_F")

_SWEEP_COLUMNS = (
    "axis_name", "axis_value", "regime", "s", "v_D", "v_F",
    "q_over_h", "r_F", "r_D", "j_raw", "j_dimensionless",
)
_TABLE_COLUMNS = (
    "table", "regime", "s", "v_D", "q_over_h", "r_e",
    "published", "computed", "rel_deviation", "within_1pct",
)


class ConfigError(Exception):
    """Anything wrong with the requested configuration."""


def _fmt(x: float) -> str:
    return f"{x:.8e}"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# One row per scalar scenario field: (field, config key, flag, help).  The
# config keys and the override flags both come from it; each flag's dest is
# the field it overrides, which is also a keyword of ``base_scenario``.
_SCENARIO_FIELDS = (
    ("r_e", "geometry.r_e", "--r-e", "reservoir radius, m"),
    ("r_w", "geometry.r_w", "--r-w", "well radius, m"),
    ("h", "geometry.h", "--h", "reservoir thickness, m"),
    ("alpha", "params.alpha", "--alpha", "Darcy coefficient, Pa*s/m^2"),
    ("beta", "params.beta", "--beta", "Forchheimer coefficient, Pa*s^2/m^3"),
    ("lambda_", "params.lambda", "--lambda", "pre-Darcy coefficient, Pa*s^(1-s)/m^(2-s)"),
    ("s", "params.s", "--s", "pre-Darcy exponent in [0, 1]"),
    ("v_D", "params.v_D", "--v-d", "Darcy/pre-Darcy transition, m/s"),
    ("v_F", "params.v_F", "--v-f", "Darcy/Forchheimer transition, m/s"),
    ("q_over_h", "flow.q_over_h", "--q-over-h", "specific flux Q/h, m^2/s"),
)
_SCALAR_KEYS = {key for _, key, _, _ in _SCENARIO_FIELDS}
# each zone-law key ends in the RegimeAssignment field it sets
_ZONE_KEYS = ("regime.near_well", "regime.middle", "regime.near_boundary")

_ZONE_LAW_NAMES = {
    "darcy": ZoneLaw.DARCY,
    "d": ZoneLaw.DARCY,
    "forchheimer": ZoneLaw.FORCHHEIMER,
    "f": ZoneLaw.FORCHHEIMER,
    "pre-darcy": ZoneLaw.PRE_DARCY,
    "predarcy": ZoneLaw.PRE_DARCY,
    "pd": ZoneLaw.PRE_DARCY,
}


def _config_value(key: str, text: str) -> float | RegimeAssignment | ZoneLaw:
    if key in _SCALAR_KEYS:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{key}: not a number: {text!r}") from None
    if key == "regime.preset":
        return regime_preset(text)
    if key not in _ZONE_KEYS:
        raise ConfigError(f"unknown key {key!r}")
    law = _ZONE_LAW_NAMES.get(text.lower())
    if law is None:
        raise ConfigError(f"{key}: unknown zone law {text!r}")
    return law


def load_config_file(path: str) -> dict[str, float | RegimeAssignment | ZoneLaw]:
    """Flat ``key = value`` file; ``#`` starts a comment.

    Each value is converted as its line is read, to a float, a regime preset
    or a zone law by its key; an error names the file and the line.
    """
    try:
        with open(path, "rb") as fh:
            # a byte-order mark, as some editors save it, is not part of the first key
            lines = fh.read().removeprefix(codecs.BOM_UTF8).splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        try:  # a UnicodeDecodeError is a ValueError
            text = line.decode("utf-8").split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"expected 'key = value', got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            out[key] = _config_value(key, value)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


def build_scenario(args: argparse.Namespace) -> Scenario:
    """Defaults of ``base_scenario`` < config file < command-line flags."""
    config = load_config_file(args.config) if args.config is not None else {}
    values = {field: config[key] for field, key, _, _ in _SCENARIO_FIELDS if key in config}
    for field, _, _, _ in _SCENARIO_FIELDS:
        if getattr(args, field) is not None:
            values[field] = getattr(args, field)
    regime = config.get("regime.preset", _DEFAULT_REGIME)
    if args.regime is not None:
        regime = regime_preset(args.regime)
    zone_laws = {key.split(".", 1)[1]: config[key] for key in _ZONE_KEYS if key in config}
    if zone_laws:
        regime = replace(regime, **zone_laws)
    return base_scenario(regime, args.continuous_predarcy, **values)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out_path!r}: {exc}") from None


def _sweep_rows(axis_name: str, axis_value: float, scn: Scenario,
                pis: list[PiResult], names: list[str]) -> str:
    """CSV rows of one sweep point, one per PI in ``pis`` with its regime name
    from ``names``.  The PIs share the scenario's partition, so every cell
    but the regime and the PI itself is formatted once."""
    part = pis[0].zone_partition
    p = scn.params
    head = f"{axis_name},{_fmt(axis_value)},"
    shared = ",".join((
        _fmt(p.s), _fmt(p.v_D), _fmt(p.v_F), _fmt(scn.q_over_h), _fmt(part.r_F), _fmt(part.r_D),
    ))
    return "".join(
        f"{head}{name},{shared},{_fmt(pi.j_raw)},{_fmt(pi.j_dimensionless)}\n"
        for name, pi in zip(names, pis)
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_pi(args: argparse.Namespace) -> int:
    scn = build_scenario(args)
    pi = compute_pi(scn)
    part = pi.zone_partition
    lines = []
    if args.raw:
        lines.append(f"j_raw             = {pi.j_raw:.4g} ({_fmt(pi.j_raw)}) m^3/(Pa*s)")
        lines.append(f"j_dimensionless   = {_fmt(pi.j_dimensionless)}")
    else:
        lines.append(f"j_dimensionless   = {pi.j_dimensionless:.4g} ({_fmt(pi.j_dimensionless)})")
        lines.append(f"j_raw             = {_fmt(pi.j_raw)} m^3/(Pa*s)")
    lines.append(f"regime            = {preset_name(scn.regime)}")
    lines.append(f"r_F               = {_fmt(part.r_F)} m"
                 + ("  (clamped)" if part.clamped_fast else ""))
    lines.append(f"r_D               = {_fmt(part.r_D)} m"
                 + ("  (clamped)" if part.clamped_slow else ""))
    for label, value in zip(("near_well", "middle", "near_boundary"), zone_contributions(scn)):
        lines.append(f"S_{label:<16}= {_fmt(value)}")
    print("\n".join(lines))
    if args.out:
        rows = _sweep_rows("q_over_h", scn.q_over_h, scn, [pi], [preset_name(scn.regime)])
        csv_text = ",".join(_SWEEP_COLUMNS) + "\n" + rows
        _write_text(csv_text, args.out)
    return EXIT_OK


def _axis_values(args: argparse.Namespace) -> list[float]:
    if args.values is not None:
        try:
            values = [float(tok) for tok in args.values.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"--values: {exc}") from None
    else:
        try:
            start_s, stop_s, count_s = args.log_range.split(",")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
        except ValueError:
            raise ConfigError(
                f"--log-range: expected 'start,stop,points', got {args.log_range!r}"
            ) from None
        if not (0 < start < math.inf and 0 < stop < math.inf and count >= 1):
            raise ConfigError(
                "--log-range: start and stop must be positive and finite, points >= 1"
            )
        import numpy as np

        values = [float(v) for v in np.geomspace(start, stop, count)]
    if not values:
        raise ConfigError("sweep needs at least one axis value")
    return values


def _scenario_with(scn: Scenario, axis: str, value: float, continuous_predarcy: bool) -> Scenario:
    try:
        if axis == "q_over_h":
            return replace(scn, q_over_h=value)
        params = replace(scn.params, **{axis: value})
        if continuous_predarcy:  # at the row's own s and v_D, as `pi` rescales
            params = params.with_continuous_predarcy()
        return replace(scn, params=params)
    except ValueError as exc:
        raise ConfigError(f"axis {axis}={value:g}: {exc}") from None


def run_sweep(base: Scenario, axis: str, values: Sequence[float], regimes: Sequence[str],
              continuous_predarcy: bool) -> str:
    """CSV text for the sweep, one row per (axis value, regime), axis-major."""
    presets = [regime_preset(name) for name in regimes]
    names = [preset_name(preset) for preset in presets]
    buf = io.StringIO()
    buf.write(",".join(_SWEEP_COLUMNS) + "\n")
    for value in values:
        scn = _scenario_with(base, axis, value, continuous_predarcy)
        buf.write(_sweep_rows(axis, value, scn, compute_pis(scn, presets), names))
    return buf.getvalue()


def cmd_sweep(args: argparse.Namespace) -> int:
    base = build_scenario(args)
    values = _axis_values(args)
    regimes = [tok.strip() for tok in args.regimes.split(",") if tok.strip()]
    if not regimes:
        raise ConfigError("sweep needs at least one regime preset")
    _write_text(run_sweep(base, args.axis, values, regimes, args.continuous_predarcy), args.out)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    comparisons = compare_table(args.table, continuous_predarcy=args.continuous_predarcy)
    buf = io.StringIO()
    buf.write(",".join(_TABLE_COLUMNS) + "\n")
    flagged = 0
    for comp in comparisons:
        e = comp.entry
        ok = comp.within_tolerance
        flagged += 0 if ok else 1
        buf.write(",".join((
            str(e.table), e.regime, _fmt(e.s), _fmt(e.v_d), _fmt(e.q_over_h),
            _fmt(e.r_e), _fmt(e.published), _fmt(comp.computed),
            _fmt(comp.rel_deviation), "yes" if ok else "NO",
        )) + "\n")
    _write_text(buf.getvalue(), args.out)
    print(
        f"table {args.table}: {len(comparisons)} entries, {flagged} beyond "
        f"{REPRODUCTION_RTOL:.0%} relative deviation",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from . import checks

    results = checks.run_all(inject_fault=args.inject_fault)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        print(f"{status} {res.name}: measured={res.measured:.6e} tolerance={res.tolerance}")
    print(f"{len(results) - failed}/{len(results)} validation properties passed")
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


def cmd_fit(args: argparse.Namespace) -> int:
    import numpy as np

    from .fitting import CSV_COLUMNS, fit_segments, model_curve, read_measurements_csv

    try:
        data = read_measurements_csv(args.input_csv)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.input_csv!r}: {exc}") from None
    fit = fit_segments(data)
    print(f"s_hat             = {fit.s_hat:.6g}")
    print(f"lambda_hat        = {_fmt(fit.lambda_hat)}")
    print(f"alpha_hat         = {_fmt(fit.alpha_hat)}")
    print(f"v_D_hat           = {_fmt(fit.v_D_hat)}")
    print(f"sse_total         = {_fmt(fit.sse_total)}")
    print(f"points_per_segment= {fit.points_per_segment[0]},{fit.points_per_segment[1]}")
    print(f"darcy_slope       = {fit.darcy_slope:.6g}  (unconstrained diagnostic)")
    if fit.no_breakpoint:
        print("note: single Darcy segment explains the data; no breakpoint reported")
    if args.emit_model:
        v_values = np.geomspace(min(m.v for m in data), max(m.v for m in data), 200)
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for v, grad_p in model_curve(fit, v_values):
            buf.write(f"{_fmt(v)},{_fmt(grad_p)}\n")
        _write_text(buf.getvalue(), args.emit_model)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_scenario_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
    grp = sub.add_argument_group("scenario overrides")
    for field, _, flag, help_text in _SCENARIO_FIELDS:
        grp.add_argument(flag, dest=field, type=float, help=help_text)
    grp.add_argument("--regime", help="zone-law preset (D, F, FDD, DDpD, FDpD, FpDpD, pure-preDarcy)")
    grp.add_argument("--continuous-predarcy", action="store_true",
                     help="rescale lambda to alpha*v_D^s so the law is continuous at v_D")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wellpi`` argument parser, built on the first call.

    Every later call in the process returns the same parser, so ``main``
    builds it once however often it is called.  It is shared: callers must
    not change it (add arguments, set defaults).
    """
    parser = argparse.ArgumentParser(
        prog="wellpi",
        description="Pseudo-steady-state well productivity index under "
                    "composite pre-Darcy / Darcy / Forchheimer flow.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_pi = subs.add_parser("pi", help="compute the PI for one scenario")
    _add_scenario_options(p_pi)
    p_pi.add_argument("--raw", action="store_true", help="lead with the raw SI value")
    p_pi.add_argument("--out", metavar="PATH", help="also write a one-row CSV")
    p_pi.set_defaults(func=cmd_pi)

    p_sweep = subs.add_parser("sweep", help="sweep one parameter axis, CSV output")
    _add_scenario_options(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    axis_vals = p_sweep.add_mutually_exclusive_group(required=True)
    axis_vals.add_argument("--values", help="comma-separated axis values")
    axis_vals.add_argument("--log-range", dest="log_range",
                           help="START,STOP,POINTS log-spaced axis values")
    p_sweep.add_argument("--regimes", default="D,F,FDD,DDpD,FDpD",
                         help="comma-separated regime presets (default D,F,FDD,DDpD,FDpD)")
    p_sweep.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = subs.add_parser("table", help="reproduce a published reference table")
    p_table.add_argument("table", type=int, choices=(1, 2, 3, 4))
    p_table.add_argument("--continuous-predarcy", action="store_true",
                         help="rescale lambda to alpha*v_D^s before computing")
    p_table.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    p_table.set_defaults(func=cmd_table)

    p_val = subs.add_parser("validate", help="run the self-validation suite")
    p_val.add_argument("--inject-fault", dest="inject_fault", action="store_true",
                       help="self-test: perturb the Forchheimer integral by 1e-3 "
                            "so the oracle-equivalence check must fail")
    p_val.set_defaults(func=cmd_validate)

    p_fit = subs.add_parser("fit", help="fit pre-Darcy parameters from a measurement CSV")
    p_fit.add_argument("input_csv", help="CSV with columns v_m_per_s, grad_p_pa_per_m")
    p_fit.add_argument("--emit-model", dest="emit_model", metavar="PATH",
                       help="write the fitted piecewise curve over the data's velocity range")
    p_fit.set_defaults(func=cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        # a ValueError is an input the library rejected, e.g. an unknown
        # preset, a Geometry field out of range or too few points to fit; its
        # message already names the value
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as exc:
        # QuadratureError and StepSizeUnderflow are RuntimeErrors
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
