"""Command-line interface: single-run PI, sweeps, table reproduction,
self-validation and measurement fitting.

Scenario parameters come from built-in defaults, overridden by an optional
flat key/value config file, overridden in turn by command-line flags.  The
config key and flag of each of the ten scalar fields (geometry, flow
parameters, flux) come from one table, ``_SCENARIO_FIELDS``; their defaults
are those of ``reference.base_scenario``.  All
CSV output is UTF-8 with a header row, ``.`` decimal separator and
scientific notation with nine significant digits; identical inputs
produce byte-identical output.  One writer, ``_write_csv``, serves
``pi --out``, ``sweep``, ``table`` and ``fit --emit-model``: every row is
computed before the first byte is written, and an output path that cannot
be written, the empty path included, is a configuration error.  ``pi --out``
writes the one-point sweep of its scenario, row for row.

Exit codes: 0 success, 1 validation failure, 2 configuration error or a
stdout that cannot be written, 3 numerical failure, 141 stdout closed before
the output was written (as a shell reports a command ended by SIGPIPE).
A stderr that cannot be written loses its messages and changes no exit code.
``sweep`` checks every axis value before it computes any PI, so a rejected
value exits 2 whatever a PI at another value would do.

Only ``validate`` imports numpy, for its independent oracle; ``pi``,
``sweep``, ``table`` and ``fit`` run on the standard library.
"""

from __future__ import annotations

import argparse
import codecs
import errno
import functools
import math
import os
import sys
from dataclasses import replace
from typing import Sequence

from . import __version__
from .constitutive import (
    LAW_LABELS, REGIME_PRESETS, RegimeAssignment, ZoneLaw, preset_name, regime_preset,
)
from .kinematics import Scenario, checked_flux
from .productivity import compute_curve, compute_pi, zone_contributions
from .reference import REPRODUCTION_RTOL, base_scenario, compare_table

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141  # what a shell reports for a command ended by SIGPIPE

_DEFAULT_REGIME = regime_preset("FDpD")

SWEEP_AXES = ("q_over_h", "s", "v_D", "v_F")
# Points per compute_curve call of a sweep.  A curve holds every result it
# returns: a 100,000-point q_over_h sweep of five regimes peaked at 319 MB
# taken in one call, and at 187 MB in parts of 100 (257 MB when one part's
# results outlive the next call).  Each part takes its shared brackets again.
_CURVE_POINTS = 100

_SWEEP_COLUMNS = (
    "axis_name", "axis_value", "regime", "s", "v_D", "v_F",
    "q_over_h", "r_F", "r_D", "j_raw", "j_dimensionless",
)
_TABLE_COLUMNS = (
    "table", "regime", "s", "v_D", "q_over_h", "r_e",
    "published", "computed", "rel_deviation", "within_1pct",
)


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

# each law by its label and its value, matched as ``regime_preset`` matches names
_ZONE_LAW_NAMES = {name.lower().replace("-", ""): law
                   for law, label in LAW_LABELS.items() for name in (label, law.value)}


def _config_value(key: str, text: str) -> float | RegimeAssignment | ZoneLaw:
    if key in _SCALAR_KEYS:
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{key}: not a number: {text!r}") from None
    if key == "regime.preset":
        return regime_preset(text)
    if key not in _ZONE_KEYS:
        raise ValueError(f"unknown key {key!r}")
    law = _ZONE_LAW_NAMES.get(text.lower().replace("-", ""))
    if law is None:
        raise ValueError(f"{key}: unknown zone law {text!r}")
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
        raise ValueError(f"cannot read config file {path!r}: {exc}") from None
    out = {}
    for lineno, line in enumerate(lines, start=1):
        try:  # a UnicodeDecodeError is a ValueError
            text = line.decode("utf-8").split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"expected 'key = value', got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            out[key] = _config_value(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def build_scenario(args: argparse.Namespace) -> Scenario:
    """Defaults of ``base_scenario`` < config file < command-line flags.

    A command without ``--regime`` (``sweep``, whose presets come from
    ``--regimes``) would not use a regime, so a config file that sets one
    is a configuration error there.
    """
    config = load_config_file(args.config) if args.config is not None else {}
    values = {field: config[key] for field, key, _, _ in _SCENARIO_FIELDS if key in config}
    for field, _, _, _ in _SCENARIO_FIELDS:
        if getattr(args, field) is not None:
            values[field] = getattr(args, field)
    regime = config.get("regime.preset", _DEFAULT_REGIME)
    zone_laws = {key.split(".", 1)[1]: config[key] for key in _ZONE_KEYS if key in config}
    if zone_laws:
        regime = replace(regime, **zone_laws)
    if "regime" not in args:
        regime_keys = [key for key in ("regime.preset", *_ZONE_KEYS) if key in config]
        if regime_keys:
            raise ValueError(f"{args.config}: {regime_keys[0]} is not used by sweep; "
                             f"name its regime presets with --regimes")
    elif args.regime is not None:  # the whole regime, over the file's preset and zone laws
        regime = regime_preset(args.regime)
    return base_scenario(regime, args.continuous_predarcy, **values)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

class _StdoutError(Exception):
    """Writing stdout failed with the OSError in ``__cause__``."""


def _to_null_device(stream) -> None:
    """Point the file descriptor of ``stream`` at the null device, so that
    what is still buffered for it cannot fail again in the interpreter's
    final flush; a stream that is None (its fd was closed at start) has no
    buffer and is left alone."""
    if stream is None:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _write_stderr(text: str) -> None:
    """Write ``text`` to stderr if it can be written; the exit code does not
    depend on it.

    A stderr that is closed (None when the interpreter started without fd 2)
    or full loses the text, and a failed write sends fd 2 to the null device.
    """
    err = sys.stderr
    if err is None:
        return
    try:
        err.write(text)
        err.flush()
    except OSError:
        _to_null_device(err)


def _write_stdout(*texts: str) -> None:
    """Write ``texts`` to stdout in order and flush it; a failed write raises
    _StdoutError from its OSError.

    Each text is encoded on its own, so no copy of them all is made, and its
    bytes go to the binary layer until it has taken them all: an unbuffered
    stdout takes only part of a write to a pipe whose reader has gone, and its
    text layer ignores the count.  A stdout without a binary layer, such as a
    StringIO, gets the texts as they are.  A stdout that is None, as the
    interpreter sets it when fd 1 is closed at start, is a closed pipe.
    """
    out = sys.stdout
    if out is None:
        raise _StdoutError from BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.writelines(texts)
        return
    try:
        out.flush()
        for text in texts:
            data = memoryview(text.encode(out.encoding, out.errors))
            while data:
                data = data[buffer.write(data):]
        buffer.flush()
    except OSError as exc:
        raise _StdoutError from exc


def _write_csv(columns: Sequence[str], rows: Sequence[str], out_path: str | None) -> None:
    """Write the header of ``columns`` and then ``rows``, each whole lines of
    text, to the file ``out_path``, or to stdout when it is None.

    The rows are computed before the call, so a command that fails in them
    writes nothing.  A path that cannot be written, the empty path included,
    raises ValueError.
    """
    header = ",".join(columns) + "\n"
    if out_path is None:
        _write_stdout(header, *rows)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            fh.writelines(rows)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path!r}: {exc}") from None


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
    _write_stdout("\n".join(lines) + "\n")
    if args.out is not None:
        _write_csv(_SWEEP_COLUMNS, run_sweep(scn, "q_over_h", [scn.q_over_h], [scn.regime], False),
                   args.out)
    return EXIT_OK


def _geomspace(start: float, stop: float, count: int) -> list[float]:
    """``count`` log-spaced values from ``start`` to ``stop``, both positive
    and finite: the ends exactly, and between them numpy.geomspace's points,
    ``10 ** (log10(start) + i * step)``, up to the last bit of ``pow``.

    The list is made first, so a count that does not fit raises OverflowError
    or MemoryError before any point is computed.  The ends are never raised
    from their logarithms, which overflow at the float maximum.
    """
    values = [start] * count
    if count > 1:
        log_start = math.log10(start)
        step = (math.log10(stop) - log_start) / (count - 1)
        for i in range(1, count - 1):
            try:
                values[i] = 10.0 ** (i * step + log_start)
            except OverflowError:  # a point between two ends at the float maximum
                values[i] = max(start, stop)
        values[-1] = stop
    return values


def _axis_values(args: argparse.Namespace) -> list[float]:
    if args.values is not None:
        try:
            values = [float(tok) for tok in args.values.split(",") if tok.strip()]
        except ValueError as exc:
            raise ValueError(f"--values: {exc}") from None
    else:
        try:
            start_s, stop_s, count_s = args.log_range.split(",")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
        except ValueError:
            raise ValueError(
                f"--log-range: expected 'start,stop,points', got {args.log_range!r}"
            ) from None
        if not (0 < start < math.inf and 0 < stop < math.inf and count >= 1):
            raise ValueError(
                "--log-range: start and stop must be positive and finite, points >= 1"
            )
        try:
            values = _geomspace(start, stop, count)
        except (OverflowError, MemoryError):  # a count beyond the index range or memory
            raise ValueError(f"--log-range: {count} points do not fit in memory") from None
    if not values:
        raise ValueError("sweep needs at least one axis value")
    return values


def run_sweep(base: Scenario, axis: str, values: Sequence[float],
              regimes: Sequence[RegimeAssignment], continuous_predarcy: bool) -> list[str]:
    """CSV rows of the sweep, one text per axis value with one row per regime
    in it: one ``compute_curve`` point (q_over_h, params) per value, all
    checked first, and one curve per _CURVE_POINTS points.  Each cell that
    does not change from one point to the next is formatted once, and the
    regimes of a point share its partition, so every cell but the regime and
    the PI itself is formatted once per point.
    """
    names = [preset_name(regime) for regime in regimes]
    points = []
    for value in values:
        try:
            if axis == "q_over_h":
                points.append((checked_flux(value), base.params))
            else:
                params = replace(base.params, **{axis: value})
                if continuous_predarcy:  # at the point's own s and v_D, as `pi` rescales
                    params = params.with_continuous_predarcy()
                points.append((base.q_over_h, params))
        except ValueError as exc:
            raise ValueError(f"axis {axis}={value!r}: {exc}") from None
    rows = []
    q_cell = _fmt(base.q_over_h)
    last = None
    for k in range(0, len(points), _CURVE_POINTS):
        chunk = points[k:k + _CURVE_POINTS]
        for value, (_, params), pis in zip(values[k:k + _CURVE_POINTS], chunk,
                                           compute_curve(base.geometry, regimes, chunk)):
            axis_cell = _fmt(value)
            if axis == "q_over_h":
                q_cell = axis_cell
            if params is not last:  # '%.8e' % x is the conversion of _fmt
                last, params_cells = params, "%.8e,%.8e,%.8e" % (params.s, params.v_D, params.v_F)
            part = pis[0].zone_partition
            head = "%s,%s," % (axis, axis_cell)
            shared = "%s,%s,%.8e,%.8e" % (params_cells, q_cell, part.r_F, part.r_D)
            rows.append("".join(
                "%s%s,%s,%.8e,%.8e\n" % (head, name, shared, pi.j_raw, pi.j_dimensionless)
                for name, pi in zip(names, pis)
            ))
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    base = build_scenario(args)
    values = _axis_values(args)
    regimes = [regime_preset(tok.strip()) for tok in args.regimes.split(",") if tok.strip()]
    if not regimes:
        raise ValueError("sweep needs at least one regime preset")
    rows = run_sweep(base, args.axis, values, regimes, args.continuous_predarcy)
    _write_csv(_SWEEP_COLUMNS, rows, args.out)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    comparisons = compare_table(args.table, continuous_predarcy=args.continuous_predarcy)
    rows = []
    flagged = 0
    for comp in comparisons:
        e = comp.entry
        ok = comp.within_tolerance
        flagged += 0 if ok else 1
        rows.append(",".join((
            str(e.table), e.regime, _fmt(e.s), _fmt(e.v_d), _fmt(e.q_over_h),
            _fmt(e.r_e), _fmt(e.published), _fmt(comp.computed),
            _fmt(comp.rel_deviation), "yes" if ok else "NO",
        )) + "\n")
    _write_csv(_TABLE_COLUMNS, rows, args.out)
    _write_stderr(
        f"table {args.table}: {len(comparisons)} entries, {flagged} beyond "
        f"{REPRODUCTION_RTOL:.0%} relative deviation\n"
    )
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    from . import checks

    results = checks.run_all(inject_fault=args.inject_fault)
    failed = sum(not res.passed for res in results)
    lines = [
        f"{'PASS' if res.passed else 'FAIL'} {res.name}: "
        f"measured={res.measured:.6e} tolerance={res.tolerance}\n"
        for res in results
    ]
    lines.append(f"{len(results) - failed}/{len(results)} validation properties passed\n")
    _write_stdout("".join(lines))
    return EXIT_OK if failed == 0 else EXIT_VALIDATION


def cmd_fit(args: argparse.Namespace) -> int:
    from .fitting import CSV_COLUMNS, fit_segments, model_curve, read_measurements_csv

    try:
        data = read_measurements_csv(args.input_csv)
    except OSError as exc:
        raise ValueError(f"cannot read {args.input_csv!r}: {exc}") from None
    fit = fit_segments(data)
    slope = ("undefined  (the Darcy segment has one velocity)" if math.isnan(fit.darcy_slope)
             else f"{fit.darcy_slope:.6g}  (unconstrained diagnostic)")
    lines = [
        f"s_hat             = {fit.s_hat:.6g}",
        f"lambda_hat        = {_fmt(fit.lambda_hat)}",
        f"alpha_hat         = {_fmt(fit.alpha_hat)}",
        f"v_D_hat           = {_fmt(fit.v_D_hat)}",
        f"sse_total         = {_fmt(fit.sse_total)}",
        f"points_per_segment= {fit.points_per_segment[0]},{fit.points_per_segment[1]}",
        f"darcy_slope       = {slope}",
    ]
    if fit.no_breakpoint:
        lines.append("note: single Darcy segment explains the data; no breakpoint reported")
    _write_stdout("\n".join(lines) + "\n")
    if args.emit_model is not None:
        v_values = _geomspace(min(m.v for m in data), max(m.v for m in data), 200)
        rows = [f"{_fmt(v)},{_fmt(grad_p)}\n" for v, grad_p in model_curve(fit, v_values)]
        _write_csv(CSV_COLUMNS, rows, args.emit_model)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_scenario_options(sub: argparse.ArgumentParser) -> argparse._ArgumentGroup:
    sub.add_argument("--config", metavar="PATH", help="flat key = value config file")
    grp = sub.add_argument_group("scenario overrides")
    for field, _, flag, help_text in _SCENARIO_FIELDS:
        grp.add_argument(flag, dest=field, type=float, help=help_text)
    grp.add_argument("--continuous-predarcy", action="store_true",
                     help="rescale lambda to alpha*v_D^s so the law is continuous at v_D")
    return grp


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose stdout text (``--help``, ``--version``) goes
    through ``_write_stdout``, so a failed write reaches ``main`` as every
    other command's does; its subparsers are of the same class."""

    def _print_message(self, message: str, file=None) -> None:
        if message and file is sys.stdout:
            _write_stdout(message)
        else:
            super()._print_message(message, file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``wellpi`` argument parser, built on the first call.

    Every later call in the process returns the same parser, so ``main``
    builds it once however often it is called.  It is shared: callers must
    not change it (add arguments, set defaults).
    """
    parser = _Parser(
        prog="wellpi",
        description="Pseudo-steady-state well productivity index under "
                    "composite pre-Darcy / Darcy / Forchheimer flow.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_pi = subs.add_parser("pi", help="compute the PI for one scenario")
    _add_scenario_options(p_pi).add_argument(
        "--regime", help=f"zone-law preset ({', '.join(REGIME_PRESETS)})"
    )
    p_pi.add_argument("--raw", action="store_true", help="lead with the raw SI value")
    p_pi.add_argument("--out", metavar="PATH", help="also write a one-row CSV")
    p_pi.set_defaults(func=cmd_pi)

    # no abbreviated flags: `--regime`, which only `pi` has, is not `--regimes`
    p_sweep = subs.add_parser("sweep", help="sweep one parameter axis, CSV output",
                              allow_abbrev=False)
    _add_scenario_options(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    axis_vals = p_sweep.add_mutually_exclusive_group(required=True)
    axis_vals.add_argument("--values", help="comma-separated axis values")
    axis_vals.add_argument("--log-range", dest="log_range",
                           help="START,STOP,POINTS log-spaced axis values")
    p_sweep.add_argument("--regimes", default="D,F,FDD,DDpD,FDpD",
                         help="comma-separated regime presets (default %(default)s)")
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
    try:
        # argparse writes --help and --version inside parse_args
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _StdoutError as exc:
        _to_null_device(sys.stdout)
        if isinstance(exc.__cause__, BrokenPipeError):  # the reader closed stdout early
            return EXIT_BROKEN_PIPE
        _write_stderr(f"error: cannot write to stdout: {exc.__cause__}\n")
        return EXIT_CONFIG
    except ValueError as exc:
        # a ValueError is an input the CLI or the library rejected, e.g. a bad
        # config line, an unknown preset, a Geometry field out of range or too
        # few points to fit; its message already names the value
        _write_stderr(f"error: {exc}\n")
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as exc:
        # QuadratureError and StepSizeUnderflow are RuntimeErrors
        _write_stderr(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
