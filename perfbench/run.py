"""Benchmark of wellpi, driven from outside through ``cli.main`` and the library.

Run from the root of a wellpi checkout:

    python3 perfbench/run.py --workload sweep-closed --seed 1 --seconds 30 --trace 0

The seed generates every input (see ``workloads.py``).  The load is a closed
loop: one process, one caller, one thread, each call waiting for the previous
one.  A run

1. times ``setup_s``: fresh interpreters through ``import wellpi.cli`` and the
   reference-table load, median of several;
2. for ``--seconds``, alternates passes over the workload's command list
   with rounds that call library ``compute_pi`` once on every scenario of the
   workload, timing each call, so that both sample the whole run;
3. checks every output outside the timed regions (``correctness.py``).

Every timing is reported at the reference host speed of ``calibrate.py``:
a fixed reference is timed next to each timed region (a kernel after each
stage of a pass and each compute_pi round, a numpy-only interpreter start
next to each set-up start), and a region's raw seconds are scaled by the
reference times around it.  The host is shared and its speed drifts by tens
of percent over minutes; the report gives the raw medians and the host-speed
factor too.  ``setup_s``, ``wall_s`` and ``pi_per_s`` are medians over
starts and passes; a scenario's latency is the median of its calls, and
``pi_p50_us`` / ``pi_p99_us`` are percentiles over the scenarios.

With ``--trace 1`` the passes run under the span tracer of ``tracer.py``
instead and the run reports per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

TRACE_EXTRA = (("trace.spans", "count"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"))

#: Share of --seconds spent on command passes; compute_pi rounds take the rest.
PASS_SHARE = {"sweep-closed": 0.5, "sweep-predarcy": 0.5, "reproduce": 0.8}
#: Share of --seconds spent on untraced passes in a traced run.
UNTRACED_SHARE = 0.3
MIN_ROUNDS = 3
SETUP_REPEATS = 9
#: The stage whose rows pi_per_s counts.
PI_STAGE = {"sweep-closed": "sweep", "sweep-predarcy": "sweep", "reproduce": "table"}

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import wellpi.cli; "
    "from wellpi.reference import load_reference_entries; load_reference_entries()"
)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="self-test: make one operation fail (validate --inject-fault "
                             "on reproduce, a perturbed sweep row otherwise)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _load_program(root: Path):
    """Import wellpi from the checkout's src/, and nowhere else."""
    package = root / "src" / "wellpi"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from the root of a wellpi checkout")
    sys.path.insert(0, str(root / "src"))
    import wellpi
    import wellpi.cli

    if Path(wellpi.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported wellpi from {wellpi.__file__}, not {package}")
    return wellpi


class HostSpeed:
    """Calibration kernel timings between timed regions.

    ``factor()``, called right after a region, times the kernel again and
    returns REFERENCE_S over the mean of the kernel times just before and
    just after the region: the factor that turns the region's raw seconds
    into seconds at the reference host speed.
    """

    def __init__(self) -> None:
        from calibrate import REFERENCE_S, kernel_seconds

        self._reference, self._kernel = REFERENCE_S, kernel_seconds
        self._last = kernel_seconds()

    def factor(self) -> float:
        now = self._kernel()
        factor = self._reference / (0.5 * (self._last + now))
        self._last = now
        return factor


def measure_setup(root: Path) -> tuple[list[float], list[float], int]:
    """Seconds of fresh interpreters through import and the reference load.

    Each start is paired with a start of the calibration interpreter
    (``calibrate.START_CODE``) and put at the reference host speed by it.
    The first, untimed pair compiles the bytecode cache.  Returns the
    timings at the reference speed, the raw timings and the number of
    starts that failed.
    """
    from calibrate import REFERENCE_START_S, START_CODE

    def start(*argv: str) -> float | None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return None
        return time.perf_counter() - t0

    times, raw, failed = [], [], 0
    for i in range(SETUP_REPEATS + 1):
        elapsed = start("-c", _SETUP_CODE, str(root / "src"))
        reference = start("-c", START_CODE)
        failed += (elapsed is None) + (reference is None)
        if i > 0 and elapsed is not None and reference is not None:
            times.append(elapsed * REFERENCE_START_S / reference)
            raw.append(elapsed)
    return times, raw, failed


def run_command(cli, argv: list[str]):
    """Run one CLI command in-process; returns (Outcome, seconds)."""
    from correctness import Outcome

    stdout, stderr = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an escaped exception is a failed operation, not the end of the run
            rc, error = None, repr(exc)
        elapsed = time.perf_counter() - t0
    if rc != 0 and not error:
        error = stderr.getvalue().strip()
    return Outcome(rc, error, stdout.getvalue()), elapsed


def run_pass(plan, wellpi, fault: bool, speed: HostSpeed):
    """One pass over the plan's commands and library calls.

    The calibration kernel runs after each stage (a run of commands of one
    kind, or the compressible sweep), so each stage is put at the reference
    host speed by the kernel times around it.  The pass's wall time is the
    sum of its stages.
    """
    from correctness import PassRecord, max_deviation
    from workloads import COMPRESS_GAMMAS

    cli, validation = wellpi.cli, wellpi.validation
    stage_s: dict[str, float] = {}
    stage_ref_s: dict[str, float] = {}
    outcomes, deviations = [], []
    for stage, cmds in itertools.groupby(plan.commands, key=lambda c: c.stage):
        elapsed = 0.0
        for cmd in cmds:
            argv = cmd.argv + (["--inject-fault"] if fault and stage == "validate" else [])
            outcome, seconds = run_command(cli, argv)
            elapsed += seconds
            outcomes.append(outcome)
        stage_s[stage] = elapsed
        stage_ref_s[stage] = elapsed * speed.factor()
    if plan.compress:
        t0 = time.perf_counter()
        for case in plan.compress:
            devs = []
            for gamma in COMPRESS_GAMMAS:
                try:
                    _, v_gamma = validation.compressible_velocity(case.scenario, gamma, case.radii)
                    devs.append(max_deviation(v_gamma, case.v_incompressible))
                except (ValueError, RuntimeError):  # StepSizeUnderflow is a RuntimeError
                    devs.append(math.nan)
            deviations.append(devs)
        stage_s["compress"] = time.perf_counter() - t0
        stage_ref_s["compress"] = stage_s["compress"] * speed.factor()
    for cmd, outcome in zip(plan.commands, outcomes):  # outside the timed region
        if cmd.out and os.path.exists(cmd.out):
            outcome.output = Path(cmd.out).read_bytes()
            os.remove(cmd.out)
        outcome.digest = hashlib.sha256(outcome.stdout.encode() + b"\0" + outcome.output).digest()
    return PassRecord(stage_s, stage_ref_s, outcomes, deviations)


def _keep_digests_only(record) -> None:
    for outcome in record.outcomes:
        outcome.stdout, outcome.output = "", b""


def run_passes(plan, wellpi, seconds: float, fault: bool, tracer):
    """Passes until `seconds` have gone (at least one), with the layer
    metrics of each, times at the reference host speed, when a tracer is
    given.  Passes after the first keep only the digest of their outputs."""
    speed = HostSpeed()
    passes, layers = [], []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        record = run_pass(plan, wellpi, fault, speed)
        if tracer is not None:
            metrics = tracer.layer_metrics()
            for name in metrics:
                if name.endswith("_s"):
                    metrics[name] *= record.wall_ref_s / record.wall_s
            metrics["trace.spans"] = len(tracer.spans)
            layers.append(metrics)
            tracer.reset()
        if passes:
            _keep_digests_only(record)
        passes.append(record)
    return passes, layers


def compute_pi_round(scenarios, compute_pi) -> array:
    """Nanoseconds of one compute_pi call on every scenario, in order; nan
    where the call raised."""
    clock = time.perf_counter_ns
    out = array("d", bytes(8 * len(scenarios)))
    for k, scn in enumerate(scenarios):
        t0 = clock()
        try:
            compute_pi(scn)
        except (ValueError, RuntimeError):  # QuadratureError is a RuntimeError
            out[k] = math.nan
            continue
        out[k] = clock() - t0
    return out


def run_interleaved(plan, wellpi, seconds: float, share: float, fault: bool):
    """Passes and compute_pi rounds, interleaved over `seconds` so that both
    sample the whole run, with passes taking `share` of the time.

    At least one pass and MIN_ROUNDS rounds.  Returns the passes (after the
    first with only output digests) and the rounds as (host-speed factor,
    nanoseconds per scenario) pairs.
    """
    speed = HostSpeed()
    passes, rounds = [], []
    pass_s = round_s = 0.0
    t_end = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        if now >= t_end and passes and len(rounds) >= MIN_ROUNDS:
            return passes, rounds
        if not passes or (now < t_end and pass_s <= share * (pass_s + round_s)):
            record = run_pass(plan, wellpi, fault, speed)
            pass_s += record.wall_s
            if passes:
                _keep_digests_only(record)
            passes.append(record)
        else:
            t0 = time.perf_counter()
            ns = compute_pi_round(plan.latency, wellpi.compute_pi)
            round_s += time.perf_counter() - t0
            rounds.append((speed.factor(), ns))


def _emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def _ops(passes) -> tuple[int, int, list[str]]:
    """Commands and library calls attempted and failed across passes, with
    the first errors."""
    attempted = failed = 0
    errors: list[str] = []
    for p in passes:
        for outcome in p.outcomes:
            attempted += 1
            if outcome.rc != 0:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"exit {outcome.rc}: {outcome.error[:300]}")
        for devs in p.deviations:
            attempted += len(devs)
            failed += sum(math.isnan(d) for d in devs)
    return attempted, failed, errors


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    wellpi = _load_program(root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; expected one of {WORKLOADS}")

    print(f"perfbench: wellpi {wellpi.__version__}, workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("load: closed loop; 1 process, 1 caller, 1 thread; each call waits for the previous one")

    work_parent = root / ".perfbench_work"
    work_parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent)
    try:
        return _run(args, root, wellpi, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_parent.rmdir()


def _run(args, root: Path, wellpi, workdir: str) -> int:
    from correctness import check_run
    from tracer import Tracer
    from workloads import make_plan

    attempted = failed = 0
    if not args.trace:
        setup = measure_setup(root)
        attempted += 2 * (SETUP_REPEATS + 1)
        failed += setup[2]

    plan = make_plan(args.workload, args.seed, workdir)
    t_start = time.perf_counter()
    if args.trace:
        passes, _ = run_passes(plan, wellpi, UNTRACED_SHARE * args.seconds, args.inject_fault, None)
        tracer = Tracer()
        tracer.install()
        try:
            remaining = args.seconds - (time.perf_counter() - t_start)
            traced, layers = run_passes(plan, wellpi, remaining, args.inject_fault, tracer)
        finally:
            tracer.uninstall()
        all_passes = passes + traced
    else:
        passes, rounds = run_interleaved(
            plan, wellpi, args.seconds, PASS_SHARE[args.workload], args.inject_fault)
        all_passes = passes
        attempted += len(rounds) * len(plan.latency)
        failed += sum(math.isnan(t) for _, ns in rounds for t in ns)

    ops_attempted, ops_failed, errors = _ops(all_passes)
    attempted += ops_attempted
    failed += ops_failed
    checks = check_run(plan, all_passes, wellpi.pi_from_energy,
                       len(wellpi.load_reference_entries()), fault=args.inject_fault)
    if args.trace:
        counted = [{k: v for k, v in m.items() if not k.endswith(("_s", ".useful_ratio"))} for m in layers]
        checks.append(("trace-counts-repeat", all(c == counted[0] for c in counted),
                       f"{len(counted)} traced passes"))
    attempted += len(checks)
    failed += sum(not ok for _, ok, _ in checks)

    print(f"passes: {len(all_passes)}" + (f" ({len(passes)} untraced, {len(traced)} traced)"
                                          if args.trace else ""))
    for line in errors:
        print(f"error: {line}")
    for name, ok, detail in checks:
        if not ok:
            print(f"FAIL {name}: {detail}")
    print(f"checks: {sum(ok for _, ok, _ in checks)}/{len(checks)} passed")

    if args.trace:
        metrics = _layer_report(layers, passes, traced)
    else:
        metrics = _end_to_end_report(plan, passes, setup, rounds)
    print(f"failed_frac       {failed / attempted:<14.6g}fraction  "
          f"{failed} of {attempted} operations (commands, calls, checks)")
    _emit(failed == 0, attempted, failed, metrics)
    return 0


def _median_or_nan(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _end_to_end_report(plan, passes, setup, rounds):
    from wellpi import preset_name

    stage = PI_STAGE[plan.name]
    # one CSV row per PI; the header line is not one
    rows = sum(max(o.output.count(b"\n") - 1, 0)
               for cmd, o in zip(plan.commands, passes[0].outcomes) if cmd.stage == stage)
    med = statistics.median
    walls = [p.wall_ref_s for p in passes]
    rates = [rows / p.stage_ref_s[stage] for p in passes]
    # per scenario: the median of its calls at the reference host speed, in us
    lat_by_scn = [_median_or_nan([ns[k] * f / 1e3 for f, ns in rounds if not math.isnan(ns[k])])
                  for k in range(len(plan.latency))]
    lat = [t for t in lat_by_scn if not math.isnan(t)]
    metrics = {
        "setup_s": (med(setup[0]), "s"),
        "wall_s": (med(walls), "s"),
        "pi_per_s": (med(rates), "1/s"),
        "pi_p50_us": (med(lat), "us"),
        "pi_p99_us": (statistics.quantiles(lat, n=100)[98], "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    n = len(lat)
    notes = {
        "setup_s": f"median of {len(setup[0])} fresh interpreters; raw median {med(setup[1]):.6g} s",
        "wall_s": f"median of {len(passes)} passes; raw median {med(p.wall_s for p in passes):.6g} s",
        "pi_per_s": f"{rows} {stage} rows per pass, median pass",
        "pi_p50_us": f"library compute_pi, median of {len(rounds)} calls per scenario, "
                     f"over {n} scenarios",
        "pi_p99_us": f"{n} scenarios, {n - math.ceil(0.99 * n)} beyond p99",
        "peak_rss_mb": "peak resident set of this process",
    }
    print("end-to-end (tracing off; times at the reference host speed):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16}{value:<14.6g}{unit:<5} {notes[name]}")
    print(f"host speed: median factor {med(p.wall_ref_s / p.wall_s for p in passes):.4g} "
          "(reference seconds per raw second)")
    print("stages (median seconds per pass):")
    for name in sorted(passes[0].stage_s):
        print(f"  {name + '_s':<16}{med(p.stage_ref_s[name] for p in passes):<14.6g}s")
    print("compute_pi p50 by regime:")
    by_regime: dict[str, list[float]] = {}
    for scn, t in zip(plan.latency, lat_by_scn):
        if not math.isnan(t):
            by_regime.setdefault(preset_name(scn.regime), []).append(t)
    for name, values in by_regime.items():
        print(f"  {name:<16}{med(values):<14.6g}us    {len(values)} scenarios")
    return metrics


def _layer_report(layers, untraced, traced):
    from tracer import per_layer_names

    med = statistics.median
    metrics = {}
    for name, unit in per_layer_names() + list(TRACE_EXTRA):
        if name == "trace.wall_s":
            value = med(p.wall_ref_s for p in traced)
        elif name == "trace.overhead_s":
            value = med(p.wall_ref_s for p in traced) - med(p.wall_ref_s for p in untraced)
        elif name.endswith("_s"):
            value = med(m[name] for m in layers)
        else:
            value = layers[0][name]
        metrics[name] = (value, unit)
    print(f"per layer (traced; per pass; times at the reference host speed, median of "
          f"{len(traced)} traced passes; self = span minus child spans; checks.* inclusive):")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52}{value:<14.6g}{unit}")
    print("wait time: none; the program runs one thread and nothing waits on another thread")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
