"""Seeded inputs for the benchmark workloads.

``make_plan(name, seed, workdir)`` turns a workload name and a seed into a
``Plan``: the ``wellpi`` argv lists to run (with the measurement CSVs they read
already written under ``workdir``), the library calls made next to them, the
scenarios whose ``compute_pi`` latency is timed, and the facts each output is
checked against.  The same seed gives the same plan.  The program itself sees
only the argv lists and the files.

Draws are systematic: the K base scenarios of a run take the values
(i + u) / K of every range, i = 0..K-1, with one seeded offset u per range and
a seeded pairing across ranges.  A run therefore always spans each whole
range, and what a run costs depends little on which seed drew it.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field, replace

import numpy as np

from wellpi import (
    FlowParameters,
    Geometry,
    Scenario,
    load_reference_entries,
    reference_scenario,
    regime_preset,
    synthesize_measurements,
    velocity_profile,
)
from wellpi.reference import BASE_ALPHA, BASE_BETA, BASE_H, BASE_LAMBDA, BASE_R_W, BASE_V_F

WORKLOADS = ("sweep-closed", "sweep-predarcy", "reproduce")

CLOSED_REGIMES = ("D", "F", "FDD")
PREDARCY_REGIMES = ("DDpD", "FDpD", "FpDpD", "pure-preDarcy")

# Base scenarios per run and points per sweep.  Each workload times
# compute_pi on at least MIN_SCENARIOS scenarios, so that 10 or more lie
# beyond the 99th percentile.
MIN_SCENARIOS = 1000
_CLOSED_BASES, _CLOSED_POINTS = 8, 100
_PREDARCY_BASES, _PREDARCY_Q_POINTS = 8, 24
_PREDARCY_S_VALUES = tuple(i / 7 for i in range(8))
_REFERENCE_VARIANTS = 8
_FIT_FILES, _FIT_POINTS, _FIT_NOISE = 4, 48, 0.01
_COMPRESS_CASES = 4
COMPRESS_GAMMAS = (1e-3, 1e-4, 1e-5)


@dataclass
class Command:
    """One ``wellpi`` invocation of a pass.

    stage:     ``sweep``, ``validate``, ``table`` or ``fit``
    out:       CSV the command writes, or None when it prints its result
    scenarios: sweep only, the scenario behind each CSV row, in row order
    truth:     fit only, the seeded ``(s, v_D)`` the fit must recover
    """

    stage: str
    argv: list[str]
    out: str | None = None
    scenarios: list[Scenario] = field(default_factory=list)
    truth: tuple[float, float] | None = None


@dataclass
class CompressCase:
    """One library call set of the compressible sweep: ``compressible_velocity``
    at every gamma in ``COMPRESS_GAMMAS``, compared with ``v_incompressible``."""

    scenario: Scenario
    radii: np.ndarray
    v_incompressible: np.ndarray


@dataclass
class Plan:
    """Everything one run of a workload executes and checks."""

    name: str
    commands: list[Command]
    compress: list[CompressCase]
    latency: list[Scenario]
    check_rows: list[tuple[int, int]]  # (command index, row index) checked by the oracle


def _systematic(rng: random.Random, k: int) -> list[float]:
    """(i + u) / k for i < k with one seeded offset u, in seeded order."""
    offset = rng.random()
    u = [(i + offset) / k for i in range(k)]
    rng.shuffle(u)
    return u


def _log_between(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _scenario(r_e: float, s: float, v_D: float, v_F: float, regime: str, q_over_h: float) -> Scenario:
    """The scenario the CLI builds from these flags on top of its defaults."""
    return Scenario(
        geometry=Geometry(r_e=r_e, r_w=BASE_R_W, h=BASE_H),
        params=FlowParameters(
            alpha=BASE_ALPHA, beta=BASE_BETA, lambda_=BASE_LAMBDA, s=s, v_D=v_D, v_F=v_F
        ),
        regime=regime_preset(regime),
        q_over_h=q_over_h,
    )


def _sweep(
    axis: str, values: list[float], axis_flag: list[str], regimes: tuple[str, ...],
    r_e: float, s: float, v_D: float, v_F: float, q_over_h: float, out: str,
) -> Command:
    argv = [
        "sweep", "--axis", axis, *axis_flag, "--regimes", ",".join(regimes),
        "--r-e", repr(r_e), "--s", repr(s), "--v-d", repr(v_D), "--v-f", repr(v_F),
        "--q-over-h", repr(q_over_h), "--out", out,
    ]
    scenarios = []
    for value in values:  # rows are axis-major, like the CLI writes them
        knobs = {"r_e": r_e, "s": s, "v_D": v_D, "v_F": v_F, "q_over_h": q_over_h, axis: value}
        scenarios.extend(_scenario(regime=regime, **knobs) for regime in regimes)
    return Command("sweep", argv, out=out, scenarios=scenarios)


def _log_range(lo: float, hi: float, points: int) -> tuple[list[str], list[float]]:
    # the CLI expands --log-range with np.geomspace; do the same for the rows
    values = [float(v) for v in np.geomspace(lo, hi, points)]
    return ["--log-range", f"{lo!r},{hi!r},{points}"], values


def _sweep_closed(rng: random.Random, workdir: str) -> list[Command]:
    commands = []
    draws = [_systematic(rng, _CLOSED_BASES) for _ in range(4)]
    for i, (u_re, u_vd, u_vf, u_hi) in enumerate(zip(*draws)):
        r_e = _log_between(u_re, 100.0, 1000.0)
        v_D = _log_between(u_vd, 1e-8, 1.5e-6)
        v_F = v_D * 10.0 ** (1.0 + 2.0 * u_vf)
        # low end: the wellbore speed q/(2 pi r_w) is below v_D, so both radii
        # clamp to r_w; high end: both radii lie within 1e-3 * r_e of r_e
        lo = 2.0 * math.pi * BASE_R_W * v_D * 10.0 ** (-1.0 - rng.random())
        hi = math.pi * v_F * r_e * 10.0 ** (3.0 + u_hi)
        flag, values = _log_range(lo, hi, _CLOSED_POINTS)
        out = os.path.join(workdir, f"sweep-closed-{i}.csv")
        commands.append(
            _sweep("q_over_h", values, flag, CLOSED_REGIMES, r_e, 0.7, v_D, v_F, 1e-4, out)
        )
    return commands


def _sweep_predarcy(rng: random.Random, workdir: str) -> list[Command]:
    commands = []
    draws = [_systematic(rng, _PREDARCY_BASES) for _ in range(4)]
    for i, (u_s, u_re, u_vd, u_q) in enumerate(zip(*draws)):
        s = u_s
        r_e = _log_between(u_re, 100.0, 1000.0)
        v_D = _log_between(u_vd, 1e-8, 1.5e-6)
        q_over_h = _log_between(u_q, 1e-5, 1e-2)
        flag, values = _log_range(1e-6, 1e2, _PREDARCY_Q_POINTS)
        out = os.path.join(workdir, f"sweep-predarcy-q-{i}.csv")
        commands.append(
            _sweep("q_over_h", values, flag, PREDARCY_REGIMES, r_e, s, v_D, BASE_V_F, q_over_h, out)
        )
        s_values = list(_PREDARCY_S_VALUES)
        flag = ["--values", ",".join(repr(v) for v in s_values)]
        out = os.path.join(workdir, f"sweep-predarcy-s-{i}.csv")
        commands.append(
            _sweep("s", s_values, flag, PREDARCY_REGIMES, r_e, s, v_D, BASE_V_F, q_over_h, out)
        )
    return commands


def _fit_commands(rng: random.Random, workdir: str) -> list[Command]:
    """Noisy synthetic measurements around a seeded pre-Darcy transition."""
    commands = []
    draws = [_systematic(rng, _FIT_FILES) for _ in range(3)]
    for i, (u_s, u_vd, u_off) in enumerate(zip(*draws)):
        s = 0.15 + 0.75 * u_s
        v_D = _log_between(u_vd, 1e-8, 1.5e-6)
        params = FlowParameters(
            alpha=BASE_ALPHA, beta=BASE_BETA, lambda_=BASE_LAMBDA, s=s, v_D=v_D, v_F=1e3 * v_D
        )
        # two decades below v_D, 1.5 above; the offset keeps v_D off the nodes
        step = 3.5 / (_FIT_POINTS - 1)
        v_grid = v_D * 10.0 ** (np.linspace(-2.0, 1.5, _FIT_POINTS) + (u_off - 0.5) * step)
        data = synthesize_measurements(
            params, v_grid, noise_rel=_FIT_NOISE, seed=rng.randrange(2**32)
        )
        path = os.path.join(workdir, f"measurements-{i}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("v_m_per_s,grad_p_pa_per_m\n")
            fh.writelines(f"{m.v!r},{m.grad_p!r}\n" for m in data)
        commands.append(Command("fit", ["fit", path], truth=(s, v_D)))
    return commands


def _compress_cases(rng: random.Random) -> list[CompressCase]:
    """Unit-scale coefficients, as in the validate gamma checks, so that the
    compressible correction stays perturbative over COMPRESS_GAMMAS."""
    cases = []
    draws = [_systematic(rng, _COMPRESS_CASES) for _ in range(3)]
    for u_s, u_vd, u_q in zip(*draws):
        scn = Scenario(
            geometry=Geometry(r_e=1000.0, r_w=BASE_R_W, h=BASE_H),
            params=FlowParameters(
                alpha=1.0, beta=100.0, lambda_=1.0, s=0.3 + 0.6 * u_s,
                v_D=_log_between(u_vd, 3e-7, 3e-6), v_F=1e-4,
            ),
            regime=regime_preset("FDpD"),
            q_over_h=_log_between(u_q, 3e-3, 3e-2),
        )
        radii = np.linspace(BASE_R_W, 1000.0, 201)
        v_inc = np.array([velocity_profile(scn, float(r)) for r in radii])
        cases.append(CompressCase(scn, radii, v_inc))
    return cases


def _reference_neighbourhood(rng: random.Random) -> list[Scenario]:
    """The scenarios of the published tables, each followed by seeded
    neighbours with the flux, the pre-Darcy power and v_D moved a little."""
    out = []
    for entry in load_reference_entries():
        out.append(reference_scenario(entry))
        for _ in range(_REFERENCE_VARIANTS - 1):
            moved = replace(
                entry,
                q_over_h=entry.q_over_h * 10.0 ** rng.uniform(-0.25, 0.25),
                s=min(max(entry.s + rng.uniform(-0.05, 0.05), 0.0), 1.0),
                v_d=min(entry.v_d * 10.0 ** rng.uniform(-0.1, 0.1), BASE_V_F),
            )
            out.append(reference_scenario(moved))
    return out


def make_plan(name: str, seed: int, workdir: str) -> Plan:
    """The seeded plan of one workload run; writes its input files to workdir."""
    rng = random.Random(f"{name}:{seed}")
    compress: list[CompressCase] = []
    if name == "sweep-closed":
        commands = _sweep_closed(rng, workdir)
    elif name == "sweep-predarcy":
        commands = _sweep_predarcy(rng, workdir)
    elif name == "reproduce":
        commands = [Command("validate", ["validate"])]
        for t in (1, 2, 3, 4):
            out = os.path.join(workdir, f"table-{t}.csv")
            commands.append(Command("table", ["table", str(t), "--out", out], out=out))
        commands += _fit_commands(rng, workdir)
        compress = _compress_cases(rng)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")

    if name == "reproduce":
        latency = _reference_neighbourhood(rng)
        check_rows = []
    else:
        latency = [scn for cmd in commands for scn in cmd.scenarios]
        # a seeded sample of sweep rows goes to the energy-route oracle
        rows = [(c, r) for c, cmd in enumerate(commands) for r in range(len(cmd.scenarios))]
        check_rows = sorted(rng.sample(rows, 16))
    if len(latency) < MIN_SCENARIOS:
        raise AssertionError(f"{name}: {len(latency)} latency scenarios, need {MIN_SCENARIOS}")
    return Plan(name, commands, compress, latency, check_rows)
