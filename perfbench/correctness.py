"""Correctness checks of one benchmark run, made after the timed passes.

Every check is one operation of the run: a failed check counts towards
``failed`` just as a non-zero exit or an exception does.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from workloads import COMPRESS_GAMMAS, Plan

ORACLE_RTOL = 1e-6           # sweep row vs the energy-identity PI
TABLE_RTOL = 0.01            # published tables reproduce within 1%
FIT_S_ABS = 0.03             # recovered pre-Darcy power, absolute
FIT_LOG_VD = 0.35            # recovered transition velocity, |ln(v_D_hat / v_D)|
GAMMA_RATIO = (9.0, 11.0)    # compressible deviation per decade of gamma
VALIDATE_ALL_PASSED = "11/11 validation properties passed"


@dataclass
class Outcome:
    """What one command of one pass returned."""

    rc: int | None           # None when it raised
    error: str
    stdout: str
    output: bytes = b""      # the CSV it wrote, or b"" when it wrote none
    digest: bytes = b""      # of stdout and output, kept when they are dropped


@dataclass
class PassRecord:
    """Timings and outputs of one pass over a plan."""

    stage_s: dict[str, float]       # raw seconds per stage
    stage_ref_s: dict[str, float]   # the same at the reference host speed
    outcomes: list[Outcome]
    deviations: list[list[float]] = field(default_factory=list)  # per compress case, per gamma

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())

    @property
    def wall_ref_s(self) -> float:
        return sum(self.stage_ref_s.values())


def _csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]


def _field(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        name, sep, value = line.partition("=")
        if sep and name.strip() == key:
            return float(value.split()[0])
    raise ValueError(f"no {key} in output")


def check_run(plan: Plan, passes: list[PassRecord], pi_from_energy, n_reference: int,
              fault: bool = False) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) of every check on the outputs of a run.

    With ``fault`` the first oracle-checked sweep row is perturbed by 1e-3
    before it is checked, to show that the check catches a wrong row.
    """
    results: list[tuple[str, bool, str]] = []
    first = passes[0].outcomes
    for c, cmd in enumerate(plan.commands):
        label = f"{c}:{' '.join(cmd.argv[:2])}"
        same = all(p.outcomes[c].digest == first[c].digest for p in passes)
        results.append((f"identical-output {label}", same, f"{len(passes)} passes"))

    tables = 0
    for c, cmd in enumerate(plan.commands):
        out = first[c]
        label = f"{c}:{' '.join(cmd.argv[:2])}"
        try:
            if cmd.stage == "sweep":
                rows = _csv_rows(out.output)
                results.append((f"sweep-rows {label}", len(rows) == len(cmd.scenarios),
                                f"{len(rows)} of {len(cmd.scenarios)}"))
            elif cmd.stage == "validate":
                results.append((f"validate {label}", VALIDATE_ALL_PASSED in out.stdout,
                                out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "no output"))
            elif cmd.stage == "table":
                rows = _csv_rows(out.output)
                tables += len(rows)
                worst = max(abs(float(r[7]) - float(r[6])) / abs(float(r[6])) for r in rows)
                ok = worst <= TABLE_RTOL and all(r[9] == "yes" for r in rows)
                results.append((f"table-within-1pct {label}", ok, f"worst {worst:.3e} over {len(rows)}"))
            elif cmd.stage == "fit":
                s, v_D = cmd.truth
                s_hat, v_d_hat = _field(out.stdout, "s_hat"), _field(out.stdout, "v_D_hat")
                ok = abs(s_hat - s) <= FIT_S_ABS and abs(math.log(v_d_hat / v_D)) <= FIT_LOG_VD
                results.append((f"fit-recovers {label}", ok,
                                f"s {s_hat:.4f} vs {s:.4f}, v_D {v_d_hat:.3e} vs {v_D:.3e}"))
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            results.append((f"{cmd.stage}-parse {label}", False, repr(exc)))
    if any(cmd.stage == "table" for cmd in plan.commands):
        results.append(("table-entries", tables == n_reference, f"{tables} of {n_reference}"))

    for n, (c, r) in enumerate(plan.check_rows):
        scn = plan.commands[c].scenarios[r]
        try:
            j_cli = float(_csv_rows(first[c].output)[r][9])
        except (ValueError, IndexError) as exc:
            results.append((f"sweep-oracle {c}:{r}", False, repr(exc)))
            continue
        if fault and n == 0:
            j_cli *= 1.0 + 1e-3
        j_energy = pi_from_energy(scn)
        dev = abs(j_cli - j_energy) / abs(j_energy)
        results.append((f"sweep-oracle {c}:{r}", dev <= ORACLE_RTOL, f"rel {dev:.2e}"))

    for n, devs in enumerate(passes[0].deviations):
        ratios = [a / b for a, b in zip(devs, devs[1:])] if all(d > 0 for d in devs) else [math.nan]
        ok = (all(GAMMA_RATIO[0] <= x <= GAMMA_RATIO[1] for x in ratios)
              and all(p.deviations[n] == devs for p in passes))
        results.append((f"gamma-scaling {n}", ok,
                        "ratios " + ", ".join(f"{x:.3f}" for x in ratios)
                        + f" per decade over gamma {COMPRESS_GAMMAS}, same in every pass"))
    return results


def max_deviation(v_gamma: np.ndarray, v_inc: np.ndarray) -> float:
    return float(np.max(np.abs(v_gamma - v_inc)))
