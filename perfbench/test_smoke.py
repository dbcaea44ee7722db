"""Smoke test of the benchmark itself, on tiny runs.  From the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# per-layer values that must repeat exactly between traced runs of one seed
COUNT_SUFFIXES = (".calls", ".count", ".panels", ".integrand_calls", ".rhs_evals",
                  ".zone_integrals_per_pi", ".inner_integrals_per_profile")


def _run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if proc.returncode == 0 and lines else None)


def _failed_frac(stdout: str) -> float:
    line = next(line for line in stdout.splitlines() if line.startswith("failed_frac"))
    return float(line.split()[1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    report = proc.stdout.splitlines()[:-1]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in report), m
    assert _failed_frac(proc.stdout) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_fault_raises_failed_frac(workload):
    proc, result = _run(workload, 0, "--inject-fault")
    assert proc.returncode == 0, proc.stderr
    assert not result["correct"] and result["failed"] > 0
    assert _failed_frac(proc.stdout) > 0.0


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        proc, result = _run("reproduce", 1)
        assert proc.returncode == 0, proc.stderr
        counts.append({k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert counts[0]["validation.compressible_velocity.rhs_evals"] > 0


def test_refuses_to_run_without_the_program():
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = _run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            work.rmdir()
