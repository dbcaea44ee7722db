"""Published reference values for the dimensionless PI and their reproduction.

The package ships a CSV resource with the literature values of four
parameter-study tables (PI vs flux, vs pre-Darcy power, vs transition
velocity, and the small-reservoir study).  ``compare_table`` recomputes
every entry with this package and reports relative deviations; entries
beyond the 1% reproduction tolerance are flagged.

All four studies vary a few values of one shared case, the ``BASE_*``
constants below; ``base_scenario`` is the one builder of that case, and
``reference_scenario`` and the CLI defaults go through it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .constitutive import FlowParameters, RegimeAssignment, regime_preset
from .kinematics import Geometry, Scenario
from .productivity import compute_curve

# Shared parameter set of the reference studies (strict SI).
BASE_R_E = 1000.0
BASE_R_W = 0.3
BASE_H = 10.0
BASE_ALPHA = 1.01e10
BASE_LAMBDA = 1.01e10
BASE_BETA = 2.4318e11
BASE_S = 0.7
BASE_V_F = 1e-5
BASE_V_D = 1e-7
BASE_Q_OVER_H = 1e-4

#: Reproduction tolerance: every reference entry should match within 1%.
REPRODUCTION_RTOL = 0.01

_DATA_PACKAGE = "wellpi"
_DATA_NAME = "data/reference_tables.csv"


@dataclass(frozen=True)
class ReferenceEntry:
    """One published dimensionless-PI value with its scenario knobs."""

    table: int
    regime: str
    s: float
    v_d: float
    q_over_h: float
    r_e: float
    published: float


@dataclass(frozen=True)
class TableComparison:
    """Computed-vs-published record for one reference entry."""

    entry: ReferenceEntry
    computed: float
    rel_deviation: float

    @property
    def within_tolerance(self) -> bool:
        return self.rel_deviation <= REPRODUCTION_RTOL


@cache
def _all_entries() -> tuple[ReferenceEntry, ...]:
    """Every entry of the bundled CSV, parsed once per process."""
    text = resources.files(_DATA_PACKAGE).joinpath(_DATA_NAME).read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return tuple(
        ReferenceEntry(
            table=int(row["table"]),
            regime=row["regime"],
            s=float(row["s"]),
            v_d=float(row["v_d"]),
            q_over_h=float(row["q_over_h"]),
            r_e=float(row["r_e"]),
            published=float(row["published"]),
        )
        for row in csv.DictReader(rows)
    )


def load_reference_entries(table: int | None = None) -> list[ReferenceEntry]:
    """Reference entries from the bundled CSV, optionally one table only,
    as a new list on every call."""
    out = [e for e in _all_entries() if table is None or e.table == table]
    if table is not None and not out:
        raise ValueError(f"no reference data for table {table}")
    return out


def base_scenario(
    regime: str | RegimeAssignment,
    continuous_predarcy: bool = False,
    *,
    r_e: float = BASE_R_E, r_w: float = BASE_R_W, h: float = BASE_H,
    alpha: float = BASE_ALPHA, beta: float = BASE_BETA, lambda_: float = BASE_LAMBDA,
    s: float = BASE_S, v_D: float = BASE_V_D, v_F: float = BASE_V_F,
    q_over_h: float = BASE_Q_OVER_H,
) -> Scenario:
    """The shared case of the reference studies with any of its ten scalar
    fields replaced, under ``regime`` (a preset name or an assignment).

    ``continuous_predarcy`` rescales lambda to alpha * v_D**s.  Inputs are
    validated in the order flow parameters, rescaling, geometry, regime,
    flux.
    """
    params = FlowParameters(alpha=alpha, beta=beta, lambda_=lambda_, s=s, v_D=v_D, v_F=v_F)
    if continuous_predarcy:
        params = params.with_continuous_predarcy()
    return Scenario(
        geometry=Geometry(r_e=r_e, r_w=r_w, h=h),
        params=params,
        regime=regime_preset(regime) if isinstance(regime, str) else regime,
        q_over_h=q_over_h,
    )


def reference_scenario(entry: ReferenceEntry, continuous_predarcy: bool = False) -> Scenario:
    """Scenario reproducing one reference entry."""
    return base_scenario(entry.regime, continuous_predarcy, s=entry.s, v_D=entry.v_d,
                         q_over_h=entry.q_over_h, r_e=entry.r_e)


def compare_table(table: int, continuous_predarcy: bool = False) -> list[TableComparison]:
    """Recompute one table and compare against its published values.

    Entries that differ only in regime share one scenario, and each such
    group is computed with one ``compute_curve`` call at its one point; the
    comparisons keep the order of the entries.
    """
    entries = load_reference_entries(table)
    groups: dict[tuple[float, float, float, float], list[int]] = {}
    for k, e in enumerate(entries):
        groups.setdefault((e.s, e.v_d, e.q_over_h, e.r_e), []).append(k)
    computed = [0.0] * len(entries)
    for members in groups.values():
        scn = reference_scenario(entries[members[0]], continuous_predarcy=continuous_predarcy)
        pis, = compute_curve(scn.geometry, [regime_preset(entries[k].regime) for k in members],
                             [(scn.q_over_h, scn.params)])
        for k, pi in zip(members, pis):
            computed[k] = pi.j_dimensionless
    return [
        TableComparison(
            entry=e, computed=j, rel_deviation=abs(j - e.published) / abs(e.published)
        )
        for e, j in zip(entries, computed)
    ]
