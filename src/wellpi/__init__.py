"""Well productivity index for composite pre-Darcy / Darcy / Forchheimer flow.

Pseudo-steady-state PI of a vertical well in a closed cylindrical reservoir,
with the constitutive law switching between pre-Darcy, Darcy and Forchheimer
branches across three velocity zones.  Includes independent pressure-profile
and energy-identity cross-checks, reproduction of published parameter-study
tables, and a segmented log-log fitter for measured velocity /
pressure-gradient data.

The PI path (constitutive laws, zone partition, closed-form zone integrals,
PI assembly, reference tables) imports no numpy.  The names from
``validation`` and ``fitting``, and the submodules ``validation``,
``fitting`` and ``checks``, are imported together on first access, e.g.
``from wellpi import pi_from_profile`` or ``wellpi.checks``.  ``validation``
and ``checks`` need numpy; of ``fitting``'s names only
``synthesize_measurements`` does, when it is called.
"""

import importlib
import types

from .constitutive import (
    REGIME_PRESETS,
    FlowParameters,
    RegimeAssignment,
    ZoneLaw,
    law_for_speed,
    mobility,
    pressure_gradient,
    preset_name,
    regime_preset,
)
from .kinematics import (
    Geometry,
    Scenario,
    ZonePartition,
    flux_density,
    partition_zones,
    radius_of_velocity,
    velocity_profile,
    zone_segments,
)
from .productivity import (
    PiResult,
    compute_curve,
    compute_pi,
    dimensionless_factor,
    zone_contributions,
)
from .quadrature import (
    IntegralResult,
    QuadratureError,
    integrate_adaptive,
    zone_integral,
)
from .reference import (
    ReferenceEntry,
    TableComparison,
    base_scenario,
    compare_table,
    load_reference_entries,
    reference_scenario,
)

#: The modules loaded together on first use: the oracle's, which import
#: numpy, and the fitter.
_NUMPY_MODULES = ("validation", "fitting", "checks")
#: Exported names of the numpy modules, with the module of each.
_LAZY_EXPORTS = {
    **dict.fromkeys((
        "StepSizeUnderflow",
        "compressible_velocity",
        "pi_from_energy",
        "pi_from_profile",
        "pressure_profile",
    ), "validation"),
    **dict.fromkeys((
        "FitResult",
        "FlowMeasurement",
        "fit_segments",
        "read_measurements_csv",
        "synthesize_measurements",
    ), "fitting"),
}

__version__ = "0.1.0"

#: Every name bound above that is not private or a module, then the lazy ones.
__all__ = [*(name for name, value in globals().items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)),
           *_LAZY_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import the numpy modules on first access of one of them or of a name
    they export, and bind all their exports here."""
    if name not in _LAZY_EXPORTS and name not in _NUMPY_MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import x`: that form probes this module's
    # attributes first and would re-enter this function
    modules = {m: importlib.import_module(f"{__name__}.{m}") for m in _NUMPY_MODULES}
    globals().update({n: getattr(modules[m], n) for n, m in _LAZY_EXPORTS.items()})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_NUMPY_MODULES, *_LAZY_EXPORTS})
