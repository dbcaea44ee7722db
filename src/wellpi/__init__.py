"""Well productivity index for composite pre-Darcy / Darcy / Forchheimer flow.

Pseudo-steady-state PI of a vertical well in a closed cylindrical reservoir,
with the constitutive law switching between pre-Darcy, Darcy and Forchheimer
branches across three velocity zones.  Includes independent pressure-profile
and energy-identity cross-checks, reproduction of published parameter-study
tables, and a segmented log-log fitter for measured velocity /
pressure-gradient data.
"""

from .constitutive import (
    REGIME_PRESETS,
    FlowParameters,
    RegimeAssignment,
    ZoneLaw,
    law_for_speed,
    mobility,
    preset_name,
    regime_preset,
    resistance,
)
from .fitting import (
    FitResult,
    FlowMeasurement,
    fit_segments,
    read_measurements_csv,
    synthesize_measurements,
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
from .productivity import PiResult, compute_pi, compute_pis, darcy_ratio, dimensionless_factor
from .quadrature import (
    IntegralResult,
    QuadratureError,
    darcy_zone_integral,
    forchheimer_zone_integral,
    integrate_adaptive,
    predarcy_zone_integral,
    zone_integral,
)
from .reference import (
    ReferenceEntry,
    TableComparison,
    compare_table,
    load_reference_entries,
    reference_scenario,
)
from .validation import (
    ProfileSample,
    StepSizeUnderflow,
    compressible_velocity,
    pi_from_energy,
    pi_from_profile,
    pressure_profile,
    sample_profile,
)

__version__ = "0.1.0"

__all__ = [
    "FlowParameters",
    "ZoneLaw",
    "RegimeAssignment",
    "REGIME_PRESETS",
    "regime_preset",
    "preset_name",
    "resistance",
    "mobility",
    "law_for_speed",
    "Geometry",
    "Scenario",
    "ZonePartition",
    "flux_density",
    "velocity_profile",
    "radius_of_velocity",
    "partition_zones",
    "zone_segments",
    "IntegralResult",
    "QuadratureError",
    "integrate_adaptive",
    "darcy_zone_integral",
    "forchheimer_zone_integral",
    "predarcy_zone_integral",
    "zone_integral",
    "PiResult",
    "compute_pi",
    "compute_pis",
    "darcy_ratio",
    "dimensionless_factor",
    "ProfileSample",
    "pressure_profile",
    "sample_profile",
    "pi_from_profile",
    "pi_from_energy",
    "compressible_velocity",
    "StepSizeUnderflow",
    "FlowMeasurement",
    "FitResult",
    "synthesize_measurements",
    "fit_segments",
    "read_measurements_csv",
    "ReferenceEntry",
    "TableComparison",
    "load_reference_entries",
    "reference_scenario",
    "compare_table",
    "__version__",
]
