"""Group-sequential comparison of covariate-adjusted survival probabilities.

The pipeline: ingest or simulate staggered-entry survival data, snapshot it
at a calendar analysis time, fit a treatment-stratified proportional-hazards
model, compare covariate-adjusted survival probabilities at a fixed time
point, and monitor the standardized statistics against alpha-spending
boundaries.
"""

__version__ = "0.1.0"

from .adjusted import (
    SPBatch,
    SPComparison,
    VarianceComponents,
    compare_sp,
    compare_sp_batch,
    sp_variance,
    variance_components,
)
from .comparators import (
    CoxWaldBatch,
    CoxWaldResult,
    KMBatch,
    KMComparison,
    cox_wald,
    cox_wald_batch,
    km_compare,
    km_compare_batch,
)
from .cox import FitBatch, RiskSets, StratifiedCoxFit, fit_mple, fit_mple_batch
from .data import (
    Columns,
    Snapshot,
    ingest_csv,
    snapshot,
    to_columns,
    validate_dataset,
)
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    SeparationError,
    SeqSurvError,
    ValidationError,
)
from .gsdesign import (
    GSDesign,
    MonitoringState,
    SequentialMonitor,
    SpendingFunction,
    StageResult,
    boundaries,
    crossing_probabilities,
    design_from_text,
    design_to_text,
    monitor,
    spend,
    state_from_text,
    state_to_text,
)
from .sim import (
    CalibrationResult,
    EffectCalibration,
    OperatingCharacteristics,
    Scenario,
    analytic_power,
    build_design,
    calibrate_analysis_times,
    calibrate_effect,
    generate_columns,
    null_beta_w,
    oc_plot_data,
    oc_to_csv,
    run_oc,
    scenario_from_text,
    scenario_to_text,
)

__all__ = [name for name in dir() if not name.startswith("_")]
