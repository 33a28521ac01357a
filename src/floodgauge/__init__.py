"""Entropy-deviation flood detection and attack strength estimation.

The library windowizes per-flow byte counts, measures each window's
sample entropy, flags windows whose entropy deviates from a clean
baseline, and maps deviation to aggregate attack strength through
calibrated regression models.
"""

from types import ModuleType as _ModuleType

from .detector import (
    DEFAULT_THRESHOLD,
    Baseline,
    DetectionEvent,
    build_baseline,
    evaluate_window,
    evaluate_windows,
)
from .entropy_core import (
    EntropyValue,
    FlowRecord,
    FlowRecordSeries,
    WindowCounts,
    compute_entropy,
    windowize,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    DegenerateVarianceError,
    DomainError,
    EmptyRunError,
    FloodgaugeError,
    InputError,
    InsufficientBaselineError,
)
from .metrics import FitReport, ResidualSeries, evaluate, residual_summary
from .pipeline import (
    ModelComparisonReport,
    StrengthEstimate,
    calibrate,
    compare_models,
    estimate_strength,
    run_events,
)
from .refdata import (
    REFERENCE_DEVIATIONS,
    REFERENCE_STRENGTHS_MBPS,
    REFERENCE_SUMMARY,
    check_reference_reproduction,
    reference_dataset,
)
from .regression import (
    MODEL_FAMILIES,
    CalibrationDataset,
    CalibrationSample,
    FittedModel,
    ModelKind,
    fit,
    load_model,
    predict,
    residuals,
    save_model,
)
from .traffic_sim import ScenarioConfig, simulate, sweep

__version__ = "1.0.0"

# the names imported above, without the submodules they come from
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
