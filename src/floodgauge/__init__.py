"""Entropy-deviation flood detection and attack strength estimation.

The library windowizes per-flow byte counts, measures each window's
sample entropy, flags windows whose entropy deviates from a clean
baseline, and maps deviation to aggregate attack strength through
calibrated regression models.

Importing the package loads none of its submodules: each name below,
and each submodule, is imported on first use (PEP 562), so a command
pays only for the modules it runs.
"""

import importlib

__version__ = "1.0.0"

# each submodule with the names the package exports from it
_EXPORTS = {
    "cli": (),
    "detector": ("DEFAULT_THRESHOLD", "Baseline", "DetectionEvent", "build_baseline",
                 "evaluate_window", "evaluate_windows"),
    "entropy_core": ("EntropyValue", "FlowRecord", "FlowRecordSeries", "WindowCounts",
                     "compute_entropy", "windowize"),
    "errors": ("ConfigError", "DegenerateDataError", "DegenerateVarianceError", "DomainError",
               "EmptyRunError", "FloodgaugeError", "InputError", "InsufficientBaselineError"),
    "families": (),
    "fileio": (),
    "metrics": ("FitReport", "evaluate"),
    "pipeline": ("ModelComparisonReport", "StrengthEstimate", "calibrate", "compare_models",
                 "estimate_strength", "run_events"),
    "refdata": ("REFERENCE_DEVIATIONS", "REFERENCE_STRENGTHS_MBPS", "REFERENCE_SUMMARY",
                "check_reference_reproduction", "reference_dataset"),
    "regression": ("MODEL_FAMILIES", "CalibrationDataset", "CalibrationSample", "FittedModel",
                   "ModelKind", "fit", "load_model", "predict", "residuals", "save_model"),
    "traffic_sim": ("ScenarioConfig", "simulate", "sweep"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
