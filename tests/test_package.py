"""The package's exported names, each loaded from its submodule on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import floodgauge

SRC = Path(__file__).resolve().parents[1] / "src"

# every name `from floodgauge import *` binds, under the submodule that defines it
EXPORTS = {
    "detector": ["DEFAULT_THRESHOLD", "Baseline", "DetectionEvent", "build_baseline",
                 "evaluate_window", "evaluate_windows"],
    "entropy_core": ["EntropyValue", "FlowRecord", "FlowRecordSeries", "WindowCounts",
                     "compute_entropy", "windowize"],
    "errors": ["ConfigError", "DegenerateDataError", "DegenerateVarianceError", "DomainError",
               "EmptyRunError", "FloodgaugeError", "InputError", "InsufficientBaselineError"],
    "metrics": ["FitReport", "evaluate"],
    "pipeline": ["ModelComparisonReport", "StrengthEstimate", "calibrate", "compare_models",
                 "estimate_strength", "run_events"],
    "refdata": ["REFERENCE_DEVIATIONS", "REFERENCE_STRENGTHS_MBPS", "REFERENCE_SUMMARY",
                "check_reference_reproduction", "reference_dataset"],
    "regression": ["MODEL_FAMILIES", "CalibrationDataset", "CalibrationSample", "FittedModel",
                   "ModelKind", "fit", "load_model", "predict", "residuals", "save_model"],
    "traffic_sim": ["ScenarioConfig", "simulate", "sweep"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_lists_the_46_exported_names():
    assert len(NAMES) == 46
    assert floodgauge.__all__ == NAMES


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names
])
def test_each_name_is_its_submodules_own_object(module, name):
    home = importlib.import_module(f"floodgauge.{module}")
    assert getattr(floodgauge, name) is getattr(home, name)


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from floodgauge import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert set(NAMES) <= set(dir(floodgauge))


def test_an_unknown_name_raises_the_standard_error():
    with pytest.raises(AttributeError) as info:
        floodgauge.no_such_name
    assert str(info.value) == "module 'floodgauge' has no attribute 'no_such_name'"


def test_a_submodule_resolves_without_importing_it():
    # a fresh interpreter, because this process has imported every submodule already
    script = ("import sys, floodgauge\n"
              "assert 'floodgauge.pipeline' not in sys.modules\n"
              "assert floodgauge.pipeline is sys.modules['floodgauge.pipeline']\n"
              "assert 'pipeline' in dir(floodgauge)\n")
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
