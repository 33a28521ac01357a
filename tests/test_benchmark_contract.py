"""The traced benchmark run wraps package functions by module attribute.

perfbench/tracing.py names each target as ``module.function``; if a
refactor renames or removes one, the traced run fails. This checks the
names without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.TARGETS)


@pytest.mark.parametrize("target", load_targets())
def test_trace_target_is_a_package_function(target):
    module_name, attr = target.split(".")
    module = importlib.import_module(f"floodgauge.{module_name}")
    assert callable(getattr(module, attr, None)), f"floodgauge.{target} is gone"
