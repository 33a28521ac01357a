"""The benchmark reaches package code by module attribute.

perfbench/tracing.py names each target as ``module.function``, and
perfbench/workloads.py calls ``module.attr`` on the floodgauge modules it
imports; if a refactor renames or moves one of these, the benchmark
fails. This checks the names without running the benchmark, and runs each
workload once at its tiny size: its check must pass a pass's outputs and
refuse them once corrupted.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = PERFBENCH.parent / "src"


def load_perfbench(name):
    """perfbench/<name>.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return sorted(load_perfbench("tracing").TARGETS)


WORKLOADS = load_perfbench("workloads").WORKLOADS


def workload_imports():
    """The ``from floodgauge import ...`` statements of workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "floodgauge"]


def workload_attributes():
    """Every ``module.attr`` workloads.py reads from a module it imports from floodgauge."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in workload_imports() for alias in node.names}
    return sorted({
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


@pytest.mark.parametrize("target", load_targets())
def test_trace_target_is_a_package_function(target):
    module_name, attr = target.split(".")
    module = importlib.import_module(f"floodgauge.{module_name}")
    assert callable(getattr(module, attr, None)), f"floodgauge.{target} is gone"


@pytest.mark.parametrize("name", workload_attributes())
def test_workload_attribute_resolves(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"floodgauge.{module_name}")
    assert hasattr(module, attr), f"floodgauge.{name} is gone"


def test_workload_imports_load_every_traced_module():
    # Tracer.install finds each target's module in sys.modules, so a module the
    # workloads' imports leave unloaded would make every traced run raise KeyError
    modules = sorted({f"floodgauge.{target.split('.')[0]}" for target in load_targets()})
    script = "\n".join(map(ast.unparse, workload_imports())) + (
        "\nimport sys\nprint(*[m for m in sys.argv[1:] if m not in sys.modules])")
    done = subprocess.run([sys.executable, "-c", script, *modules],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_tiny_pass_checks_out_and_a_corrupted_one_does_not(name, tmp_path, monkeypatch):
    # readme-workflow runs the CLI in child processes, which find the package on PYTHONPATH
    monkeypatch.setenv("PYTHONPATH", str(SRC))
    workload = WORKLOADS[name](True)
    workdir, outdir = tmp_path / "work", tmp_path / "out"
    workdir.mkdir()
    outdir.mkdir()
    workload.setup(1203, workdir)
    workload.run_pass(outdir)
    assert workload.check(outdir) == []
    workload.corrupt(outdir)
    assert workload.check(outdir) != []
