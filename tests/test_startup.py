"""Start-up cost: each command imports only the modules it runs.

Only simulate past its numpy-free size imports numpy: every other command,
polynomial fits included, runs without it. Each command loads a pinned set of
floodgauge submodules. Each check runs a fresh interpreter on the source tree,
because the test process itself has every module loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from floodgauge.detector import build_baseline, save_baseline
from floodgauge.entropy_core import compute_entropy
from floodgauge.pipeline import calibrate, write_calibration_csv
from floodgauge.regression import FittedModel, ModelKind, fit, save_model
from floodgauge.traffic_sim import ScenarioConfig, simulate, write_series

SRC = Path(__file__).resolve().parents[1] / "src"

NUMPY_FREE = """
import sys
import floodgauge
assert "numpy" not in sys.modules, "import floodgauge loaded numpy"
import floodgauge.cli
assert "numpy" not in sys.modules, "import floodgauge.cli loaded numpy"
for argv in [
    # the README quick start's largest run: 70 flows x 50 windows
    ["simulate", "--out", "r.csv", "--legit-clients", "60", "--zombies", "10",
     "--attack-rate", "0.2", "--seed", "21"],
    ["baseline", "--flows", "clean.csv", "--out", "b.json"],
    ["calibrate", "--baseline", "b.json", "--out", "c.csv", "--run", "1=a1.csv",
     "--run", "2.5=a2.csv"],
    # cal.csv holds two samples, so the polynomial fits at degree 1
    ["compare", "--data", "cal.csv", "--degree", "1", "--out-json", "report.json"],
    ["fit", "--data", "cal.csv", "--model", "polynomial", "--degree", "1", "--out", "p.json"],
    ["evaluate", "--model", "p.json", "--data", "cal.csv"],
    ["estimate", "--model", "p.json", "--events", "cal.csv", "--out", "e.csv"],
    ["reproduce-table2"],
]:
    assert floodgauge.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0] + " loaded numpy"
import json
assert "polynomial" in json.load(open("report.json"))["models"], "compare fitted no polynomial"
"""

LOADS_NUMPY = """
import sys
import floodgauge.cli
assert "numpy" not in sys.modules
assert floodgauge.cli.main(sys.argv[1:]) == 0
assert "numpy" in sys.modules, sys.argv[1] + " ran without numpy"
"""


# the floodgauge submodules each command loads, pinned so that a change widening one shows
PARSER_MODULES = {"cli", "errors", "families"}
# what every command that fits or scores a model loads
MODEL_MODULES = {"fileio", "metrics", "pipeline", "regression"}

COMMAND_MODULES = {
    "simulate": PARSER_MODULES | {"entropy_core", "fileio", "traffic_sim"},
    "baseline": PARSER_MODULES | {"detector", "entropy_core", "fileio"},
    "calibrate": PARSER_MODULES | MODEL_MODULES | {"detector", "entropy_core"},
    "fit": PARSER_MODULES | MODEL_MODULES,
    "evaluate": PARSER_MODULES | MODEL_MODULES,
    "compare": PARSER_MODULES | MODEL_MODULES,
    "estimate": PARSER_MODULES | MODEL_MODULES | {"detector"},
    "reproduce-table2": PARSER_MODULES | MODEL_MODULES | {"refdata"},
}


def run_fresh(script, cwd, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_modules(script, cwd, *argv):
    """The floodgauge submodules a fresh interpreter holds after ``script``, and
    whether it loaded logging."""
    out = run_fresh(script + """
import sys
print(*sorted(n.partition(".")[2] for n in sys.modules if n.startswith("floodgauge.")))
print("logging" in sys.modules)
""", cwd, *argv)
    modules, logging_loaded = out.splitlines()[-2:]
    return set(modules.split()), logging_loaded == "True"


@pytest.fixture()
def inputs(tmp_path):
    def run(name, zombies, rate, seed):
        cfg = ScenarioConfig(legit_clients=20, zombies=zombies,
                             attack_rate_mbps_per_zombie=rate, num_windows=6, seed=seed)
        series = simulate(cfg)
        write_series(tmp_path / name, series)
        return series

    clean = run("clean.csv", 0, 0.0, 1)
    baseline = build_baseline([compute_entropy(w) for w in clean.windows()])
    save_baseline(tmp_path / "b.json", baseline)
    labeled = [(1.0, run("a1.csv", 5, 0.2, 2)), (2.5, run("a2.csv", 5, 0.5, 3))]
    data = calibrate(labeled, baseline)
    write_calibration_csv(tmp_path / "cal.csv", data)
    save_model(tmp_path / "linear.json", fit(data, ModelKind("linear")))
    # a deviation the logarithmic model cannot take, so estimate skips the window
    save_model(tmp_path / "log.json", FittedModel(ModelKind("logarithmic"), (1.0, 0.0),
                                                  "raw_ols", "synthetic"))
    (tmp_path / "negative.csv").write_text("deviation,strength_mbps\n-1.0,5.0\n")
    return tmp_path


def test_numpy_free_commands_never_import_numpy(inputs):
    run_fresh(NUMPY_FREE, inputs)


def test_simulate_past_its_numpy_free_size_imports_numpy(inputs):
    # the default run, 500 flows x 50 windows
    run_fresh(LOADS_NUMPY, inputs, "simulate", "--out", "s.csv")


def test_a_small_sweep_and_its_refusals_load_no_numpy(tmp_path):
    run_fresh("""
import sys
from floodgauge.errors import ConfigError
from floodgauge.traffic_sim import ScenarioConfig, sweep
base = ScenarioConfig(legit_clients=5, zombies=2, num_windows=3)
assert len([series.record_count for _, series in sweep(base, [1.0, 2.0, 3.0])]) == 3
try:
    sweep(base, [1.0, 0.0])
    raise AssertionError("sweep took a strength of 0")
except ConfigError:
    pass
assert "numpy" not in sys.modules
""", tmp_path)


RUN_COMMAND = "import sys, floodgauge.cli\nassert floodgauge.cli.main(sys.argv[1:]) == 0"


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert loaded_modules("import floodgauge", tmp_path) == (set(), False)


def test_parsing_loads_only_the_parser_modules(tmp_path):
    script = "import floodgauge.cli\nfloodgauge.cli.build_parser()"
    assert loaded_modules(script, tmp_path) == (PARSER_MODULES, False)


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "s.csv", "--legit-clients", 5, "--zombies", 1, "--windows", 2],
    ["baseline", "--flows", "clean.csv", "--out", "b.json"],
    ["calibrate", "--baseline", "b.json", "--out", "c.csv", "--run", "1=a1.csv",
     "--run", "2.5=a2.csv"],
    ["fit", "--data", "cal.csv", "--model", "polynomial", "--degree", 1, "--out", "p.json"],
    ["evaluate", "--model", "linear.json", "--data", "cal.csv"],
    ["compare", "--data", "cal.csv"],
    ["estimate", "--model", "linear.json", "--events", "cal.csv", "--out", "e.csv"],
    ["reproduce-table2"],
], ids=lambda argv: argv[0])
def test_each_command_loads_its_pinned_modules(inputs, argv):
    assert loaded_modules(RUN_COMMAND, inputs, *argv) == (COMMAND_MODULES[argv[0]], False)


def test_estimate_loads_logging_only_to_warn_of_a_skipped_window(inputs):
    modules, logging_loaded = loaded_modules(RUN_COMMAND, inputs, "estimate", "--model",
                                             "log.json", "--events", "negative.csv")
    assert modules == COMMAND_MODULES["estimate"] and logging_loaded
