"""Start-up cost: only the commands that need numpy import it.

Each check runs a fresh interpreter on the source tree, because the test
process itself has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from floodgauge.detector import build_baseline, save_baseline
from floodgauge.entropy_core import compute_entropy
from floodgauge.pipeline import calibrate, write_calibration_csv
from floodgauge.regression import ModelKind, fit, save_model
from floodgauge.traffic_sim import ScenarioConfig, simulate, write_series

SRC = Path(__file__).resolve().parents[1] / "src"

NUMPY_FREE = """
import sys
import floodgauge
assert "numpy" not in sys.modules, "import floodgauge loaded numpy"
import floodgauge.cli
assert "numpy" not in sys.modules, "import floodgauge.cli loaded numpy"
for argv in [
    ["baseline", "--flows", "clean.csv", "--out", "b.json"],
    ["calibrate", "--baseline", "b.json", "--out", "c.csv", "--run", "1=a1.csv",
     "--run", "2.5=a2.csv"],
    ["evaluate", "--model", "linear.json", "--data", "cal.csv"],
    ["estimate", "--model", "linear.json", "--events", "cal.csv", "--out", "e.csv"],
]:
    assert floodgauge.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0] + " loaded numpy"
"""

LOADS_NUMPY = """
import sys
import floodgauge.cli
assert "numpy" not in sys.modules
assert floodgauge.cli.main(sys.argv[1:]) == 0
assert "numpy" in sys.modules, sys.argv[1] + " ran without numpy"
"""


def run_fresh(script, cwd, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


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
    return tmp_path


def test_numpy_free_commands_never_import_numpy(inputs):
    run_fresh(NUMPY_FREE, inputs)


@pytest.mark.parametrize("argv", [
    ["simulate", "--out", "s.csv", "--legit-clients", 5, "--zombies", 1, "--windows", 2],
    ["fit", "--data", "cal.csv", "--model", "polynomial", "--degree", 1, "--out", "p.json"],
], ids=["simulate", "fit-polynomial"])
def test_numpy_commands_import_numpy(inputs, argv):
    run_fresh(LOADS_NUMPY, inputs, *argv)
