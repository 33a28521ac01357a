"""The README's library example and CLI quick start run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith("polynomial"), done.stdout


def test_cli_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI quick start\n", 1)[1]
    script = re.search(r"^```sh\n(.*?)^```$", section, re.S | re.M).group(1)
    lines = script.replace("\\\n", " ").splitlines()  # join backslash-continued lines
    commands = [argv for line in lines if (argv := shlex.split(line, comments=True))]
    assert commands and all(argv[0] == "floodgauge" for argv in commands), script
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-m", "floodgauge.cli", *argv[1:]],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (argv, done.stderr)
    calibration_rows = (tmp_path / "cal.csv").read_text().splitlines()[1:]
    estimate_rows = (tmp_path / "estimates.csv").read_text().splitlines()[1:]
    assert len(estimate_rows) == len(calibration_rows) > 0
