"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload completes a pass and prints each end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints each
per-layer metric with its unit, that a deliberately corrupted output is
counted as a failed pass on every workload, and that the benchmark
exits non-zero, printing no result, in a directory without the package
sources. Takes about a minute; exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def has_metrics(result: dict, specs: list[dict]) -> list[str]:
    return [s["name"] for s in specs
            if result["metrics"].get(s["name"], {}).get("unit") != s["unit"]
            or not isinstance(result["metrics"][s["name"]]["value"], (int, float))]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOAD_NAMES:
        code, result = bench("--workload", workload, "--trace", "0", "--tiny")
        expect(code == 0 and result is not None and result["correct"]
               and result["attempted"] >= 2 and result["failed"] == 0,
               f"{workload}: passes complete and check out")
        if result is not None:
            missing = has_metrics(result, spec["end_to_end"])
            expect(not missing, f"{workload}: end-to-end metrics with units {missing or ''}")
        code, result = bench("--workload", workload, "--trace", "0", "--tiny", "--corrupt")
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] == result["attempted"] >= 1,
               f"{workload}: a corrupted output fails the pass")

    code, result = bench("--workload", "capture-detect", "--trace", "1", "--tiny")
    expect(code == 0 and result is not None and result["correct"], "traced run checks out")
    if result is not None:
        missing = has_metrics(result, spec["per_layer"])
        expect(not missing, f"traced run prints every per-layer metric {missing or ''}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, result = bench("--workload", "capture-detect", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(code != 0 and result is None, "refuses to run without src/")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
