"""floodgauge benchmark: one workload per call, results on the last line.

    python3 perfbench/run.py --workload capture-detect --seed 1203 \
        --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``. Each workload runs in fresh single-threaded
worker processes (worker.py), one at a time. Without tracing, the run
starts WORKERS workers, each setting up from scratch and then measuring
for an equal share of ``--seconds``, and reports the end-to-end metrics
``pass_s``, ``setup_s`` and ``peak_rss_mb``. With ``--trace 1`` it runs
every workload once, traced, and reports the per-layer metrics: each
layer metric is taken on the workload that exercises that layer, so a
traced run needs all four; ``--workload`` picks which goes first.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
give the environment, the pass-time quartiles and sample count, and the
output digests. See README.md in this directory for the workloads, the
layer table and the first baseline numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("capture-detect", "sweep-calibrate", "model-select", "readme-workflow")
DEFAULT_SEED = 1203
# never used while tuning the benchmark; kept for checking claimed gains
HELD_OUT_SEED = 2399
WORKERS = 3
# pass_s and setup_s are scaled to this worker.reference_seconds time,
# close to what it reads on the 2-core VM the first baseline came from
REFERENCE_NOMINAL_S = 0.010
# a run must end well inside the 180 s a caller allows it
RUN_DEADLINE_S = 170.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CLI_SUBCOMMANDS = ("simulate", "baseline", "calibrate", "compare", "fit",
                   "evaluate", "estimate", "reproduce-table2")


class WorkerError(RuntimeError):
    pass


def pinned_env(scratch: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FLOODGAUGE_SEED"}
    env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(scratch))
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def spawn(cfg: dict, env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return its set-up time and summary."""
    start = time.monotonic()
    # own session, so a timeout also stops the worker's CLI children
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(cfg)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{cfg['workload']} worker ran past the run deadline")
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("READY "):
        raise WorkerError(f"{cfg['workload']} worker exited {proc.returncode}")
    return float(lines[0].split()[1]) - start, json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_agreement(results: list[dict]) -> list[str]:
    """Workers given the same seed must write byte-identical outputs."""
    first = results[0]
    return [f"worker {i} wrote different outputs than worker 0"
            for i, r in enumerate(results[1:], 1)
            if (r["setup_digests"], r["digests"]) != (first["setup_digests"], first["digests"])]


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Times at the reference speed: each over its own reference time."""
    return [t * REFERENCE_NOMINAL_S / ref for t, ref in zip(seconds, refs)]


def end_to_end(name: str, setups: list[float], results: list[dict]) -> dict:
    """pass_s and setup_s are scaled to the reference speed (see README.md)."""
    wall = [t for r in results for t in r["pass_s"]]
    passes = [t for r in results for t in scaled(r["pass_s"], r["pass_ref_s"])]
    setup = scaled(setups, [r["setup_ref_s"] for r in results])
    for label, values in (("pass_s", passes), ("pass_wall_s", wall)):
        q1, median, q3 = quartiles(values)
        print(f"{label} median={median:.6f} q1={q1:.6f} q3={q3:.6f} "
              f"min={min(values):.6f} n={len(values)}")
    print(f"setup_s samples={[round(s, 6) for s in setup]} "
          f"wall={[round(s, 6) for s in setups]}")
    rss_kb = [r["peak_rss_kb"] for r in results]
    if name == "readme-workflow":
        # children run one at a time: the worker's peak plus the largest child's
        rss_kb = [r["peak_rss_kb"] + r["children_peak_rss_kb"] for r in results]
    return {
        "pass_s": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss_kb) / 1024, "unit": "MB"},
    }


def layer_metrics(res: dict[str, dict]) -> dict:
    """Per-layer metrics from the traced workers, keyed by workload."""
    merged: dict[str, dict] = {}
    for r in res.values():
        for name, entry in r["functions"].items():
            total = merged.setdefault(name, {})
            for k, v in entry.items():
                total[k] = total.get(k, 0) + v

    def per(name: str, key: str, scale: float = 1.0) -> float:
        return merged[name]["dur"] / merged[name][key] * scale

    def per_pass(workload: str, name: str, key: str) -> float:
        entry = res[workload]["pass_functions"].get(name, {})
        return entry.get(key, 0) / len(res[workload]["traced_pass_s"])

    cap, swp, sel = "capture-detect", "sweep-calibrate", "model-select"
    capture_write = res[cap]["pass_functions"]["fileio.atomic_write_text"]
    flagging = res[cap]["pass_functions"]["detector.evaluate_windows"]
    fits = res[sel]["pass_functions"]["regression.fit"]
    values = {
        "traffic_sim.simulate.us_per_record": (per("traffic_sim.simulate", "records", 1e6), "us/record"),
        "traffic_sim.write_series.us_per_record": (per("traffic_sim.write_series", "records", 1e6), "us/record"),
        "traffic_sim.read_series.us_per_record": (per("traffic_sim.read_series", "records", 1e6), "us/record"),
        "entropy_core.windowize.us_per_record": (per("entropy_core.windowize", "records", 1e6), "us/record"),
        "entropy_core.compute_entropy.us_per_window": (per("entropy_core.compute_entropy", "calls", 1e6), "us/window"),
        "entropy_core.compute_entropy.calls": (per_pass(cap, "entropy_core.compute_entropy", "calls"), "count/pass"),
        "detector.evaluate_windows.us_per_window": (per("detector.evaluate_windows", "windows", 1e6), "us/window"),
        "detector.flagged_ratio": (flagging["flagged"] / flagging["windows"], "ratio"),
        "pipeline.run_events.self_s": (per_pass(cap, "pipeline.run_events", "self"), "s/pass"),
        "pipeline.calibrate.self_s": (per_pass(swp, "pipeline.calibrate", "self"), "s/pass"),
        "pipeline.compare_models.self_s": (per_pass(sel, "pipeline.compare_models", "self"), "s/pass"),
        "pipeline.estimate_strength.us_per_event": (per("pipeline.estimate_strength", "events", 1e6), "us/event"),
        "pipeline.estimate_strength.clamped": (per_pass(cap, "pipeline.estimate_strength", "clamped"), "count/pass"),
        "pipeline.estimate_strength.skipped": (per_pass(cap, "pipeline.estimate_strength", "skipped"), "count/pass"),
    }
    for family in ("linear", "polynomial", "logarithmic", "power", "exponential"):
        values[f"regression.fit.{family}.us_per_call"] = (
            per(f"regression.fit.{family}", "calls", 1e6), "us/call")
    values.update({
        "regression.fit.skipped_ratio": (fits["skipped"] / fits["calls"], "ratio"),
        "regression.predict.calls": (per_pass(sel, "regression.predict", "calls"), "count/pass"),
        "regression.save_model.us_per_call": (per("regression.save_model", "calls", 1e6), "us/call"),
        "regression.load_model.us_per_call": (per("regression.load_model", "calls", 1e6), "us/call"),
        "metrics.evaluate.us_per_call": (per("metrics.evaluate", "calls", 1e6), "us/call"),
        "refdata.check_reference_reproduction.ms_per_call": (
            per("refdata.check_reference_reproduction", "calls", 1e3), "ms/call"),
        "fileio.atomic_write_text.bytes": (per_pass(cap, "fileio.atomic_write_text", "bytes"), "bytes/pass"),
        "fileio.atomic_write_text.mb_per_s": (
            capture_write["bytes"] / capture_write["dur"] / 1e6, "MB/s"),
        "cli.import_s": (statistics.median(res["readme-workflow"]["import_s"]), "s"),
    })
    cli_wall = res["readme-workflow"]["cli_wall_s"]
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.wall_s"] = (statistics.median(cli_wall[sub]), "s")
    values["runtime.gc.collections"] = (res[cap]["gc_collections"] + res[swp]["gc_collections"], "count/pass")
    values["runtime.gc.pause_s"] = (res[cap]["gc_pause_s"] + res[swp]["gc_pause_s"], "s/pass")
    for w in WORKLOAD_NAMES:
        r = res[w]
        overhead = (statistics.median(scaled(r["traced_pass_s"], r["traced_pass_ref_s"]))
                    - statistics.median(scaled(r["pass_s"], r["pass_ref_s"])))
        values[f"trace.{w}.overhead_s"] = (overhead, "s/pass")
        values[f"trace.{w}.coverage"] = (r["coverage"], "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one worker, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output per pass, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "floodgauge" / "__init__.py").is_file():
        print(f"perfbench: no floodgauge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    trace_dir = ROOT / ".perfbench_out"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = pinned_env(run_dir)

    if args.trace:
        names = [args.workload] + [w for w in WORKLOAD_NAMES if w != args.workload]
        jobs = [(w, args.seconds / len(names)) for w in names]
        trace_dir.mkdir(exist_ok=True)
    else:
        workers = 1 if args.tiny else WORKERS
        jobs = [(args.workload, args.seconds / workers)] * workers
    setups, results = [], []
    try:
        for i, (workload, seconds) in enumerate(jobs):
            cfg = {
                "workload": workload, "seed": args.seed, "seconds": seconds,
                "trace": bool(args.trace), "tiny": args.tiny, "corrupt": args.corrupt,
                "workdir": str(run_dir / f"{workload}-{i}"),
                "trace_file": str(trace_dir / f"trace-{workload}-seed{args.seed}.jsonl"),
            }
            Path(cfg["workdir"]).mkdir()
            setup_s, result = spawn(cfg, env, deadline)
            setups.append(setup_s)
            results.append(result)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print("env " + json.dumps({
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": results[0]["python"], "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "pinned": PINNED_ENV, "worker_threads": max(r["threads"] for r in results),
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds, "workers": len(jobs),
        "tiny": args.tiny,
    }, sort_keys=True))
    problems = [p for r in results for p in r["problems"]]
    if args.trace:
        metrics = layer_metrics(dict(zip([w for w, _ in jobs], results)))
        print("trace files " + str(trace_dir))
    else:
        problems += check_agreement(results)
        metrics = end_to_end(args.workload, setups, results)
        print("digests " + json.dumps({**results[0]["setup_digests"], **results[0]["digests"]},
                                      sort_keys=True))
    for p in problems:
        print("problem: " + p)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
