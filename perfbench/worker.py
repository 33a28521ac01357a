"""Run one workload in this fresh process and report on the last line.

Started by run.py, one process per workload, never two at once. The
single argument is a JSON object with the keys ``workload``, ``seed``,
``seconds``, ``trace``, ``tiny``, ``corrupt``, ``workdir`` and
``trace_file``. After set-up and one untimed warm-up pass the worker
prints ``READY <time.monotonic()>``; it then runs passes back to back
(closed loop, one caller) until ``seconds`` have gone by, and finally
prints one JSON object with the pass times, counts and digests. Each
untraced pass, and the set-up, is bracketed by ``reference_seconds``
so that run.py can scale its time to a fixed machine speed; set-up is
sampled before input generation, before the warm-up pass and after it.

With ``trace`` set, passes alternate untraced and traced, set-up is
traced too, and the summary carries per-span totals; the spans
themselves go to ``trace_file``.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, summarize, top_level_time
from workloads import WORKLOADS, ReadmeWorkflow, output_digest


# fixed reference work, independent of floodgauge: integer bytecode, and
# the CSV parsing, tuple and dict churn and float maths the package does
REFERENCE_LOOP = 200_000
REFERENCE_CSV = "".join(f"{i % 50},legit-{i % 400:04d},{25000 + i % 977}\n"
                        for i in range(6000))


def _integer_loop() -> None:
    x = 0
    for j in range(REFERENCE_LOOP):
        x += j


def _object_work() -> None:
    sums: dict = {}
    for w, flow, nbytes in csv.reader(io.StringIO(REFERENCE_CSV)):
        key = (int(w), flow)
        sums[key] = sums.get(key, 0) + int(nbytes)
    math.fsum(v * math.log2(v) for v in sums.values())


def reference_seconds() -> float:
    """How fast the machine runs right now: geometric mean of two timings.

    On a shared host the same code runs up to 1.5 times slower for
    stretches of seconds to minutes, set by other tenants, and not by the
    same factor for every kind of code; timing two kinds of fixed work
    tracks that better than one. The collector is paused so that the
    heap a pass left behind does not time into the reference.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        _integer_loop()
        middle = time.perf_counter()
        _object_work()
        end = time.perf_counter()
    finally:
        gc.enable()
    return math.sqrt((middle - start) * (end - middle))


class Runner:
    def __init__(self, cfg: dict) -> None:
        self.workload = WORKLOADS[cfg["workload"]](cfg["tiny"])
        self.corrupt = cfg["corrupt"]
        self.workdir = Path(cfg["workdir"])
        self.tracer = Tracer() if cfg["trace"] else None
        self.reference_digests: dict | None = None
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.pass_s: list[float] = []
        self.pass_ref_s: list[float] = []
        self.traced_pass_s: list[float] = []
        self.traced_pass_ref_s: list[float] = []
        self.coverage: list[float] = []
        self.cli_wall_s: dict[str, list[float]] = {}

    def run_pass(self, index: int, traced: bool) -> float:
        """One pass: timed job, then untimed corruption, check and digest."""
        outdir = self.workdir / f"pass-{index:04d}"
        outdir.mkdir()
        self.attempted += 1
        tracer = self.tracer if traced else None
        if tracer:
            tracer.pass_id = index
            tracer.install()
        start = time.perf_counter()
        try:
            self.workload.run_pass(outdir)
            problems = []
        except Exception as exc:  # a failed pass is counted, not fatal
            problems = [f"pass raised {type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
            # the CLI children are opaque to the tracer: one span per command
            for name, begin, end, _, _ in getattr(self.workload, "commands", ()):
                tracer.add_span(f"cli.{name}", begin, end)
                self.cli_wall_s.setdefault(name, []).append(end - begin)
            self.coverage.append(top_level_time(tracer.spans, index) / elapsed)
            tracer.pass_id = None
        if not problems:
            if self.corrupt:
                self.workload.corrupt(outdir)
            try:
                problems = self.workload.check(outdir)
                digests = output_digest(p for p in outdir.iterdir() if p.is_file())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            else:
                if self.reference_digests is None:
                    self.reference_digests = digests
                elif digests != self.reference_digests:
                    problems.append("outputs differ from the first pass")
        shutil.rmtree(outdir)
        if problems:
            self.failed += 1
            self.problems.extend(f"pass {index}: {p}" for p in problems[:3])
        return elapsed

    def run(self, seed: int, seconds: float) -> dict:
        tracer = self.tracer
        setup_refs = [reference_seconds()]
        if tracer:
            tracer.pass_id = "setup"
            tracer.install()
        self.workload.setup(seed, self.workdir)
        if tracer:
            tracer.uninstall()
            tracer.gc_collections, tracer.gc_pause_s = 0, 0.0
        setup_digests = output_digest(self.workload.setup_files)
        setup_refs.append(reference_seconds())
        self.run_pass(0, traced=False)
        setup_refs.append(reference_seconds())
        print("READY", repr(time.monotonic()), flush=True)

        deadline = time.perf_counter() + seconds
        index = 1
        while True:
            before = reference_seconds()
            self.pass_s.append(self.run_pass(index, traced=False))
            self.pass_ref_s.append((before + reference_seconds()) / 2)
            index += 1
            if tracer:
                before = reference_seconds()
                self.traced_pass_s.append(self.run_pass(index, traced=True))
                self.traced_pass_ref_s.append((before + reference_seconds()) / 2)
                index += 1
            if time.perf_counter() >= deadline:
                break

        result = {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:10],
            "pass_s": self.pass_s,
            "pass_ref_s": self.pass_ref_s,
            "setup_ref_s": statistics.fmean(setup_refs),
            "setup_digests": setup_digests,
            "digests": self.reference_digests or {},
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children_peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            "threads": threading.active_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
        if tracer:
            traced_ids = set(range(2, index, 2))
            result.update(
                traced_pass_s=self.traced_pass_s,
                traced_pass_ref_s=self.traced_pass_ref_s,
                functions=summarize(tracer.spans, traced_ids | {"setup"}),
                pass_functions=summarize(tracer.spans, traced_ids),
                coverage=statistics.median(self.coverage),
                gc_collections=tracer.gc_collections / len(self.traced_pass_s),
                gc_pause_s=tracer.gc_pause_s / len(self.traced_pass_s),
                cli_wall_s=self.cli_wall_s,
            )
            if isinstance(self.workload, ReadmeWorkflow):
                result["import_s"] = [ReadmeWorkflow.import_seconds() for _ in range(3)]
        return result


def main() -> int:
    cfg = json.loads(sys.argv[1])
    runner = Runner(cfg)
    result = runner.run(cfg["seed"], cfg["seconds"])
    if runner.tracer:
        runner.tracer.write_jsonl(cfg["trace_file"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
