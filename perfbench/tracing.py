"""Span tracing of calls into floodgauge's public functions.

The tracer replaces each traced function at every module attribute it is
reachable through (``pipeline.windowize`` as well as
``entropy_core.windowize``), so calls made inside the package are seen
as well as calls made by the benchmark. Nothing under ``src/`` changes:
the originals are put back by ``uninstall``.

A span is ``(name, start, end, parent, pass_id, attrs)``; ``parent`` is
the index of the enclosing span or None. Spans stay in memory and are
written out once, when the worker ends.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time

# Counts recorded beside a span, taken from the call's arguments and
# result (None when the call raised). Functions absent here record only
# their duration.
def _series_out(args, result):
    return {"records": len(result.records)} if result is not None else {}


def _records_out(args, result):
    return {"records": len(result)} if result is not None else {}


def _write_series(args, result):
    return {"records": len(args[1].records)}


def _windowize(args, result):
    return {"records": len(args[0])}


def _evaluate_windows(args, result):
    if result is None:
        return {}
    return {"windows": len(result), "flagged": sum(e.attack_flag for e in result)}


def _estimate_strength(args, result):
    events = sum(e.attack_flag for e in args[1])
    if result is None:
        return {"events": events}
    clamped = sum(e.clamped for e in result)
    return {"events": events, "clamped": clamped, "skipped": events - len(result)}


def _fit(args, result):
    return {"family": args[1].tag, "skipped": int(result is None)}


def _atomic_write_text(args, result):
    return {"bytes": len(args[1].encode("utf-8"))}


TARGETS = {
    "traffic_sim.simulate": _series_out,
    "traffic_sim.sweep": None,
    "traffic_sim.write_series": _write_series,
    "traffic_sim.read_series": _series_out,
    "entropy_core.read_flow_csv": _records_out,
    "entropy_core.windowize": _windowize,
    "entropy_core.compute_entropy": None,
    "detector.build_baseline": None,
    "detector.evaluate_windows": _evaluate_windows,
    "pipeline.run_events": None,
    "pipeline.calibrate": None,
    "pipeline.compare_models": None,
    "pipeline.estimate_strength": _estimate_strength,
    "pipeline.write_calibration_csv": None,
    "detector.write_events_csv": None,
    "pipeline.write_estimates_csv": None,
    "regression.fit": _fit,
    "regression.predict": None,
    "regression.residuals": None,
    "regression.save_model": None,
    "regression.load_model": None,
    "metrics.evaluate": None,
    "refdata.check_reference_reproduction": None,
    "fileio.atomic_write_text": _atomic_write_text,
}


class Tracer:
    """Records spans for the target functions while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.pass_id: object = None
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def install(self) -> None:
        """Wrap every target at every floodgauge module attribute bound to it."""
        originals = {}
        for name in TARGETS:
            module, attr = name.split(".")
            originals[id(getattr(sys.modules[f"floodgauge.{module}"], attr))] = name
        wrappers: dict[int, object] = {}
        for modname, module in list(sys.modules.items()):
            if modname != "floodgauge" and not modname.startswith("floodgauge."):
                continue
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value, TARGETS[name])
                self._saved.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_start

    def _wrap(self, name, func, extract):
        spans = self.spans
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = extract(args, result) if extract is not None else None
                spans[index] = (name, start, end, parent, self.pass_id, attrs)

        return traced

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller, such as a CLI child process."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((name, start, end, parent, self.pass_id, None))

    def write_jsonl(self, path) -> None:
        """One span per line: ``[id, name, start, end, parent, pass_id, attrs]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")


def summarize(spans, pass_ids) -> dict:
    """Per-name totals over the spans whose pass id is in ``pass_ids``.

    Each entry holds the call count, the summed duration, the summed self
    time (duration minus the time child spans cover) and the sum of every
    numeric attribute; ``regression.fit`` is also split by family.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, pass_id, attrs in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, dict] = {}
    for i, (name, start, end, parent, pass_id, attrs) in enumerate(spans):
        if pass_id not in pass_ids:
            continue
        keys = [name]
        if attrs and "family" in attrs:
            keys.append(f"{name}.{attrs['family']}")
        for key in keys:
            entry = totals.setdefault(key, {"calls": 0, "dur": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["dur"] += end - start
            entry["self"] += end - start - child_time[i]
            for k, v in (attrs or {}).items():
                if isinstance(v, (int, float)):
                    entry[k] = entry.get(k, 0) + v
    return totals


def top_level_time(spans, pass_id) -> float:
    """Summed duration of the spans of one pass that have no parent."""
    return sum(end - start for name, start, end, parent, pid, attrs in spans
               if pid == pass_id and parent is None)
