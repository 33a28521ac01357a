"""Command line interface.

Subcommands cover the full workflow: simulate traffic, learn a
baseline, calibrate deviation against known strengths, fit and compare
regression families, estimate strength for fresh detections, and check
the bundled reference sweep against its published summary.

Exit codes: 0 on success, 1 on domain or data errors (message on
stderr), 2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from typing import Sequence

# each handler imports the modules it runs, so parsing loads only these
from .errors import ConfigError, EmptyRunError, FloodgaugeError, InputError, naming
from .families import MAX_POLY_DEGREE, MODEL_FAMILIES, SELECTION_CRITERIA

SEED_ENV_VAR = "FLOODGAUGE_SEED"


def _table(rows: Sequence[Sequence[str]]) -> str:
    """Align rows into columns; first column left, the rest right."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    out = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells.extend(cell.rjust(w) for cell, w in zip(row[1:], widths[1:]))
        out.append("  ".join(cells).rstrip())
    return "\n".join(out)


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get(SEED_ENV_VAR) or "0"
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _finite_float(text: str, zero_ok: bool) -> float:
    """Parse a finite number above zero (or zero too, if ``zero_ok``), or refuse it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
        what = "number >= 0" if zero_ok else "positive number"
        raise argparse.ArgumentTypeError(f"expected a finite {what}, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    return _finite_float(text, zero_ok=False)


def _non_negative_float(text: str) -> float:
    return _finite_float(text, zero_ok=True)


def _poly_degree(text: str) -> int:
    """Parse a polynomial degree in 1..MAX_POLY_DEGREE, or refuse it."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_POLY_DEGREE:
        raise argparse.ArgumentTypeError(
            f"expected a whole number in 1..{MAX_POLY_DEGREE}, got {text!r}"
        )
    return value


def _parse_run_arg(text: str) -> tuple[float, str]:
    strength, sep, path = text.partition("=")
    if not sep or not path:
        raise argparse.ArgumentTypeError(f"expected STRENGTH=PATH, got {text!r}")
    return _positive_float(strength), path


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .entropy_core import write_series
    from .traffic_sim import ScenarioConfig, simulate
    # a flag left out is absent from args, so ScenarioConfig's default holds
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(ScenarioConfig)
             if f.name in args}
    cfg = ScenarioConfig(**{**given, "seed": _resolve_seed(args.seed)})
    series = simulate(cfg)
    write_series(args.out, series)
    print(
        f"wrote {series.record_count} flow records over {cfg.num_windows} windows "
        f"to {args.out} (seed {series.metadata['seed']})"
    )
    if cfg.zombies > 0 and cfg.attack_rate_mbps_per_zombie > 0:
        print(f"aggregate attack strength: {cfg.attack_strength_mbps:.2f} Mbps")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from .detector import DEFAULT_THRESHOLD, build_baseline, save_baseline
    from .entropy_core import read_series
    entropies = read_series(args.flows, args.window_ms).entropies()
    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    with naming(args.flows):
        baseline = build_baseline(entropies, threshold=threshold)
    save_baseline(args.out, baseline)
    empty = sum(1 for e in entropies if e.flow_count == 0)
    print(
        f"baseline h_n={baseline.h_n:.4f} bits over {baseline.training_windows} "
        f"windows{f', {empty} empty' if empty else ''} (threshold {baseline.threshold}) "
        f"-> {args.out}"
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from .detector import load_baseline
    from .entropy_core import read_series
    from .pipeline import calibrate, write_calibration_csv
    baseline = load_baseline(args.baseline)
    path = None  # the --run file calibrate read last

    def labeled():
        nonlocal path
        for strength, path in args.run:
            yield strength, read_series(path, args.window_ms)

    try:
        data = calibrate(labeled(), baseline)
    except EmptyRunError as exc:
        raise EmptyRunError(f"{path}: {exc}") from exc
    write_calibration_csv(args.out, data)
    print(f"wrote {len(data.samples)} calibration samples to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from .pipeline import read_calibration_csv
    from .regression import ModelKind, fit, save_model
    data = read_calibration_csv(args.data)
    kind = ModelKind(args.model, args.degree)
    with naming(args.data):
        model = fit(data, kind)
    save_model(args.out, model)
    coeffs = ", ".join(f"b{i}={c:.6g}" for i, c in enumerate(model.coefficients))
    label = kind.tag if kind.degree is None else f"{kind.tag} degree {kind.degree}"
    print(f"fitted {label} via {model.fit_method}: {coeffs}")
    print(f"model written to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .fileio import write_json
    from .metrics import METRICS, evaluate, report_to_dict
    from .pipeline import read_calibration_csv
    from .regression import load_model, predict_all
    model = load_model(args.model)
    data = read_calibration_csv(args.data)
    with naming(args.data):
        report = evaluate(data.y, predict_all(model, data.x.values))
    rows = [["metric", "value"]]
    rows.extend([label, f"{getattr(report, field):.2f}"] for field, label in METRICS)
    rows.append(["mean_abs_error", f"{report.mean_abs_error:.2f}"])
    rows.append(["samples", str(report.sample_count)])
    print(_table(rows))
    if args.out_json:
        payload = report_to_dict(report)
        payload["model"] = model.kind.tag
        payload["degree"] = model.kind.degree
        write_json(args.out_json, payload)
        print(f"report written to {args.out_json}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .fileio import atomic_write_text, write_json
    from .metrics import METRICS, metric_values
    from .pipeline import (
        compare_models, comparison_to_csv, comparison_to_dict, read_calibration_csv,
    )
    data = read_calibration_csv(args.data)
    with naming(args.data):
        comparison = compare_models(data, degree=args.degree, criterion=args.criterion)
    rows = [["model"] + [label for _, label in METRICS]]
    rows.extend([tag] + [f"{v:.2f}" for v in metric_values(report)]
                for tag, report in comparison.reports.items())
    print(_table(rows))
    for tag, reason in comparison.skipped.items():
        print(f"{tag}: skipped ({reason})")
    best = comparison.best_model
    label = best.tag if best.degree is None else f"{best.tag} (degree {best.degree})"
    print(f"best model by {comparison.selection_criterion}: {label}")
    if args.out_csv:
        atomic_write_text(args.out_csv, comparison_to_csv(comparison))
        print(f"metrics written to {args.out_csv}")
    if args.out_json:
        write_json(args.out_json, comparison_to_dict(comparison))
        print(f"comparison written to {args.out_json}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from .detector import EVENTS_TABLE, DetectionEvent
    from .fileio import format_flag, read_table
    from .pipeline import CALIBRATION_TABLE, estimate_strength, write_estimates_csv
    from .regression import load_model
    model = load_model(args.model)
    # calibration rows carry only deviations: each becomes a flagged event at its position
    events = [r if isinstance(r, DetectionEvent) else DetectionEvent(i, math.nan, r.x, True)
              for i, r in enumerate(read_table(args.events, EVENTS_TABLE, CALIBRATION_TABLE))]
    # the detector writes each window once, in order; anything else is hand-made or corrupt
    for prev, event in zip(events, events[1:]):
        if event.window_index <= prev.window_index:
            raise InputError(f"{args.events}: window_index {event.window_index} follows "
                             f"{prev.window_index}; window indices must increase")
    estimates = estimate_strength(model, events)
    if estimates:
        rows = [["window", "deviation", "estimate_mbps", "clamped"]]
        rows.extend(
            [str(e.window_index), f"{e.deviation:.4f}",
             f"{e.estimated_strength_mbps:.2f}", format_flag(e.clamped)]
            for e in estimates
        )
        print(_table(rows))
    clamped = sum(1 for e in estimates if e.clamped)
    print(f"estimated {len(estimates)} flagged windows ({clamped} clamped)")
    if args.out:
        write_estimates_csv(args.out, estimates)
        print(f"estimates written to {args.out}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .fileio import write_json
    from .pipeline import comparison_to_dict
    from .refdata import check_reference_reproduction
    result = check_reference_reproduction()
    rows = [["family", "metric", "computed", "published", "tolerance", "status"]]
    for c in result.checks:
        tol = f"±{c.tolerance:.0%}" if c.tolerance_kind == "rel" else f"±{c.tolerance}"
        status = "ok" if c.ok else "FAIL"
        rows.append([c.family, c.metric, f"{c.computed:.4f}", f"{c.published:.2f}", tol, status])
    print(_table(rows))
    best = result.comparison.best_model.tag
    print(
        f"best family by {result.comparison.selection_criterion}: {best} "
        f"(expected {result.expected_best}) -> {'ok' if result.best_ok else 'FAIL'}"
    )
    failed = [c for c in result.checks if not c.ok]
    print(f"reproduction: {'PASS' if result.ok else 'FAIL'} "
          f"({len(result.checks) - len(failed)}/{len(result.checks)} cells in tolerance)")
    if args.out_json:
        payload = {
            "ok": result.ok,
            "best_family": best,
            "expected_best": result.expected_best,
            "checks": [dataclasses.asdict(c) for c in result.checks],
            "comparison": comparison_to_dict(result.comparison),
        }
        write_json(args.out_json, payload)
        print(f"result written to {args.out_json}")
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodgauge",
        description="Entropy-deviation flood detection and strength estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # ScenarioConfig holds the defaults; dest names its fields, metavar keeps the flag's name
    p = sub.add_parser("simulate", help="generate a synthetic traffic run",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, help="flow CSV to write (plus .meta.json)")
    p.add_argument("--legit-clients", type=int)
    p.add_argument("--zombies", type=int)
    p.add_argument("--attack-rate", type=float, dest="attack_rate_mbps_per_zombie",
                   metavar="ATTACK_RATE", help="Mbps per zombie (0 disables the attack)")
    p.add_argument("--legit-rate", type=float, dest="legit_mean_rate_mbps_per_client",
                   metavar="LEGIT_RATE", help="mean Mbps per legit client")
    p.add_argument("--window-ms", type=float, dest="window_length_ms", metavar="WINDOW_MS")
    p.add_argument("--windows", type=int, dest="num_windows", metavar="WINDOWS")
    p.add_argument("--seed", type=int, default=None,
                   help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("baseline", help="learn a baseline from clean traffic")
    p.add_argument("--flows", required=True, help="clean-run flow CSV")
    p.add_argument("--out", required=True, help="baseline JSON to write")
    p.add_argument("--threshold", type=_non_negative_float, default=None)
    p.add_argument("--window-ms", type=_positive_float, default=None,
                   help="window length when the run has no metadata sidecar")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("calibrate", help="build calibration data from labeled runs")
    p.add_argument("--run", action="append", required=True, type=_parse_run_arg,
                   metavar="STRENGTH=PATH", help="labeled attack run; repeat per strength")
    p.add_argument("--baseline", required=True, help="baseline JSON")
    p.add_argument("--out", required=True, help="calibration CSV to write")
    p.add_argument("--window-ms", type=_positive_float, default=None)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("fit", help="fit one model family to calibration data")
    p.add_argument("--data", required=True, help="calibration CSV")
    p.add_argument("--model", required=True, choices=MODEL_FAMILIES)
    p.add_argument("--degree", type=_poly_degree, default=None, help="polynomial degree")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("evaluate", help="score a fitted model on calibration data")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="calibration CSV")
    p.add_argument("--out-json", default=None, help="write the full-precision report")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="fit and rank all model families")
    p.add_argument("--data", required=True, help="calibration CSV")
    p.add_argument("--degree", type=_poly_degree, default=None, help="polynomial degree")
    p.add_argument("--criterion", choices=SELECTION_CRITERIA, default="eta")
    p.add_argument("--out-csv", default=None, help="write the metric table")
    p.add_argument("--out-json", default=None, help="write the full comparison")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("estimate", help="estimate strength for flagged windows")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--events", required=True,
                   help="events CSV (or calibration CSV of deviations)")
    p.add_argument("--out", default=None, help="estimates CSV to write")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("reproduce-table2",
                       help="refit the bundled reference sweep and check the published summary")
    p.add_argument("--out-json", default=None, help="write the check results")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FloodgaugeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
