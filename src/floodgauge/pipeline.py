"""End-to-end flows: calibrate from labeled runs, compare, estimate.

Calibration condenses each labeled run (a known aggregate attack
strength) into one (deviation, strength) sample by averaging the
deviation over the run's flagged windows. Estimation applies a fitted
model to fresh detection events, clamping negative predictions to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ConfigError, DegenerateDataError, DomainError, EmptyRunError, naming
from .fileio import (
    Table,
    atomic_write_text,
    format_flag,
    format_float,
    parse_flag,
    parse_index,
    read_table,
    table_text,
)
from .metrics import REPORT_TABLE, FitReport, evaluate, metric_values, report_to_dict
from .regression import (
    MODEL_FAMILIES,
    SELECTION_CRITERIA,
    CalibrationDataset,
    CalibrationSample,
    FittedModel,
    ModelKind,
    fit,
    predict,
    predict_all,
)

if TYPE_CHECKING:
    from .detector import Baseline, DetectionEvent
    from .entropy_core import FlowRecordSeries


@dataclass(frozen=True)
class StrengthEstimate:
    """Estimated aggregate attack strength for one flagged window."""

    window_index: int
    deviation: float
    estimated_strength_mbps: float
    clamped: bool


@dataclass(frozen=True)
class ModelComparisonReport:
    """Per-family fits and metrics plus the winning family.

    ``reports``, ``fitted`` and ``skipped`` list families in
    MODEL_FAMILIES order.
    """

    reports: Mapping[str, FitReport]
    fitted: Mapping[str, FittedModel]
    skipped: Mapping[str, str]
    best_model: ModelKind
    selection_criterion: str


def run_events(series: FlowRecordSeries, baseline: Baseline) -> list[DetectionEvent]:
    """Compute each window's entropy and score every window."""
    from .detector import evaluate_windows
    entropies = series.entropies()
    if not entropies:
        raise EmptyRunError("run contains no windows")
    return evaluate_windows(entropies, baseline)


def calibrate(
    labeled_runs: Iterable[tuple[float, FlowRecordSeries]], baseline: Baseline
) -> CalibrationDataset:
    """Build (deviation, strength) samples from labeled attack runs.

    Each run's deviation is the mean over its flagged windows; a run
    with no flagged window cannot contribute a sample and aborts the
    calibration. The runs are iterated once and none is kept, so a lazy
    ``sweep`` or generator holds one run at a time. Samples come back
    sorted by strength.
    """
    samples = []
    for strength, series in labeled_runs:
        events = run_events(series, baseline)
        flagged = [e.deviation for e in events if e.attack_flag]
        if not flagged:
            raise EmptyRunError(f"run at {strength} Mbps produced no flagged windows")
        deviation = math.fsum(flagged) / len(flagged)
        samples.append(CalibrationSample(deviation, float(strength)))
    if not samples:
        raise EmptyRunError("calibration received no runs")
    samples.sort(key=lambda s: s.y)
    return CalibrationDataset(tuple(samples))


def _score(report: FitReport, criterion: str) -> float:
    """Ranking score, higher is better; an undefined metric ranks last."""
    value = getattr(report, criterion)
    if math.isnan(value):
        return -math.inf
    return -value if criterion == "sse" else value


def compare_models(
    data: CalibrationDataset,
    degree: int | None = None,
    criterion: str = "eta",
) -> ModelComparisonReport:
    """Fit every family to the same data and rank them.

    Families whose domain the data violates, or whose fit or in-sample
    score is degenerate, are skipped with the reason recorded rather
    than failing the whole comparison. Ranking uses the
    chosen criterion (eta or r_squared maximised, sse minimised); ties
    keep the earlier family in MODEL_FAMILIES order. The fits and the
    scores share the dataset's columns and their moments, so each report
    is what ``evaluate`` gives for that family's predictions.
    """
    if criterion not in SELECTION_CRITERIA:
        raise ConfigError(
            f"criterion must be one of {SELECTION_CRITERIA}, got {criterion!r}"
        )
    reports: dict[str, FitReport] = {}
    fitted: dict[str, FittedModel] = {}
    skipped: dict[str, str] = {}
    for tag in MODEL_FAMILIES:
        kind = ModelKind(tag, degree if tag == "polynomial" else None)
        try:
            model = fit(data, kind)
            report = evaluate(data.y, predict_all(model, data.x.values))
        except (DomainError, DegenerateDataError) as exc:
            skipped[tag] = str(exc)
            continue
        fitted[tag] = model
        reports[tag] = report
    if not fitted:
        raise DegenerateDataError(
            "no model family could be fit: "
            + "; ".join(f"{tag}: {reason}" for tag, reason in skipped.items())
        )
    # reports follow MODEL_FAMILIES order and max keeps the first of equals
    best_tag = max(reports, key=lambda tag: _score(reports[tag], criterion))
    return ModelComparisonReport(
        reports=reports,
        fitted=fitted,
        skipped=skipped,
        best_model=fitted[best_tag].kind,
        selection_criterion=criterion,
    )


def estimate_strength(
    model: FittedModel, events: Sequence[DetectionEvent]
) -> list[StrengthEstimate]:
    """Estimate strength for every flagged event.

    Windows the model cannot evaluate (deviation outside its domain) are
    skipped with a warning. Negative predictions clamp to zero and are
    marked clamped.
    """
    estimates: list[StrengthEstimate] = []
    for event in events:
        if not event.attack_flag:
            continue
        try:
            raw = predict(model, event.deviation)
        except DomainError as exc:
            import logging
            logging.getLogger(__name__).warning("window %d skipped: %s", event.window_index, exc)
            continue
        clamped = raw < 0
        estimates.append(
            StrengthEstimate(
                event.window_index, event.deviation, 0.0 if clamped else raw, clamped
            )
        )
    return estimates


CALIBRATION_TABLE = Table(
    ("deviation", "strength_mbps"),
    lambda row: CalibrationSample(float(row[0]), float(row[1])),
    lambda s: f"{format_float(s.x)},{format_float(s.y)}",
)

ESTIMATES_TABLE = Table(
    ("window_index", "deviation", "estimate_mbps", "clamped"),
    lambda row: StrengthEstimate(
        parse_index(row[0], "window_index"), float(row[1]), float(row[2]),
        parse_flag(row[3], "clamped"),
    ),
    lambda e: f"{e.window_index},{format_float(e.deviation)},"
    f"{format_float(e.estimated_strength_mbps)},{format_flag(e.clamped)}",
)


def write_calibration_csv(path, data: CalibrationDataset) -> None:
    atomic_write_text(path, table_text(CALIBRATION_TABLE, data.samples))


def read_calibration_csv(path) -> CalibrationDataset:
    samples = read_table(path, CALIBRATION_TABLE)
    with naming(path):
        return CalibrationDataset(tuple(samples))


def comparison_to_csv(report: ModelComparisonReport) -> str:
    rows = [(tag, metric_values(r)) for tag, r in report.reports.items()]
    return table_text(REPORT_TABLE, rows)


def comparison_to_dict(report: ModelComparisonReport) -> dict:
    models: dict = {tag: {"skipped": reason} for tag, reason in report.skipped.items()}
    for tag, r in report.reports.items():
        entry = report_to_dict(r)
        entry["coefficients"] = list(report.fitted[tag].coefficients)
        entry["fit_method"] = report.fitted[tag].fit_method
        models[tag] = entry
    return {
        "criterion": report.selection_criterion,
        "best_model": {"tag": report.best_model.tag, "degree": report.best_model.degree},
        "models": models,
    }


def write_estimates_csv(path, estimates: Sequence[StrengthEstimate]) -> None:
    atomic_write_text(path, table_text(ESTIMATES_TABLE, estimates))
