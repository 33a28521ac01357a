"""Reference calibration sweep and its published metric summary.

The package ships the calibration measurements of a 400-client,
100-zombie flooding testbed swept over aggregate attack strengths of
10 to 100 Mbps in 5 Mbps steps, together with the metric summary
published for the five model families on that sweep. Refitting the
families to the sweep must land within tolerance of the published
numbers; the reproduce-table2 command automates exactly that check.

The published summary carries one NMSE column, which corresponds to
the ``nmse_table2`` variant (mean squared error over the sample
standard deviation of the observed strengths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .metrics import METRICS
from .pipeline import ModelComparisonReport, compare_models
from .regression import DEFAULT_POLY_DEGREE, CalibrationDataset

REFERENCE_STRENGTHS_MBPS = tuple(float(v) for v in range(10, 101, 5))

REFERENCE_DEVIATIONS = (
    0.149, 0.169, 0.184, 0.192, 0.199, 0.197, 0.195, 0.195, 0.208, 0.212,
    0.233, 0.241, 0.244, 0.253, 0.279, 0.280, 0.299, 0.296, 0.319,
)

EXPECTED_BEST_FAMILY = "polynomial"

# the published summary has every metrics.METRICS column but nmse_eq11
_SUMMARY_FIELDS = tuple(field for field, _ in METRICS if field != "nmse_eq11")
_PUBLISHED = {
    #               r2    cc    sse      mse     rmse   nmse  eta   mae_index
    "linear":      (0.95, 0.97, 708.13,  37.27,  6.10,  1.32, 0.95, 0.78),
    "polynomial":  (0.96, 0.98, 566.31,  29.81,  5.46,  1.06, 0.96, 0.81),
    "logarithmic": (0.96, 0.98, 596.96,  31.42,  5.61,  1.12, 0.96, 0.80),
    "power":       (0.89, 0.94, 2643.90, 139.15, 11.80, 4.95, 0.81, 0.59),
    "exponential": (0.84, 0.92, 3995.70, 210.30, 14.50, 7.47, 0.72, 0.51),
}

# published per-family summary; keys are FitReport field names
REFERENCE_SUMMARY: dict[str, dict[str, float]] = {
    family: dict(zip(_SUMMARY_FIELDS, row)) for family, row in _PUBLISHED.items()
}

# published values are rounded; squared-error magnitudes get a relative
# band, bounded indices an absolute one
_RELATIVE_TOLERANCE = {"sse": 0.05, "mse": 0.05, "rmse": 0.05}
_ABSOLUTE_TOLERANCE = {
    "r_squared": 0.01,
    "cc": 0.01,
    "mae_index": 0.01,
    "nmse_table2": 0.05,
    "eta": 0.01,
}
_ETA_WIDE_FAMILIES = ("power", "exponential")
_ETA_WIDE_TOLERANCE = 0.02


def reference_dataset() -> CalibrationDataset:
    """The bundled sweep as a ready-to-fit calibration dataset."""
    return CalibrationDataset.from_pairs(
        zip(REFERENCE_DEVIATIONS, REFERENCE_STRENGTHS_MBPS)
    )


@dataclass(frozen=True)
class MetricCheck:
    """Comparison of one computed summary cell against its published value."""

    family: str
    metric: str
    computed: float
    published: float
    tolerance_kind: str
    tolerance: float
    ok: bool


@dataclass(frozen=True)
class ReproductionResult:
    """Outcome of refitting the families to the reference sweep."""

    checks: tuple[MetricCheck, ...]
    comparison: ModelComparisonReport
    expected_best: str
    best_ok: bool

    @property
    def ok(self) -> bool:
        return self.best_ok and all(c.ok for c in self.checks)


def _check_cell(family: str, metric: str, computed: float) -> MetricCheck:
    published = REFERENCE_SUMMARY[family][metric]
    if metric in _RELATIVE_TOLERANCE:
        kind, tol = "rel", _RELATIVE_TOLERANCE[metric]
    elif metric == "eta" and family in _ETA_WIDE_FAMILIES:
        kind, tol = "abs", _ETA_WIDE_TOLERANCE
    else:
        kind, tol = "abs", _ABSOLUTE_TOLERANCE[metric]
    if math.isnan(computed):
        ok = False
    elif kind == "rel":
        ok = abs(computed - published) <= tol * abs(published)
    else:
        ok = abs(computed - published) <= tol
    return MetricCheck(family, metric, computed, published, kind, tol, ok)


def check_reference_reproduction(degree: int = DEFAULT_POLY_DEGREE) -> ReproductionResult:
    """Refit all families to the bundled sweep and compare to the summary.

    Every family/metric cell is checked at its tolerance, and the family
    ranked best by eta must match the published winner.
    """
    comparison = compare_models(reference_dataset(), degree=degree)
    checks: list[MetricCheck] = []
    for family in REFERENCE_SUMMARY:
        if family not in comparison.reports:
            reason = comparison.skipped.get(family, "not fitted")
            raise AssertionError(
                f"reference sweep must fit every family, {family} skipped: {reason}"
            )
        report = comparison.reports[family]
        for metric in REFERENCE_SUMMARY[family]:
            checks.append(_check_cell(family, metric, getattr(report, metric)))
    return ReproductionResult(
        checks=tuple(checks),
        comparison=comparison,
        expected_best=EXPECTED_BEST_FAMILY,
        best_ok=comparison.best_model.tag == EXPECTED_BEST_FAMILY,
    )
