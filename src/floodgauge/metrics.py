"""Goodness-of-fit metrics for strength estimates against observations.

All metrics compare a computed (predicted) series against an observed
series of equal length. Two normalised-error variants are kept side by
side: ``nmse_eq11`` divides the mean squared error by the population
variance of the observations, while ``nmse_table2`` divides it by their
sample standard deviation. They answer different questions and both are
reported rather than folded into one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateDataError, DegenerateVarianceError, InputError
from .fileio import Table, format_float

# (FitReport field, report label) in report column order; the report CSV,
# the CLI tables and the JSON reports all follow this one list
METRICS = (
    ("r_squared", "r2"),
    ("cc", "cc"),
    ("sse", "sse"),
    ("mse", "mse"),
    ("rmse", "rmse"),
    ("nmse_eq11", "nmse_eq11"),
    ("nmse_table2", "nmse_table2"),
    ("eta", "eta"),
    ("mae_index", "mae_index"),
)

# rows are (model tag, metric values in METRICS order)
REPORT_TABLE = Table(
    ("model",) + tuple(label for _, label in METRICS),
    lambda row: (row[0], tuple(float(v) for v in row[1:])),
    lambda row: ",".join([row[0], *map(format_float, row[1])]),
)


@dataclass(frozen=True)
class FitReport:
    """One model's full metric row."""

    r_squared: float
    cc: float
    sse: float
    mse: float
    rmse: float
    nmse_eq11: float
    nmse_table2: float
    eta: float
    mae_index: float
    mean_abs_error: float
    sample_count: int
    cc_defined: bool = True


def evaluate(observed: Sequence[float], computed: Sequence[float]) -> FitReport:
    """Score a computed series against observations.

    Needs at least two samples and non-constant observations. A constant
    computed series leaves the correlation (and the squared correlation)
    undefined; those fields come back NaN with ``cc_defined`` False.
    """
    n = len(observed)
    if n != len(computed):
        raise InputError(f"observed and computed lengths differ: {n} vs {len(computed)}")
    if n < 2:
        raise InputError(f"need >= 2 samples to evaluate a fit, got {n}")
    obs = [float(v) for v in observed]
    comp = [float(v) for v in computed]

    try:
        obs_mean = math.fsum(obs) / n
        sst = math.fsum((o - obs_mean) ** 2 for o in obs)
        if sst == 0.0:
            raise DegenerateVarianceError("observed values are all equal")

        sse = math.fsum((c - o) ** 2 for c, o in zip(comp, obs))
        mse = sse / n
        rmse = math.sqrt(mse)
        abs_err = math.fsum(abs(c - o) for c, o in zip(comp, obs))

        comp_mean = math.fsum(comp) / n
        comp_ss = math.fsum((c - comp_mean) ** 2 for c in comp)
        if comp_ss == 0.0:
            cc = float("nan")
            cc_defined = False
        else:
            cov = math.fsum((c - comp_mean) * (o - obs_mean) for c, o in zip(comp, obs))
            cc = cov / math.sqrt(comp_ss * sst)
            cc_defined = True
    except OverflowError as exc:
        raise DegenerateDataError(f"metrics overflow the float range: {exc}") from exc

    return FitReport(
        r_squared=cc * cc,
        cc=cc,
        sse=sse,
        mse=mse,
        rmse=rmse,
        nmse_eq11=mse / (sst / n),
        nmse_table2=mse / math.sqrt(sst / (n - 1)),
        eta=1.0 - sse / sst,
        mae_index=1.0 - abs_err / math.fsum(abs(o - obs_mean) for o in obs),
        mean_abs_error=abs_err / n,
        sample_count=n,
        cc_defined=cc_defined,
    )


@dataclass(frozen=True)
class ResidualSeries:
    """Signed residuals with their sign tally.

    The convention throughout is computed minus observed, so a positive
    residual is an overestimate.
    """

    values: tuple[float, ...]
    positive_count: int
    negative_count: int
    zero_count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ResidualSeries":
        vals = tuple(float(v) for v in values)
        return cls(
            vals,
            sum(1 for v in vals if v > 0),
            sum(1 for v in vals if v < 0),
            sum(1 for v in vals if v == 0),
        )


def residual_summary(series: ResidualSeries) -> tuple[int, int, float]:
    """Sign counts and largest magnitude: (positive, negative, max abs)."""
    if not series.values:
        raise InputError("residual series is empty")
    return (
        series.positive_count,
        series.negative_count,
        max(abs(v) for v in series.values),
    )


def metric_values(report: FitReport) -> tuple[float, ...]:
    """The report's metrics in METRICS order."""
    return tuple(getattr(report, field) for field, _ in METRICS)


def report_to_dict(report: FitReport) -> dict:
    """Report as a JSON-ready mapping; undefined metrics become null."""
    out: dict = {}
    for field, _ in METRICS:
        v = getattr(report, field)
        out[field] = None if math.isnan(v) else v
    out["mean_abs_error"] = report.mean_abs_error
    out["sample_count"] = report.sample_count
    out["cc_defined"] = report.cc_defined
    return out
