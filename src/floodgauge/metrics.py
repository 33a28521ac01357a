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
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub
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


class _kept:
    """functools.cached_property without the lock it takes at each first read
    before Python 3.12, three per score; a method that raises keeps nothing."""

    def __init__(self, method) -> None:
        self.method = method

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.method.__name__] = self.method(obj)
        return value


def overflow_error(what: str, exc: ArithmeticError) -> DegenerateDataError:
    """``what: reason`` for an overflow; of pow's (errno, text) args, the text."""
    return DegenerateDataError(f"{what}: {exc.args[-1] if exc.args else exc}")


class Column:
    """A series of values with its least-squares moments, each made on first use.

    The fits and scores of a calibration share the columns its dataset keeps,
    and the scores of several computed series share the observed column. A
    moment whose sums overflow is not kept, so it raises again at each use.
    """

    def __init__(self, values: list[float]) -> None:
        self.values = values

    @_kept
    def mean(self) -> float:
        return math.fsum(self.values) / len(self.values)

    @_kept
    def centred(self) -> list[float]:
        return list(map(sub, self.values, repeat(self.mean)))

    @_kept
    def sum_sq(self) -> float:
        # pow(d, 2.0) is what ``d ** 2`` computes: past the float range it
        # raises OverflowError, where ``d * d`` would give inf
        return math.fsum(map(pow, self.centred, repeat(2.0)))

    @_kept
    def sum_abs(self) -> float:
        return math.fsum(map(abs, self.centred))

    def cross(self, other: "Column") -> float:
        """Sum of the products of the two columns' centred values."""
        try:
            return math.fsum(map(mul, self.centred, other.centred))
        except ValueError as exc:  # fsum of products past the float range, of both signs
            raise OverflowError(exc) from exc


def evaluate(observed: Sequence[float] | Column, computed: Sequence[float]) -> FitReport:
    """Score a computed series against observations.

    Needs equal lengths, then at least two samples, then finite values on
    both sides, then non-constant observations, checked in that order. A
    constant computed series leaves the correlation (and the squared
    correlation) undefined; those fields come back NaN with ``cc_defined``
    False. ``observed`` may be a Column, shared by the scores of several
    computed series; the report is the same, bit for bit.
    """
    if not isinstance(observed, Column):
        observed = Column([float(v) for v in observed])
    n = len(observed.values)
    if n != len(computed):
        raise InputError(f"observed and computed lengths differ: {n} vs {len(computed)}")
    if n < 2:
        raise InputError(f"need >= 2 samples to evaluate a fit, got {n}")
    comp = Column([float(v) for v in computed])
    for side, values in (("observed", observed.values), ("computed", comp.values)):
        if not all(map(math.isfinite, values)):
            i = next(i for i, v in enumerate(values) if not math.isfinite(v))
            raise InputError(f"{side} value at index {i} is not finite: {values[i]!r}")

    try:
        sst = observed.sum_sq
        if sst == 0.0:
            raise DegenerateVarianceError("observed values are all equal")
        obs_abs = observed.sum_abs

        diffs = list(map(sub, comp.values, observed.values))
        sse = math.fsum(map(pow, diffs, repeat(2.0)))
        mse = sse / n
        rmse = math.sqrt(mse)
        abs_err = math.fsum(map(abs, diffs))

        comp_ss = comp.sum_sq
        if comp_ss == 0.0:
            cc = float("nan")
            cc_defined = False
        else:
            cov = comp.cross(observed)
            scale = comp_ss * sst
            # split the root only when the product leaves the normal float range
            normal = sys.float_info.min <= scale <= sys.float_info.max
            cc = cov / (math.sqrt(scale) if normal else math.sqrt(comp_ss) * math.sqrt(sst))
            cc_defined = True
    except OverflowError as exc:
        raise overflow_error("metrics overflow the float range", exc) from exc

    return FitReport(
        r_squared=cc * cc,
        cc=cc,
        sse=sse,
        mse=mse,
        rmse=rmse,
        nmse_eq11=mse / (sst / n),
        nmse_table2=mse / math.sqrt(sst / (n - 1)),
        eta=1.0 - sse / sst,
        mae_index=1.0 - abs_err / obs_abs,
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
