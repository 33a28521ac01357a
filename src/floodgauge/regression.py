"""Regression families mapping entropy deviation to attack strength.

Five model families are supported, each predicting strength Y from
deviation X:

    linear        Y = b0 + b1*X
    polynomial    Y = b0 + b1*X + ... + bd*X^d
    logarithmic   Y = b0*ln(X) + b1
    power         Y = b0 * X^b1
    exponential   Y = b0 * exp(b1*X)

Linear, polynomial and logarithmic models are fit by ordinary least
squares on the raw responses. Power and exponential models are fit by
OLS on log-transformed responses and back-transformed, so their
coefficients minimise squared error in log space, not in the original
units. The fit_method field records which route produced a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Sequence

from .errors import DegenerateDataError, DomainError, InputError, brief_repr
# defined apart so that the command-line parser need not load this module; still
# importable from here
from .families import MAX_POLY_DEGREE, MODEL_FAMILIES, SELECTION_CRITERIA
from .fileio import json_field, json_number, read_json, write_json
from .metrics import Column, ResidualSeries, _kept, overflow_error

DEFAULT_POLY_DEGREE = 2

RAW_OLS = "raw_ols"
LOG_LINEARIZED = "log_linearized"

# the families defined only for x > 0, and those fit by OLS on ln y
POSITIVE_X = ("logarithmic", "power")
LOG_Y = ("power", "exponential")


@dataclass(frozen=True)
class ModelKind:
    """A family tag plus, for polynomials, the degree: a whole JSON number, kept as an int."""

    tag: str
    degree: int | None = None

    def __post_init__(self) -> None:
        if self.degree is not None:
            degree = json_field(vars(self), "degree", partial(json_number, whole=True))
            object.__setattr__(self, "degree", degree)
        if self.tag not in MODEL_FAMILIES:
            raise InputError(
                f"unknown model family {brief_repr(self.tag)}, expected one of {MODEL_FAMILIES}"
            )
        if self.tag == "polynomial":
            if self.degree is None:
                object.__setattr__(self, "degree", DEFAULT_POLY_DEGREE)
            elif not 1 <= self.degree <= MAX_POLY_DEGREE:
                raise InputError(f"polynomial degree must be in 1..{MAX_POLY_DEGREE}, "
                                 f"got {brief_repr(self.degree)}")
        elif self.degree is not None:
            raise InputError(f"degree only applies to polynomial, not {self.tag}")

    @property
    def fit_method(self) -> str:
        """How the family is fit: OLS on ln y for the LOG_Y families, else raw OLS."""
        return LOG_LINEARIZED if self.tag in LOG_Y else RAW_OLS


@dataclass(frozen=True)
class CalibrationSample:
    """One (deviation, strength) pair."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.x) or not math.isfinite(self.y):
            raise InputError(f"calibration sample must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class CalibrationDataset:
    """Ordered calibration samples; at least two are required.

    Its columns x, y, ln x and ln y, with their moments, and its digest are made on
    first use and kept, so every fit and score of the dataset shares them; ln x and
    ln y are read only after a family has checked that every value is positive.
    """

    samples: tuple[CalibrationSample, ...]

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise InputError(f"calibration needs >= 2 samples, got {len(self.samples)}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "CalibrationDataset":
        return cls(tuple(CalibrationSample(float(x), float(y)) for x, y in pairs))

    # _kept writes the instance __dict__, so it works on a frozen dataclass
    @_kept
    def x(self) -> Column:
        return Column([s.x for s in self.samples])

    @_kept
    def y(self) -> Column:
        return Column([s.y for s in self.samples])

    @_kept
    def ln_x(self) -> Column:
        return Column(list(map(math.log, self.x.values)))

    @_kept
    def ln_y(self) -> Column:
        return Column(list(map(math.log, self.y.values)))

    @_kept
    def _digest(self) -> str:
        import hashlib
        text = "\n".join(f"{s.x!r},{s.y!r}" for s in self.samples)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def digest(self) -> str:
        return self._digest


@dataclass(frozen=True)
class FittedModel:
    """Coefficients of one fitted family, b0 first; the family sets their count. They are
    taken by load_model's rule, JSON numbers, and kept as a tuple of Python floats."""

    kind: ModelKind
    coefficients: tuple[float, ...]
    fit_method: str
    trained_on: str

    def __post_init__(self) -> None:
        if type(self.coefficients) is not tuple or not set(map(type, self.coefficients)) <= {float}:
            coefficients = json_field(vars(self), "coefficients",
                                      lambda v: tuple(map(json_number, v)))
            object.__setattr__(self, "coefficients", coefficients)
        tag, method, got = self.kind.tag, self.kind.fit_method, self.fit_method
        if got != method:
            raise InputError(f"{tag} model needs fit_method {method!r}, got {brief_repr(got)}")
        expected = (self.kind.degree + 1) if tag == "polynomial" else 2
        if len(self.coefficients) != expected:
            raise InputError(
                f"{tag} model needs {expected} coefficients, got {len(self.coefficients)}"
            )
        if not all(map(math.isfinite, self.coefficients)):
            raise InputError(f"{tag} model coefficients must be finite: {self.coefficients}")
        if not isinstance(self.trained_on, str):
            raise InputError(f"trained_on must be a string, got {type(self.trained_on).__name__}")


def _simple_ols(x: Column, y: Column) -> tuple[float, float]:
    """Closed-form least squares of y on x: (intercept, slope)."""
    mean_x, mean_y = x.mean, y.mean
    sxx = x.sum_sq
    if sxx == 0.0:
        raise DegenerateDataError("all x values are equal")
    slope = x.cross(y) / sxx
    return mean_y - slope * mean_x, slope


def _require_positive(values: Sequence[float], axis: str, family: str) -> None:
    for i, v in enumerate(values):
        if v <= 0:
            raise DomainError(
                f"{family} fit needs {axis} > 0, got {axis}={v!r} at sample {i}"
            )


def _fit_polynomial(xs: list[float], ys: list[float], degree: int) -> tuple[float, ...]:
    if len(set(xs)) < degree + 1:
        raise DegenerateDataError(
            f"polynomial degree {degree} needs >= {degree + 1} distinct x values"
        )
    import numpy as np  # here, not at module top: loading the package needs no numpy
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        x = np.asarray(xs, dtype=float)
        # center and scale before building the Vandermonde basis; raw powers
        # of nearby x values make the normal equations needlessly ill-conditioned.
        # mu and sigma are x.mean() and x.std() without their wrappers: the same
        # pairwise sums, subtraction, square (numpy 1.x squares by multiply, which
        # rounds alike), divisions and root
        n = len(xs)
        mu = float(np.add.reduce(x) / n)
        dx = x - mu
        sigma = math.sqrt(float(np.add.reduce(np.square(dx)) / n))
        z = dx / sigma
        v = np.vander(z, degree + 1, increasing=True)
        q, r = np.linalg.qr(v)
        diag = [abs(d) for d in r.diagonal().tolist()]
        if min(diag) <= max(diag) * 1e-13:
            raise DegenerateDataError(
                f"polynomial basis is rank deficient for degree {degree}"
            )
        beta_z = np.linalg.solve(r, q.T @ np.asarray(ys, dtype=float))
        # rewrite p(z) with z = (x - mu)/sigma in raw x by Horner's rule on
        # coefficient arrays; no step drops a zero, so degree + 1 terms remain
        z_in_x = np.array([-mu / sigma, 1.0 / sigma])
        coeffs = beta_z[degree:]
        for k in range(degree - 1, -1, -1):
            coeffs = np.convolve(coeffs, z_in_x)
            coeffs[0] += beta_z[k]
        return tuple(coeffs.tolist())


def fit(data: CalibrationDataset, kind: ModelKind) -> FittedModel:
    """Fit one family to the calibration data.

    Raises DomainError when a sample lies outside the family's domain
    (x <= 0 for the POSITIVE_X families, then y <= 0 for the LOG_Y ones)
    and DegenerateDataError when the data cannot pin the coefficients
    down or the fit leaves the float range.
    """
    tag = kind.tag
    try:
        if tag == "polynomial":
            coefficients = _fit_polynomial(data.x.values, data.y.values, kind.degree)
        else:
            # OLS of y or ln y on x or ln x; a LOG_Y intercept is back-transformed
            # into the scale factor, and logarithmic's slope comes first
            if tag in POSITIVE_X:
                _require_positive(data.x.values, "x", tag)
            if tag in LOG_Y:
                _require_positive(data.y.values, "y", tag)
            intercept, slope = _simple_ols(data.ln_x if tag in POSITIVE_X else data.x,
                                           data.ln_y if tag in LOG_Y else data.y)
            b0 = math.exp(intercept) if tag in LOG_Y else intercept
            coefficients = (slope, intercept) if tag == "logarithmic" else (b0, slope)
    except ArithmeticError as exc:
        raise overflow_error(f"{tag} fit overflows", exc) from exc
    if not all(map(math.isfinite, coefficients)):
        raise DegenerateDataError(f"{tag} fit gives non-finite coefficients {coefficients}")
    return FittedModel(kind, coefficients, kind.fit_method, data.digest())


def predict(model: FittedModel, x: float) -> float:
    """Evaluate the model at one deviation value; a non-finite result is a DomainError."""
    return predict_all(model, (x,))[0]


def predict_all(model: FittedModel, xs: Iterable[float]) -> list[float]:
    """Evaluate the model at each deviation value, a whole column at a time.

    An x that is not finite, outside the model's domain (x <= 0 for the
    POSITIVE_X families) or whose value leaves the float range is a
    DomainError; when the column has such an x, the first one is named.
    """
    xs = [float(x) for x in xs]
    c = model.coefficients
    tag = model.kind.tag
    values = None
    in_domain = all(map(math.isfinite, xs)) and (
        tag not in POSITIVE_X or min(xs, default=1.0) > 0)
    if in_domain:
        try:
            if tag == "logarithmic":
                values = list(map(add, map(mul, repeat(c[0]), map(math.log, xs)), repeat(c[1])))
            elif tag == "power":
                values = list(map(mul, repeat(c[0]), map(pow, xs, repeat(c[1]))))
            elif tag == "exponential":
                values = list(map(mul, repeat(c[0]), map(math.exp, map(mul, repeat(c[1]), xs))))
            else:
                # Horner's rule, one pass over the column per coefficient
                values = [0.0] * len(xs)
                for coef in reversed(c):
                    values = list(map(add, map(mul, values, xs), repeat(coef)))
        except OverflowError:
            pass
    if values is not None and all(map(math.isfinite, values)):
        return values
    # some x fails: of several, the first to fail alone raises; of one, say why
    if len(xs) > 1:
        for x in xs:
            predict_all(model, (x,))
    (x,) = xs
    if not math.isfinite(x):
        raise DomainError(f"prediction input must be finite, got {x!r}")
    if not in_domain:
        raise DomainError(f"{tag} model needs x > 0, got {x!r}")
    raise DomainError(f"{tag} model overflows the float range at x={x!r}")


def residuals(model: FittedModel, data: CalibrationDataset) -> ResidualSeries:
    """Residuals over the dataset, predicted minus observed."""
    return ResidualSeries.from_values(
        list(map(sub, predict_all(model, data.x.values), data.y.values)))


def save_model(path, model: FittedModel) -> None:
    """Write the model as JSON; floats keep full round-trip precision."""
    import datetime
    write_json(
        path,
        {
            "kind": model.kind.tag,
            "degree": model.kind.degree,
            "coefficients": list(model.coefficients),
            "fit_method": model.fit_method,
            "trained_on": model.trained_on,
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )


def load_model(path) -> FittedModel:
    return read_json(path, lambda obj: FittedModel(
        ModelKind(json_field(obj, "kind"), json_field(obj, "degree", optional=True)),
        json_field(obj, "coefficients"),
        json_field(obj, "fit_method"),
        json_field(obj, "trained_on"),
    ))
