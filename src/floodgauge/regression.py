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

import datetime
import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegenerateDataError, DomainError, InputError
from .fileio import json_number, read_json, write_json
from .metrics import ResidualSeries

MODEL_FAMILIES = ("linear", "polynomial", "logarithmic", "power", "exponential")

DEFAULT_POLY_DEGREE = 2
MAX_POLY_DEGREE = 6

RAW_OLS = "raw_ols"
LOG_LINEARIZED = "log_linearized"


@dataclass(frozen=True)
class ModelKind:
    """A family tag plus, for polynomials, the degree."""

    tag: str
    degree: int | None = None

    def __post_init__(self) -> None:
        if self.tag not in MODEL_FAMILIES:
            raise InputError(
                f"unknown model family {self.tag!r}, expected one of {MODEL_FAMILIES}"
            )
        if self.tag == "polynomial":
            if self.degree is None:
                object.__setattr__(self, "degree", DEFAULT_POLY_DEGREE)
            elif not 1 <= self.degree <= MAX_POLY_DEGREE:
                raise InputError(
                    f"polynomial degree must be in 1..{MAX_POLY_DEGREE}, got {self.degree}"
                )
        elif self.degree is not None:
            raise InputError(f"degree only applies to polynomial, not {self.tag}")

    @property
    def fit_method(self) -> str:
        """How the family is fit: OLS on log y for power and exponential, else raw OLS."""
        return LOG_LINEARIZED if self.tag in ("power", "exponential") else RAW_OLS


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
    """Ordered calibration samples; at least two are required."""

    samples: tuple[CalibrationSample, ...]

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise InputError(f"calibration needs >= 2 samples, got {len(self.samples)}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "CalibrationDataset":
        return cls(tuple(CalibrationSample(float(x), float(y)) for x, y in pairs))

    @property
    def xs(self) -> list[float]:
        return [s.x for s in self.samples]

    @property
    def ys(self) -> list[float]:
        return [s.y for s in self.samples]

    def digest(self) -> str:
        text = "\n".join(f"{s.x!r},{s.y!r}" for s in self.samples)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FittedModel:
    """Coefficients of one fitted family, b0 first; the family sets their count."""

    kind: ModelKind
    coefficients: tuple[float, ...]
    fit_method: str
    trained_on: str

    def __post_init__(self) -> None:
        tag, method, got = self.kind.tag, self.kind.fit_method, self.fit_method
        if got != method:
            raise InputError(f"{tag} model needs fit_method {method!r}, got {got!r}")
        expected = (self.kind.degree + 1) if tag == "polynomial" else 2
        if len(self.coefficients) != expected:
            raise InputError(
                f"{tag} model needs {expected} coefficients, got {len(self.coefficients)}"
            )
        if not all(map(math.isfinite, self.coefficients)):
            raise InputError(f"{tag} model coefficients must be finite: {self.coefficients}")


def _simple_ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Closed-form least squares of y on x: (intercept, slope)."""
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateDataError("all x values are equal")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
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
        # of nearby x values make the normal equations needlessly ill-conditioned
        mu = float(x.mean())
        sigma = float(x.std())
        z = (x - mu) / sigma
        v = np.vander(z, degree + 1, increasing=True)
        q, r = np.linalg.qr(v)
        diag = np.abs(np.diag(r))
        if diag.min() <= diag.max() * 1e-13:
            raise DegenerateDataError(
                f"polynomial basis is rank deficient for degree {degree}"
            )
        beta_z = np.linalg.solve(r, q.T @ np.asarray(ys, dtype=float))
        # rewrite p(z) with z = (x - mu)/sigma in raw x by Horner's rule on
        # coefficient arrays; no step drops a zero, so degree + 1 terms remain
        sub = np.array([-mu / sigma, 1.0 / sigma])
        coeffs = beta_z[degree:]
        for k in range(degree - 1, -1, -1):
            coeffs = np.convolve(coeffs, sub)
            coeffs[0] += beta_z[k]
        return tuple(coeffs.tolist())


def fit(data: CalibrationDataset, kind: ModelKind) -> FittedModel:
    """Fit one family to the calibration data.

    Raises DomainError when a sample lies outside the family's domain
    (x <= 0 for logarithmic and power, y <= 0 for power and exponential)
    and DegenerateDataError when the data cannot pin the coefficients
    down or the fit leaves the float range.
    """
    xs, ys, tag = data.xs, data.ys, kind.tag
    try:
        if tag == "linear":
            coefficients = _simple_ols(xs, ys)
        elif tag == "polynomial":
            coefficients = _fit_polynomial(xs, ys, kind.degree)
        elif tag == "logarithmic":
            _require_positive(xs, "x", tag)
            intercept, slope = _simple_ols([math.log(x) for x in xs], ys)
            coefficients = (slope, intercept)
        else:
            # power and exponential: OLS of ln y on ln x or x, with the
            # intercept back-transformed into the scale factor
            if tag == "power":
                _require_positive(xs, "x", tag)
                xs = [math.log(x) for x in xs]
            _require_positive(ys, "y", tag)
            intercept, slope = _simple_ols(xs, [math.log(y) for y in ys])
            coefficients = (math.exp(intercept), slope)
    except ArithmeticError as exc:
        raise DegenerateDataError(f"{tag} fit overflows: {exc}") from exc
    if not all(map(math.isfinite, coefficients)):
        raise DegenerateDataError(f"{tag} fit gives non-finite coefficients {coefficients}")
    return FittedModel(kind, coefficients, kind.fit_method, data.digest())


def predict(model: FittedModel, x: float) -> float:
    """Evaluate the model at one deviation value; a non-finite result is a DomainError."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"prediction input must be finite, got {x!r}")
    c = model.coefficients
    tag = model.kind.tag
    if tag in ("logarithmic", "power") and x <= 0:
        raise DomainError(f"{tag} model needs x > 0, got {x!r}")
    try:
        if tag == "logarithmic":
            value = c[0] * math.log(x) + c[1]
        elif tag == "power":
            value = c[0] * x ** c[1]
        elif tag == "exponential":
            value = c[0] * math.exp(c[1] * x)
        else:
            value = 0.0
            for coef in reversed(c):
                value = value * x + coef
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{tag} model overflows the float range at x={x!r}")
    return value


def residuals(model: FittedModel, data: CalibrationDataset) -> ResidualSeries:
    """Residuals over the dataset, predicted minus observed."""
    return ResidualSeries.from_values([predict(model, s.x) - s.y for s in data.samples])


def save_model(path, model: FittedModel) -> None:
    """Write the model as JSON; floats keep full round-trip precision."""
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
        ModelKind(obj["kind"], None if obj.get("degree") is None
                  else json_number(obj["degree"], whole=True)),
        tuple(map(json_number, obj["coefficients"])),
        obj["fit_method"],
        obj["trained_on"],
    ))
