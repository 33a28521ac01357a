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
Every fit is plain Python float arithmetic: the polynomial's least squares
is a Householder QR of at most MAX_POLY_DEGREE + 1 columns, so no fit loads
numpy or depends on a BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Sequence

from .errors import DegenerateDataError, DomainError, InputError, brief_repr
# defined apart so that the command-line parser need not load this module; still
# importable from here
from .families import MAX_POLY_DEGREE, MODEL_FAMILIES, SELECTION_CRITERIA
from .fileio import json_field, json_number, read_json, write_json
from .metrics import Column, overflow_error

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

    @cached_property
    def x(self) -> Column:
        return Column([s.x for s in self.samples])

    @cached_property
    def y(self) -> Column:
        return Column([s.y for s in self.samples])

    @cached_property
    def ln_x(self) -> Column:
        return Column(list(map(math.log, self.x.values)))

    @cached_property
    def ln_y(self) -> Column:
        return Column(list(map(math.log, self.y.values)))

    @cached_property
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


SPREAD_UNDERFLOWS = "x values differ, but their spread underflows the float range"
LN_X_EQUAL = "x values differ, but ln x is the same float for all of them"


def _simple_ols(x: Column, y: Column, raw_x: Column) -> tuple[float, float]:
    """Closed-form least squares of y on x, which is raw_x or its ln x: (intercept, slope)."""
    mean_x, mean_y = x.mean, y.mean
    sxx = x.sum_sq
    if sxx == 0.0:
        raise DegenerateDataError(
            "all x values are equal" if len(set(raw_x.values)) == 1
            else SPREAD_UNDERFLOWS if len(set(x.values)) > 1 else LN_X_EQUAL)
    slope = x.cross(y) / sxx
    return mean_y - slope * mean_x, slope


def _require_positive(values: Sequence[float], axis: str, family: str) -> None:
    for i, v in enumerate(values):
        if v <= 0:
            raise DomainError(
                f"{family} fit needs {axis} > 0, got {axis}={v!r} at sample {i}"
            )


def _fit_polynomial(x: Column, y: Column, degree: int) -> tuple[float, ...]:
    """Least squares of y on 1, z, ..., z^degree with z = (x - mu)/sigma, solved by
    Householder QR, then rewritten as coefficients of raw x."""
    if len(set(x.values)) < degree + 1:
        raise DegenerateDataError(
            f"polynomial degree {degree} needs >= {degree + 1} distinct x values"
        )
    # center and scale before building the basis; raw powers of nearby x values
    # make it needlessly ill-conditioned. mu and sigma come from x's kept moments
    n = len(x.values)
    mu = x.mean
    try:
        sigma = math.sqrt(x.sum_sq / n)
    except OverflowError as exc:  # the squares of the spread
        raise OverflowError("overflow encountered in square") from exc
    if sigma == 0.0:  # the values differ, as checked above
        raise DegenerateDataError(SPREAD_UNDERFLOWS)
    z = [d / sigma for d in x.centred]
    # the basis columns 1, z, ..., z^degree; |z| <= sqrt(n), so no power leaves the range
    basis = [[1.0] * n]
    for _ in range(degree):
        basis.append(list(map(mul, basis[-1], z)))
    # y over a power of two that puts its largest value in [1, 2): an exact step that
    # keeps every sum of the solve in range; the coefficients are scaled back at the end
    top = max(map(abs, y.values))
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1) if top else 1.0
    qty = [value / scale for value in y.values]
    # Householder reflections as LAPACK's dlarfg makes them: the j-th maps column j
    # from row j down onto row j, giving R's diagonal entry, and is applied to the
    # later columns and to y, never formed as Q; above row j the columns hold R, and
    # y becomes Q^T y
    diagonal = []
    for j, column in enumerate(basis):
        head, tail = column[j], column[j + 1:]
        tail_sq = math.fsum(map(mul, tail, tail))
        if tail_sq == 0.0:
            diagonal.append(head)
            continue
        r = -math.copysign(math.sqrt(head * head + tail_sq), head)
        tau = (r - head) / r
        f = 1.0 / (head - r)
        v = [1.0, *[t * f for t in tail]]
        diagonal.append(r)
        for later in (*basis[j + 1:], qty):
            below = later[j:]
            w = tau * math.fsum(map(mul, v, below))
            later[j:] = [a - w * b for a, b in zip(below, v)]
    sizes = list(map(abs, diagonal))
    if min(sizes) <= max(sizes) * 1e-13:
        raise DegenerateDataError(f"polynomial basis is rank deficient for degree {degree}")
    # back-substitution in R, a column at a time: qty[:degree + 1] becomes beta_z
    for k in range(degree, -1, -1):
        b = qty[k] = qty[k] / diagonal[k]
        qty[:k] = [a - b * entry for a, entry in zip(qty[:k], basis[k])]
    # rewrite p(z) with z = shift + step*x in raw x by Horner's rule, multiplying the
    # coefficients by (shift + step*x) and adding the next; degree + 1 terms remain
    shift, step = -mu / sigma, 1.0 / sigma
    coeffs = [qty[degree]]
    for b in reversed(qty[:degree]):
        coeffs = [shift * coeffs[0] + b,
                  *[shift * c + step * lower for c, lower in zip(coeffs[1:], coeffs)],
                  step * coeffs[-1]]
    return tuple([c * scale for c in coeffs])


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
            coefficients = _fit_polynomial(data.x, data.y, kind.degree)
        else:
            # OLS of y or ln y on x or ln x; a LOG_Y intercept is back-transformed
            # into the scale factor, and logarithmic's slope comes first
            if tag in POSITIVE_X:
                _require_positive(data.x.values, "x", tag)
            if tag in LOG_Y:
                _require_positive(data.y.values, "y", tag)
            intercept, slope = _simple_ols(data.ln_x if tag in POSITIVE_X else data.x,
                                           data.ln_y if tag in LOG_Y else data.y, data.x)
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


def residuals(model: FittedModel, data: CalibrationDataset) -> Column:
    """Residuals over the dataset, predicted minus observed."""
    return Column(list(map(sub, predict_all(model, data.x.values), data.y.values)))


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
