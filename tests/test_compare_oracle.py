"""compare_models and predict_all against the plain per-family loop, bit for bit.

compare_models shares each calibration's columns, moments and observed-side
sums across the five families and predicts a whole column at a time. The
oracle here does none of that: for each family it fits from scratch, predicts
one x at a time and scores with generator-expression sums, as the formulas
read. Every report field, coefficient, skip reason and error must match the
oracle's as ``float.hex``, NaN included.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floodgauge.errors import (
    DegenerateDataError,
    DegenerateVarianceError,
    DomainError,
    FloodgaugeError,
    InputError,
)
from floodgauge.metrics import FitReport
from floodgauge.pipeline import compare_models
from floodgauge.refdata import reference_dataset
from floodgauge.regression import (
    MAX_POLY_DEGREE,
    MODEL_FAMILIES,
    SELECTION_CRITERIA,
    CalibrationDataset,
    FittedModel,
    ModelKind,
    predict,
    predict_all,
)


# ---- the oracle: one family at a time, nothing shared ----

def oracle_ols(xs, ys):
    n = len(xs)
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise DegenerateDataError("all x values are equal")
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return mean_y - slope * mean_x, slope


def oracle_require_positive(values, axis, family):
    for i, v in enumerate(values):
        if v <= 0:
            raise DomainError(f"{family} fit needs {axis} > 0, got {axis}={v!r} at sample {i}")


def oracle_polynomial(xs, ys, degree):
    if len(set(xs)) < degree + 1:
        raise DegenerateDataError(
            f"polynomial degree {degree} needs >= {degree + 1} distinct x values"
        )
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        x = np.asarray(xs, dtype=float)
        mu = float(x.mean())
        sigma = float(x.std())
        z = (x - mu) / sigma
        v = np.vander(z, degree + 1, increasing=True)
        q, r = np.linalg.qr(v)
        diag = np.abs(np.diag(r))
        if diag.min() <= diag.max() * 1e-13:
            raise DegenerateDataError(f"polynomial basis is rank deficient for degree {degree}")
        beta_z = np.linalg.solve(r, q.T @ np.asarray(ys, dtype=float))
        sub = np.array([-mu / sigma, 1.0 / sigma])
        coeffs = beta_z[degree:]
        for k in range(degree - 1, -1, -1):
            coeffs = np.convolve(coeffs, sub)
            coeffs[0] += beta_z[k]
        return tuple(coeffs.tolist())


def reason(exc):
    """An overflow's text; pow's OverflowError carries (errno, text)."""
    return exc.args[-1] if exc.args else exc


def oracle_fit(data, kind):
    xs = [s.x for s in data.samples]
    ys = [s.y for s in data.samples]
    tag = kind.tag
    try:
        if tag == "linear":
            coefficients = oracle_ols(xs, ys)
        elif tag == "polynomial":
            coefficients = oracle_polynomial(xs, ys, kind.degree)
        elif tag == "logarithmic":
            oracle_require_positive(xs, "x", tag)
            intercept, slope = oracle_ols([math.log(x) for x in xs], ys)
            coefficients = (slope, intercept)
        else:
            if tag == "power":
                oracle_require_positive(xs, "x", tag)
                xs = [math.log(x) for x in xs]
            oracle_require_positive(ys, "y", tag)
            intercept, slope = oracle_ols(xs, [math.log(y) for y in ys])
            coefficients = (math.exp(intercept), slope)
    except np.linalg.LinAlgError:
        raise
    # fsum raises ValueError for products past the float range of both signs
    except (ArithmeticError, ValueError) as exc:
        raise DegenerateDataError(f"{tag} fit overflows: {reason(exc)}") from exc
    if not all(map(math.isfinite, coefficients)):
        raise DegenerateDataError(f"{tag} fit gives non-finite coefficients {coefficients}")
    return FittedModel(kind, coefficients, kind.fit_method, data.digest())


def oracle_predict(model, x):
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


def oracle_evaluate(observed, computed):
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
            scale = comp_ss * sst
            normal = sys.float_info.min <= scale <= sys.float_info.max
            cc = cov / (math.sqrt(scale) if normal else math.sqrt(comp_ss) * math.sqrt(sst))
            cc_defined = True
    except (OverflowError, ValueError) as exc:  # ValueError: fsum of -inf and inf
        raise DegenerateDataError(f"metrics overflow the float range: {reason(exc)}") from exc
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


def oracle_score(report, criterion):
    value = getattr(report, criterion)
    if math.isnan(value):
        return -math.inf
    return -value if criterion == "sse" else value


def oracle_compare(data, degree, criterion):
    """The comparison as the fingerprint of everything it reports."""
    reports, fitted, skipped = {}, {}, {}
    xs = [s.x for s in data.samples]
    ys = [s.y for s in data.samples]
    for tag in MODEL_FAMILIES:
        kind = ModelKind(tag, degree if tag == "polynomial" else None)
        try:
            model = oracle_fit(data, kind)
            report = oracle_evaluate(ys, [oracle_predict(model, x) for x in xs])
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
    best = max(reports, key=lambda tag: oracle_score(reports[tag], criterion))
    return fingerprint(reports, fitted, skipped, fitted[best].kind, criterion)


# ---- comparing as float.hex ----

def hexed(value):
    return value.hex() if isinstance(value, float) else repr(value)


def fingerprint(reports, fitted, skipped, best, criterion):
    return {
        "reports": [(tag, [(f, hexed(getattr(r, f))) for f in FitReport.__dataclass_fields__])
                    for tag, r in reports.items()],
        "fitted": [(tag, m.kind, m.fit_method, m.trained_on, [hexed(c) for c in m.coefficients])
                   for tag, m in fitted.items()],
        "skipped": list(skipped.items()),
        "best": best,
        "criterion": criterion,
    }


def outcome(run):
    """What a call returns, or the class and text of the FloodgaugeError it raises."""
    try:
        return run()
    except FloodgaugeError as exc:
        return ("raised", type(exc).__name__, str(exc))


def library_compare(data, degree, criterion):
    r = compare_models(data, degree=degree, criterion=criterion)
    return fingerprint(r.reports, r.fitted, r.skipped, r.best_model, r.selection_criterion)


def assert_matches_oracle(data):
    for degree in range(1, MAX_POLY_DEGREE + 1):
        for criterion in SELECTION_CRITERIA:
            assert outcome(lambda: library_compare(data, degree, criterion)) == outcome(
                lambda: oracle_compare(data, degree, criterion)), (degree, criterion)


def dataset(pairs):
    return CalibrationDataset.from_pairs(pairs)


# every family fits the reference sweep
REFERENCE = reference_dataset()
# x <= 0: logarithmic and power are skipped on their x check
X_NOT_POSITIVE = dataset([(-0.2, 10.0), (0.0, 50.0), (0.1, 100.0), (0.3, 200.0), (0.5, 300.0)])
# y <= 0: power and exponential are skipped on their y check
Y_NOT_POSITIVE = dataset([(0.1, -5.0), (0.2, 0.0), (0.3, 20.0), (0.4, 35.0), (0.5, 70.0)])
# two distinct x values: every polynomial of degree 2 and up is skipped
REPEATED_X = dataset([(0.1, 1.0), (0.1, 2.0), (0.2, 3.0), (0.2, 5.0), (0.1, 1.5)])
# y even about x = 0: the linear fit is flat, so its correlation is undefined (NaN)
CONSTANT_PREDICTIONS = dataset([(-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)])
# the log-space power and exponential fits pass above the float range at a sample
EXPONENTIAL_OVERFLOW = dataset([(3.0, 1e-50), (5.0, 1e140), (1.0, 1e-310)])
# constant observations: the first family to be scored raises
CONSTANT_Y = dataset([(0.1, 5.0), (0.2, 5.0), (0.3, 5.0)])
# squares past the float range: every family's fit or score overflows
HUGE = dataset([(1.0, 1e308), (2.0, -1e308), (3.0, 1e308)])
ALL_X_EQUAL = dataset([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])


REGIONS = pytest.mark.parametrize("data", [
    REFERENCE, X_NOT_POSITIVE, Y_NOT_POSITIVE, REPEATED_X, CONSTANT_PREDICTIONS,
    EXPONENTIAL_OVERFLOW, CONSTANT_Y, HUGE, ALL_X_EQUAL,
], ids=["reference", "x_not_positive", "y_not_positive", "repeated_x", "constant_predictions",
        "exponential_overflow", "constant_y", "huge", "all_x_equal"])


@REGIONS
def test_compare_models_matches_the_per_family_oracle_on_each_region(data):
    assert_matches_oracle(data)


@REGIONS
def test_comparing_one_dataset_again_reports_the_same_bits(data):
    # the dataset keeps its columns and their moments from the first call on
    kept = CalibrationDataset(data.samples)
    for degree in range(1, MAX_POLY_DEGREE + 1):
        for criterion in SELECTION_CRITERIA:
            fresh = outcome(lambda: library_compare(
                CalibrationDataset(data.samples), degree, criterion))
            for _ in range(2):
                assert outcome(lambda: library_compare(kept, degree, criterion)) == fresh


def test_the_named_regions_reach_what_they_name():
    linear_flat = compare_models(CONSTANT_PREDICTIONS).reports["linear"]
    assert not linear_flat.cc_defined and math.isnan(linear_flat.r_squared)
    assert compare_models(EXPONENTIAL_OVERFLOW).skipped == {
        "power": "power model overflows the float range at x=5.0",
        "exponential": "exponential model overflows the float range at x=3.0",
    }
    assert set(compare_models(X_NOT_POSITIVE).skipped) == {"logarithmic", "power"}
    assert set(compare_models(Y_NOT_POSITIVE).skipped) == {"power", "exponential"}
    assert "polynomial" in compare_models(REPEATED_X, degree=2).skipped
    with pytest.raises(DegenerateVarianceError):
        compare_models(CONSTANT_Y)


# finite values, with repeats, zeros, negatives and magnitudes at both ends of the range
VALUES = st.one_of(
    st.sampled_from([0.0, -1.0, 1.0, 2.0, 0.5, 1e-300, 5e-324, 700.0, 1e154, 1e300, -1e300]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-3, max_value=2.0, allow_nan=False, allow_infinity=False),
)
PAIRS = st.lists(st.tuples(VALUES, VALUES), min_size=2, max_size=12)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pairs=PAIRS,
       degree=st.integers(1, MAX_POLY_DEGREE),
       criterion=st.sampled_from(SELECTION_CRITERIA))
@example(pairs=[(0.1, 5.0), (0.2, 5.0)], degree=1, criterion="eta")
@example(pairs=[(3.0, 1e-50), (5.0, 1e140), (1.0, 1e-310)], degree=2, criterion="sse")
@example(pairs=[(0.0, 0.0), (0.0, 1e300), (1e154, 0.0)], degree=1, criterion="eta")
def test_compare_models_matches_the_per_family_oracle(pairs, degree, criterion):
    data = dataset(pairs)
    assert outcome(lambda: library_compare(data, degree, criterion)) == outcome(
        lambda: oracle_compare(data, degree, criterion))


def model(tag, coefficients):
    kind = ModelKind(tag, len(coefficients) - 1 if tag == "polynomial" else None)
    return FittedModel(kind, tuple(coefficients), kind.fit_method, "synthetic")


COEFFICIENT = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
MODELS = st.one_of(
    st.builds(lambda tag, c: model(tag, c),
              st.sampled_from(["linear", "logarithmic", "power", "exponential"]),
              st.lists(COEFFICIENT, min_size=2, max_size=2)),
    st.builds(lambda c: model("polynomial", c),
              st.lists(COEFFICIENT, min_size=2, max_size=MAX_POLY_DEGREE + 1)),
)
XS = st.lists(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-50.0, max_value=50.0),
    st.sampled_from([0.0, -0.0, 1.0, 800.0, 1e308]),
), max_size=10)


def per_x(predict_one, m, xs):
    return [predict_one(m, x) for x in xs]


@settings(max_examples=300, deadline=None)
@given(m=MODELS, xs=XS)
@example(m=model("exponential", [1.0, 1000.0]), xs=[0.1, 1.0, 2.0])
@example(m=model("power", [1.0, 0.5]), xs=[4.0, -1.0, 0.0])
@example(m=model("logarithmic", [2.0, 1.0]), xs=[1.0, math.nan, -1.0])
@example(m=model("polynomial", [1e300, 0.0, 1e300]), xs=[1.0, 1e10])
def test_predict_all_matches_predict_bit_for_bit(m, xs):
    def hexes(run):
        got = outcome(run)
        return got if isinstance(got, tuple) else [v.hex() for v in got]

    # on a bad x, the oracle's first DomainError, text included
    expected = hexes(lambda: per_x(oracle_predict, m, xs))
    assert hexes(lambda: predict_all(m, xs)) == expected
    assert hexes(lambda: per_x(predict, m, xs)) == expected
