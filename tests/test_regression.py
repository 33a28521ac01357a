import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from floodgauge.errors import DegenerateDataError, DomainError, InputError
from floodgauge.refdata import (
    REFERENCE_DEVIATIONS,
    REFERENCE_STRENGTHS_MBPS,
    reference_dataset,
)
from floodgauge.regression import (
    MAX_POLY_DEGREE,
    MODEL_FAMILIES,
    CalibrationDataset,
    CalibrationSample,
    FittedModel,
    ModelKind,
    fit,
    load_model,
    predict,
    residuals,
    save_model,
)
from helpers import odd_numbers


def dataset(xs, ys):
    return CalibrationDataset.from_pairs(zip(xs, ys))


def test_model_families_are_ordered():
    assert MODEL_FAMILIES == (
        "linear",
        "polynomial",
        "logarithmic",
        "power",
        "exponential",
    )


def test_model_kind_validation():
    assert ModelKind("polynomial").degree == 2
    assert ModelKind("polynomial", 3).degree == 3
    assert ModelKind("linear").degree is None
    with pytest.raises(InputError):
        ModelKind("quadratic")
    with pytest.raises(InputError):
        ModelKind("polynomial", 0)
    with pytest.raises(InputError):
        ModelKind("polynomial", 7)
    with pytest.raises(InputError):
        ModelKind("linear", 2)


def test_calibration_dataset_validation():
    with pytest.raises(InputError):
        CalibrationDataset((CalibrationSample(1.0, 2.0),))
    with pytest.raises(InputError):
        CalibrationSample(float("nan"), 1.0)
    with pytest.raises(InputError):
        CalibrationSample(1.0, float("inf"))


def test_dataset_digest_tracks_content():
    a = dataset([1.0, 2.0], [3.0, 4.0])
    b = dataset([1.0, 2.0], [3.0, 4.0])
    c = dataset([1.0, 2.0], [3.0, 4.5])
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 64


def test_linear_fit_on_reference_sweep():
    model = fit(reference_dataset(), ModelKind("linear"))
    assert model.fit_method == "raw_ols"
    b0, b1 = model.coefficients
    assert math.isclose(b0, -75.0319493632733, rel_tol=1e-9)
    assert math.isclose(b1, 568.7401100143169, rel_tol=1e-9)
    assert math.isclose(predict(model, 0.149), 9.710327028859908, abs_tol=1e-6)


def test_logarithmic_fit_on_reference_sweep():
    model = fit(reference_dataset(), ModelKind("logarithmic"))
    assert model.fit_method == "raw_ols"
    slope, intercept = model.coefficients
    assert math.isclose(slope, 130.8285766203908, rel_tol=1e-9)
    assert math.isclose(intercept, 250.80254764392848, rel_tol=1e-9)


def test_power_fit_on_reference_sweep():
    model = fit(reference_dataset(), ModelKind("power"))
    assert model.fit_method == "log_linearized"
    scale, exponent = model.coefficients
    assert math.isclose(scale, 3781.686179921317, rel_tol=1e-9)
    assert math.isclose(exponent, 2.940128217125082, rel_tol=1e-9)


def test_exponential_fit_on_reference_sweep():
    model = fit(reference_dataset(), ModelKind("exponential"))
    assert model.fit_method == "log_linearized"
    scale, rate = model.coefficients
    assert math.isclose(scale, 2.7294319714808433, rel_tol=1e-9)
    assert math.isclose(rate, 12.393453026159527, rel_tol=1e-9)


def test_linear_fit_matches_lstsq():
    rng = np.random.default_rng(515)
    for _ in range(50):
        n = int(rng.integers(3, 15))
        xs = rng.uniform(-5.0, 5.0, n)
        ys = rng.uniform(-10.0, 10.0, n)
        model = fit(dataset(xs, ys), ModelKind("linear"))
        design = np.column_stack([np.ones(n), xs])
        expected, *_ = np.linalg.lstsq(design, ys, rcond=None)
        assert math.isclose(model.coefficients[0], expected[0], rel_tol=1e-7, abs_tol=1e-9)
        assert math.isclose(model.coefficients[1], expected[1], rel_tol=1e-7, abs_tol=1e-9)


def test_polynomial_recovers_exact_coefficients():
    xs = [0.1, 0.4, 0.7, 1.1, 1.6, 2.2, 3.0]
    ys = [2.0 + 3.0 * x - 1.5 * x * x for x in xs]
    model = fit(dataset(xs, ys), ModelKind("polynomial", 2))
    assert model.fit_method == "raw_ols"
    b0, b1, b2 = model.coefficients
    assert math.isclose(b0, 2.0, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(b1, 3.0, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(b2, -1.5, rel_tol=1e-9, abs_tol=1e-9)


def test_polynomial_matches_polyfit():
    rng = np.random.default_rng(516)
    for _ in range(30):
        degree = int(rng.integers(1, 4))
        n = int(rng.integers(degree + 2, 15))
        xs = np.sort(rng.uniform(0.1, 4.0, n))
        ys = rng.uniform(-5.0, 50.0, n)
        model = fit(dataset(xs, ys), ModelKind("polynomial", degree))
        expected = np.polynomial.polynomial.polyfit(xs, ys, degree)
        for got, want in zip(model.coefficients, expected):
            assert math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-8)


def test_polynomial_predict_agrees_with_polyval():
    rng = np.random.default_rng(517)
    model = fit(reference_dataset(), ModelKind("polynomial", 2))
    for x in rng.uniform(0.05, 0.5, 50):
        expected = float(np.polynomial.polynomial.polyval(x, model.coefficients))
        assert math.isclose(predict(model, float(x)), expected, rel_tol=1e-12)


def test_log_linearized_fits_match_manual_transform():
    data = reference_dataset()
    log_x = [math.log(s.x) for s in data.samples]
    log_y = [math.log(s.y) for s in data.samples]

    power = fit(data, ModelKind("power"))
    lin_loglog = fit(dataset(log_x, log_y), ModelKind("linear"))
    assert power.coefficients[0] == math.exp(lin_loglog.coefficients[0])
    assert power.coefficients[1] == lin_loglog.coefficients[1]

    expo = fit(data, ModelKind("exponential"))
    lin_semilog = fit(dataset([s.x for s in data.samples], log_y), ModelKind("linear"))
    assert expo.coefficients[0] == math.exp(lin_semilog.coefficients[0])
    assert expo.coefficients[1] == lin_semilog.coefficients[1]

    logm = fit(data, ModelKind("logarithmic"))
    lin_logx = fit(dataset(log_x, [s.y for s in data.samples]), ModelKind("linear"))
    assert logm.coefficients == (lin_logx.coefficients[1], lin_logx.coefficients[0])


def test_domain_errors_name_the_offending_sample():
    with_zero_x = dataset([0.0, 0.2, 0.3], [10.0, 20.0, 30.0])
    with pytest.raises(DomainError, match="sample 0"):
        fit(with_zero_x, ModelKind("logarithmic"))
    with pytest.raises(DomainError, match="sample 0"):
        fit(with_zero_x, ModelKind("power"))
    with_neg_y = dataset([0.1, 0.2, 0.3], [10.0, -1.0, 30.0])
    with pytest.raises(DomainError, match="sample 1"):
        fit(with_neg_y, ModelKind("power"))
    with pytest.raises(DomainError, match="sample 1"):
        fit(with_neg_y, ModelKind("exponential"))


def test_degenerate_data_errors():
    same_x = dataset([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDataError):
        fit(same_x, ModelKind("linear"))
    two_distinct = dataset([1.0, 2.0, 1.0], [1.0, 2.0, 1.5])
    with pytest.raises(DegenerateDataError):
        fit(two_distinct, ModelKind("polynomial", 2))


def test_polynomial_overflow_is_a_degenerate_data_error():
    # numpy's floating-point errors are raised, not warned, inside the fit;
    # under filterwarnings = error a RuntimeWarning would fail this test
    huge = dataset([1e200, 2e200, 3e200, 4e200], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DegenerateDataError) as exc:
        fit(huge, ModelKind("polynomial", 2))
    assert str(exc.value) == "polynomial fit overflows: overflow encountered in square"


def test_predict_domain_checks():
    data = reference_dataset()
    logm = fit(data, ModelKind("logarithmic"))
    power = fit(data, ModelKind("power"))
    for bad in (0.0, -0.5):
        with pytest.raises(DomainError):
            predict(logm, bad)
        with pytest.raises(DomainError):
            predict(power, bad)
    with pytest.raises(DomainError):
        predict(logm, float("nan"))
    linear = fit(data, ModelKind("linear"))
    expo = fit(data, ModelKind("exponential"))
    # polynomial, linear and exponential accept any finite input
    assert math.isfinite(predict(linear, -1.0))
    assert math.isfinite(predict(expo, -1.0))


def test_residuals_are_predicted_minus_observed():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2.0, 4.0, 6.0, 8.0]
    model = fit(dataset(xs, ys), ModelKind("linear"))
    series = residuals(model, dataset(xs, ys))
    assert all(abs(v) < 1e-12 for v in series.values)

    biased = FittedModel(ModelKind("linear"), (1.0, 2.0), "raw_ols", "x")
    series = residuals(biased, dataset(xs, ys))
    # constant overestimate by one
    assert series.values == (1.0, 1.0, 1.0, 1.0)
    assert series.positive_count == 4


def test_save_load_round_trip(tmp_path):
    data = reference_dataset()
    for tag in MODEL_FAMILIES:
        model = fit(data, ModelKind(tag))
        path = tmp_path / f"{tag}.json"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.coefficients == model.coefficients
        assert loaded.kind == model.kind
        assert loaded.fit_method == model.fit_method
        assert loaded.trained_on == model.trained_on


def test_model_file_format(tmp_path):
    model = fit(reference_dataset(), ModelKind("polynomial", 2))
    path = tmp_path / "model.json"
    save_model(path, model)
    obj = json.loads(path.read_text())
    assert obj["kind"] == "polynomial"
    assert obj["degree"] == 2
    assert len(obj["coefficients"]) == 3
    assert obj["fit_method"] == "raw_ols"
    assert obj["trained_on"] == reference_dataset().digest()
    assert obj["created_at"].endswith("+00:00")


def test_load_model_rejects_malformed_files(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"kind": "linear"}\n')
    with pytest.raises(InputError, match=str(path)):
        load_model(path)
    path.write_text(
        '{"kind": "linear", "degree": null, "coefficients": [1.0],'
        ' "fit_method": "raw_ols", "trained_on": "x"}\n'
    )
    with pytest.raises(InputError, match="coefficients"):
        load_model(path)
    path.write_text(
        '{"kind": "linear", "degree": null, "coefficients": [1.0, 2.0],'
        ' "fit_method": "secret", "trained_on": "x"}\n'
    )
    with pytest.raises(InputError, match="fit_method"):
        load_model(path)
    # a known method that belongs to another family
    path.write_text(
        '{"kind": "power", "degree": null, "coefficients": [1.0, 2.0],'
        ' "fit_method": "raw_ols", "trained_on": "x"}\n'
    )
    with pytest.raises(InputError, match="power model needs fit_method 'log_linearized'"):
        load_model(path)
    # json reads NaN and Infinity, but a model must have finite coefficients
    for literal in ("NaN", "Infinity"):
        path.write_text(
            f'{{"kind": "linear", "degree": null, "coefficients": [{literal}, 1.0],'
            ' "fit_method": "raw_ols", "trained_on": "x"}\n'
        )
        with pytest.raises(InputError, match=rf"{path}: .* must be finite"):
            load_model(path)


@pytest.mark.parametrize("degree, coefficients", [
    ("true", "[1.5, 2.0]"),
    ("1", '["1.5", 2.0]'),
    ("1", "[1.5, true]"),
    ("1", '"12"'),
])
def test_load_model_refuses_values_it_would_coerce(tmp_path, degree, coefficients):
    path = tmp_path / "model.json"
    path.write_text(
        f'{{"kind": "polynomial", "degree": {degree}, "coefficients": {coefficients},'
        ' "fit_method": "raw_ols", "trained_on": "x"}\n'
    )
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: missing or ill-typed"):
        load_model(path)


def test_load_model_accepts_a_whole_float_degree_and_int_coefficients(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"kind": "polynomial", "degree": 2.0, "coefficients": [1, 0, 2],'
        ' "fit_method": "raw_ols", "trained_on": "x"}\n'
    )
    model = load_model(path)
    assert model.kind == ModelKind("polynomial", 2) and type(model.kind.degree) is int
    assert model.coefficients == (1.0, 0.0, 2.0)


def test_exact_line_is_interpolated():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    ys = [2.0 * x + 1.0 for x in xs]
    model = fit(dataset(xs, ys), ModelKind("linear"))
    assert math.isclose(model.coefficients[0], 1.0, abs_tol=1e-12)
    assert math.isclose(model.coefficients[1], 2.0, abs_tol=1e-12)
    rs = residuals(model, dataset(xs, ys))
    assert math.fsum(v * v for v in rs.values) <= 1e-24


def test_power_family_recovers_cubic():
    xs = [0.5, 1.0, 1.5, 2.0, 3.0, 4.5]
    ys = [2.0 * x**3 for x in xs]
    model = fit(dataset(xs, ys), ModelKind("power"))
    assert math.isclose(model.coefficients[0], 2.0, rel_tol=1e-9)
    assert math.isclose(model.coefficients[1], 3.0, rel_tol=1e-9)


def test_predict_identity_and_flat_models():
    identity = FittedModel(
        kind=ModelKind("linear"), coefficients=(0.0, 1.0),
        fit_method="raw_ols", trained_on="synthetic",
    )
    assert predict(identity, 0.5) == 0.5
    flat = FittedModel(
        kind=ModelKind("exponential"), coefficients=(2.0, 0.0),
        fit_method="log_linearized", trained_on="synthetic",
    )
    for x in (0.1, 1.0, 7.0):
        assert predict(flat, x) == 2.0


def test_raw_ols_residuals_sum_to_zero():
    # fitting with an intercept in the raw data space balances the
    # signed residuals
    data = reference_dataset()
    scale = math.fsum(abs(y) for y in data.y.values)
    for kind in (ModelKind("linear"), ModelKind("polynomial", 2), ModelKind("polynomial", 3)):
        model = fit(data, kind)
        rs = residuals(model, data)
        assert abs(math.fsum(rs.values)) <= 1e-9 * scale


def test_degree_one_polynomial_matches_linear():
    data = reference_dataset()
    line = fit(data, ModelKind("linear"))
    poly = fit(data, ModelKind("polynomial", 1))
    assert len(poly.coefficients) == 2
    for a, b in zip(line.coefficients, poly.coefficients):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def test_constant_target_fits_flat_line():
    xs = [1.0, 2.0, 3.0, 4.0]
    model = fit(dataset(xs, [7.0] * 4), ModelKind("linear"))
    assert math.isclose(model.coefficients[0], 7.0, abs_tol=1e-12)
    assert math.isclose(model.coefficients[1], 0.0, abs_tol=1e-12)
    rs = residuals(model, dataset(xs, [7.0] * 4))
    assert rs.zero_count + rs.positive_count + rs.negative_count == 4
    assert max(abs(v) for v in rs.values) <= 1e-12


def test_positive_slope_predictions_are_monotone():
    data = reference_dataset()
    probes = [0.05 * i for i in range(1, 13)]
    for tag in ("linear", "exponential"):
        model = fit(data, ModelKind(tag))
        assert model.coefficients[1] > 0.0
        values = [predict(model, x) for x in probes]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_duplicate_x_values_are_accepted():
    # repeated deviations with different strengths are legitimate
    # calibration data, only an all-equal x column is degenerate
    xs = [0.195, 0.195, 0.25, 0.3]
    ys = [40.0, 45.0, 60.0, 75.0]
    for tag in ("linear", "logarithmic", "power", "exponential"):
        model = fit(dataset(xs, ys), ModelKind(tag))
        assert all(math.isfinite(c) for c in model.coefficients)
    poly = fit(dataset(xs, ys), ModelKind("polynomial", 2))
    assert len(poly.coefficients) == 3


def reference_polynomial(xs, ys, degree):
    """Reference basis change through numpy's polymul and polyadd.

    numpy trims trailing zero coefficients after each step, so this can
    return fewer than degree + 1 of them.
    """
    x = np.asarray(xs, dtype=float)
    mu = float(x.mean())
    sigma = float(x.std())
    v = np.vander((x - mu) / sigma, degree + 1, increasing=True)
    q, r = np.linalg.qr(v)
    beta_z = np.linalg.solve(r, q.T @ np.asarray(ys, dtype=float))
    sub = np.array([-mu / sigma, 1.0 / sigma])
    coeffs = np.array([beta_z[degree]])
    for k in range(degree - 1, -1, -1):
        coeffs = npoly.polyadd(npoly.polymul(coeffs, sub), np.array([beta_z[k]]))
    return tuple(float(c) for c in coeffs)


def test_polynomial_coefficients_match_the_polyadd_reference():
    rng = np.random.default_rng(518)
    cases = []
    for _ in range(20):
        xs = np.asarray(REFERENCE_DEVIATIONS) + rng.normal(0.0, 0.005, 19)
        cases += [(xs, REFERENCE_STRENGTHS_MBPS), (xs, rng.uniform(-5.0, 50.0, 19))]
    for _ in range(20):
        xs = np.sort(rng.uniform(-2.0, 3.0, int(rng.integers(8, 20))))
        cases.append((xs, rng.uniform(-5.0, 50.0, len(xs))))
    # symmetric data makes some leading coefficients exactly zero
    for k in range(1, 7):
        xs = np.arange(-k, k + 1, dtype=float)
        cases += [(xs, xs * xs), (xs, np.abs(xs) % 3)]
    full = short = 0
    for xs, ys in cases:
        data = dataset(xs, ys)
        for degree in range(1, min(MAX_POLY_DEGREE, len(xs) - 1) + 1):
            got = fit(data, ModelKind("polynomial", degree)).coefficients
            want = reference_polynomial(data.x.values, data.y.values, degree)
            assert len(got) == degree + 1
            assert got[: len(want)] == want
            assert all(c == 0.0 for c in got[len(want):])
            full += len(want) == degree + 1
            short += len(want) < degree + 1
    assert full > 400 and short > 0


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    degree=st.integers(1, MAX_POLY_DEGREE),
    points=st.dictionaries(
        st.integers(-1000, 1000), st.integers(-1000, 1000),
        min_size=MAX_POLY_DEGREE + 1, max_size=12,
    ),
)
@example(degree=1, points={-100: 1, 0: 0, 100: 1})
def test_polynomial_fit_keeps_every_coefficient_and_round_trips(tmp_path, degree, points):
    # dictionary keys make the x values distinct
    data = dataset([x / 100 for x in points], [float(y) for y in points.values()])
    model = fit(data, ModelKind("polynomial", degree))
    assert len(model.coefficients) == degree + 1
    path = tmp_path / "model.json"
    save_model(path, model)
    assert load_model(path) == model


def test_linear_predict_is_intercept_plus_slope_times_x():
    rng = np.random.default_rng(519)
    for c0, c1, x in rng.uniform(-100.0, 100.0, (200, 3)).tolist():
        model = FittedModel(ModelKind("linear"), (c0, c1), "raw_ols", "synthetic")
        assert predict(model, x) == c0 + c1 * x


@pytest.mark.parametrize("tag, coefficients, x", [
    ("exponential", (1.0, 1000.0), 1.0),
    ("power", (1.0, 1000.0), 1e10),
    # no OverflowError here: the product rounds to inf
    ("exponential", (1e306, 1.0), 10.0),
    ("linear", (1e308, 1e308), 10.0),
    ("polynomial", (0.0, 0.0, 1e300), 1e10),
])
def test_predict_overflow_is_a_domain_error(tag, coefficients, x):
    model = FittedModel(
        kind=ModelKind(tag, 2 if tag == "polynomial" else None), coefficients=coefficients,
        fit_method=ModelKind(tag).fit_method, trained_on="synthetic",
    )
    with pytest.raises(DomainError, match=rf"{tag} model overflows the float range at x={x!r}"):
        predict(model, x)


def test_a_nan_reference_cell_fails_its_check():
    from floodgauge.refdata import _check_cell

    assert _check_cell("linear", "sse", 708.13).ok
    assert not _check_cell("linear", "sse", math.nan).ok
    assert not _check_cell("linear", "cc", math.nan).ok


numbers = odd_numbers(-1, MAX_POLY_DEGREE + 1)  # degrees on both sides of 1..MAX_POLY_DEGREE


@settings(max_examples=300, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tag=st.sampled_from(MODEL_FAMILIES), degree=st.one_of(st.none(), numbers),
       coefficients=st.lists(numbers, min_size=2, max_size=MAX_POLY_DEGREE + 1))
def test_a_model_is_refused_when_made_or_loads_back_equal(tmp_path, tag, degree, coefficients):
    try:
        kind = ModelKind(tag, degree)
        model = FittedModel(kind, tuple(coefficients), kind.fit_method, "digest")
    except InputError:
        return
    assert type(model.kind.degree) is (int if tag == "polynomial" else type(None))
    assert {type(c) for c in model.coefficients} == {float}
    path = tmp_path / "m.json"
    save_model(path, model)
    assert load_model(path) == model


def test_a_model_takes_numbers_by_the_loaders_rule():
    kind = ModelKind("polynomial", np.int64(2))
    assert kind == ModelKind("polynomial", Fraction(4, 2)) == ModelKind("polynomial", 2.0)
    model = FittedModel(ModelKind("linear"), [np.float32(1.0), Fraction(1, 2)], "raw_ols", "x")
    assert model.coefficients == (1.0, 0.5)
    for made, message in [
        (lambda: ModelKind("polynomial", True), "degree: expected a whole number, got True"),
        (lambda: ModelKind("polynomial", 2.5), "degree: expected a whole number, got 2.5"),
        (lambda: FittedModel(ModelKind("linear"), (True, 2.0), "raw_ols", "x"),
         "coefficients: expected a number, got True"),
    ]:
        with pytest.raises(InputError, match="^missing or ill-typed field: " + re.escape(message)):
            made()
