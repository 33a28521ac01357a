import math
import random

import pytest

from floodgauge.errors import DegenerateVarianceError, InputError
from floodgauge.metrics import (
    ResidualSeries,
    evaluate,
    report_to_dict,
    residual_summary,
)
from floodgauge.refdata import reference_dataset
from floodgauge.regression import ModelKind, fit, predict


def test_perfect_fit():
    obs = [10.0, 25.0, 40.0, 80.0]
    r = evaluate(obs, obs)
    assert r.sse == 0.0
    assert r.mse == 0.0
    assert r.rmse == 0.0
    assert r.eta == 1.0
    assert r.mae_index == 1.0
    assert r.nmse_eq11 == 0.0
    assert r.nmse_table2 == 0.0
    assert math.isclose(r.r_squared, 1.0, rel_tol=1e-12)
    assert math.isclose(r.cc, 1.0, rel_tol=1e-12)
    assert r.mean_abs_error == 0.0
    assert r.sample_count == 4
    assert r.cc_defined


def test_hand_computed_three_point_case():
    obs = [1.0, 2.0, 3.0]
    comp = [1.0, 2.0, 4.0]
    r = evaluate(obs, comp)
    assert r.sse == 1.0
    assert r.mse == 1.0 / 3.0
    assert r.rmse == math.sqrt(1.0 / 3.0)
    # sst = 2, population variance 2/3, sample std 1
    assert math.isclose(r.eta, 0.5, rel_tol=1e-12)
    assert math.isclose(r.nmse_eq11, 0.5, rel_tol=1e-12)
    assert math.isclose(r.nmse_table2, 1.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(r.mae_index, 0.5, rel_tol=1e-12)
    assert math.isclose(r.mean_abs_error, 1.0 / 3.0, rel_tol=1e-12)
    # cov = 3, comp ss = 42/9, obs ss = 2
    expected_cc = 3.0 / math.sqrt((42.0 / 9.0) * 2.0)
    assert math.isclose(r.cc, expected_cc, rel_tol=1e-12)
    assert math.isclose(r.r_squared, expected_cc**2, rel_tol=1e-12)


def test_underestimates_and_overestimates_score_alike():
    obs = [10.0, 20.0, 30.0]
    high = evaluate(obs, [12.0, 22.0, 32.0])
    low = evaluate(obs, [8.0, 18.0, 28.0])
    assert math.isclose(high.sse, low.sse, rel_tol=1e-12)
    assert math.isclose(high.mae_index, low.mae_index, rel_tol=1e-12)


def test_evaluate_input_validation():
    with pytest.raises(InputError):
        evaluate([1.0, 2.0], [1.0])
    with pytest.raises(InputError):
        evaluate([1.0], [1.0])
    with pytest.raises(DegenerateVarianceError):
        evaluate([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])


def test_constant_predictions_leave_cc_undefined():
    # predicting the observed mean everywhere collapses both efficiency
    # indices to zero and leaves the correlation undefined
    r = evaluate([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert not r.cc_defined
    assert math.isnan(r.cc)
    assert math.isnan(r.r_squared)
    assert r.sse == 2.0
    assert math.isclose(r.eta, 0.0, abs_tol=1e-15)
    assert math.isclose(r.mae_index, 0.0, abs_tol=1e-15)


def test_translation_leaves_error_measures_unchanged():
    rng = random.Random(5150)
    for _ in range(200):
        n = rng.randint(2, 25)
        obs = [rng.uniform(-40.0, 120.0) for _ in range(n)]
        if max(obs) == min(obs):
            continue
        comp = [v + rng.gauss(0.0, 6.0) for v in obs]
        shift = rng.uniform(-500.0, 500.0)
        base = evaluate(obs, comp)
        moved = evaluate([v + shift for v in obs], [v + shift for v in comp])
        assert math.isclose(base.sse, moved.sse, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(base.mse, moved.mse, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(base.rmse, moved.rmse, rel_tol=1e-9, abs_tol=1e-9)
        if base.cc_defined and moved.cc_defined:
            assert math.isclose(base.cc, moved.cc, rel_tol=1e-9, abs_tol=1e-9)


def test_residual_series_sign_counts():
    rs = ResidualSeries.from_values([1.5, -2.0, 0.0, 3.0, -0.5])
    assert rs.positive_count == 2
    assert rs.negative_count == 2
    assert rs.zero_count == 1
    assert residual_summary(rs) == (2, 2, 3.0)


def test_residual_summary_balanced_example():
    rs = ResidualSeries.from_values([1.0, -1.0, 0.0])
    assert residual_summary(rs) == (1, 1, 1.0)


def test_residual_summary_all_zero():
    rs = ResidualSeries.from_values([0.0, 0.0, 0.0])
    assert rs.zero_count == 3
    assert residual_summary(rs) == (0, 0, 0.0)


def test_residual_summary_rejects_empty_series():
    with pytest.raises(InputError):
        residual_summary(ResidualSeries.from_values([]))


def test_eta_matches_r_squared_for_raw_ols_fits():
    # least-squares fits carried out in the raw data space make the
    # efficiency index and the squared correlation agree
    data = reference_dataset()
    for kind in (ModelKind("linear"), ModelKind("polynomial"), ModelKind("logarithmic")):
        model = fit(data, kind)
        predicted = [predict(model, x) for x in data.xs]
        r = evaluate(data.ys, predicted)
        assert abs(r.eta - r.r_squared) <= 1e-6


def test_report_to_dict_maps_nan_to_null():
    r = evaluate([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    d = report_to_dict(r)
    assert d["cc"] is None
    assert d["r_squared"] is None
    assert d["sse"] == r.sse
    assert d["cc_defined"] is False
    assert d["sample_count"] == 3
