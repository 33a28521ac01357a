import math
import random

import pytest

from floodgauge.errors import DegenerateVarianceError, InputError
from floodgauge.metrics import Column, evaluate, report_to_dict
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


@pytest.mark.parametrize("share", [False, True], ids=["values", "observed_series"])
def test_evaluate_checks_lengths_then_sample_count_then_variance(share):
    def check(observed, computed):
        return evaluate(Column(observed) if share else observed, computed)

    # one sample, constant, and of another length: the lengths are named first
    with pytest.raises(InputError) as info:
        check([5.0], [1.0, 2.0])
    assert str(info.value) == "observed and computed lengths differ: 1 vs 2"
    # equal lengths, one sample, constant: the sample count is named next
    with pytest.raises(InputError) as info:
        check([5.0], [1.0])
    assert str(info.value) == "need >= 2 samples to evaluate a fit, got 1"
    with pytest.raises(InputError) as info:
        check([], [])
    assert str(info.value) == "need >= 2 samples to evaluate a fit, got 0"
    # only then the constant observations
    with pytest.raises(DegenerateVarianceError) as info:
        check([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    assert str(info.value) == "observed values are all equal"
    # observations that differ, but whose squared spread underflows, are not called equal
    with pytest.raises(DegenerateVarianceError) as info:
        check([1e-200, 2e-200, 4e-200], [1.0, 2.0, 3.0])
    assert str(info.value) == (
        "observed values differ, but their spread underflows the float range")


@pytest.mark.parametrize("share", [False, True], ids=["values", "observed_series"])
@pytest.mark.parametrize("observed, computed, message", [
    ([math.inf, 1.0, 2.0], [1.0, 2.0, 3.0], "observed value at index 0 is not finite: inf"),
    ([1.0, 2.0, math.nan], [1.0, 2.0, 3.0], "observed value at index 2 is not finite: nan"),
    ([1.0, 2.0, 3.0], [1.0, -math.inf, math.nan],
     "computed value at index 1 is not finite: -inf"),
    # both sides bad: the observed side is named first
    ([1.0, math.inf, 3.0], [math.nan, 2.0, 3.0], "observed value at index 1 is not finite: inf"),
    # non-finite and constant: the values are refused before the variance
    ([math.inf, math.inf], [1.0, 2.0], "observed value at index 0 is not finite: inf"),
])
def test_evaluate_refuses_non_finite_values_naming_the_side_and_index(
        share, observed, computed, message):
    with pytest.raises(InputError) as info:
        evaluate(Column(observed) if share else observed, computed)
    assert str(info.value) == message


def test_an_observed_series_scores_each_series_as_evaluate_does():
    data = reference_dataset()
    ys = [s.y for s in data.samples]
    observed = Column(ys)
    rng = random.Random(25)
    for _ in range(20):
        comp = [y + rng.uniform(-50.0, 50.0) for y in ys]
        shared, alone = evaluate(observed, comp), evaluate(ys, comp)
        assert [repr(getattr(shared, f)) for f in shared.__dataclass_fields__] == [
            repr(getattr(alone, f)) for f in alone.__dataclass_fields__]
    # a refused series leaves the shared side as it was
    with pytest.raises(InputError):
        evaluate(observed, ys[:-1])
    assert evaluate(observed, ys).sse == 0.0
    # constant observations are refused at every call, not only the first
    constant = Column([5.0, 5.0, 5.0])
    for _ in range(2):
        with pytest.raises(DegenerateVarianceError):
            evaluate(constant, [1.0, 2.0, 3.0])


def test_a_column_computes_each_moment_once_and_keeps_it():
    column = Column([1.0, 2.0, 6.0])
    centred = column.centred
    assert {"mean", "centred"} <= set(vars(column))
    assert column.sum_sq == 14.0
    assert column.centred is centred and "sum_sq" in vars(column)
    # the kept moments are not made again from the values
    column.values.append(100.0)
    assert (column.mean, column.centred, column.sum_sq) == (3.0, [-2.0, -1.0, 3.0], 14.0)


def test_a_moment_whose_sum_overflows_raises_at_every_read_and_is_not_kept():
    column = Column([1e300, -1e300])
    for _ in range(2):
        with pytest.raises(OverflowError):
            column.sum_sq
    assert "sum_sq" not in vars(column)
    assert column.centred == [1e300, -1e300]


def test_a_dataset_keeps_its_columns():
    data = reference_dataset()
    assert data.x is data.x and data.y is data.y and data.ln_x is data.ln_x
    assert {"x", "y", "ln_x"} <= set(vars(data))


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


def test_eta_matches_r_squared_for_raw_ols_fits():
    # least-squares fits carried out in the raw data space make the
    # efficiency index and the squared correlation agree
    data = reference_dataset()
    for kind in (ModelKind("linear"), ModelKind("polynomial"), ModelKind("logarithmic")):
        model = fit(data, kind)
        predicted = [predict(model, x) for x in data.x.values]
        r = evaluate(data.y.values, predicted)
        assert abs(r.eta - r.r_squared) <= 1e-6


def test_report_to_dict_maps_nan_to_null():
    r = evaluate([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    d = report_to_dict(r)
    assert d["cc"] is None
    assert d["r_squared"] is None
    assert d["sse"] == r.sse
    assert d["cc_defined"] is False
    assert d["sample_count"] == 3


@pytest.mark.parametrize("scale_obs, scale_comp", [(1e100, 1e150), (1e-150, 1e-150)],
                         ids=["overflow", "underflow"])
def test_correlation_survives_sums_of_squares_beyond_the_float_range(scale_obs, scale_comp):
    # comp_ss * sst leaves the normal range, but each factor's root does not
    r = evaluate([scale_obs * k for k in (1, 2, 3)], [scale_comp * k for k in (1, 2, 3)])
    assert r.cc_defined
    assert math.isclose(r.cc, 1.0, rel_tol=1e-12)
    assert math.isclose(r.r_squared, 1.0, rel_tol=1e-12)


def test_correlation_in_range_keeps_the_single_root():
    obs, comp = [1.0, 2.0, 4.0, 3.0], [1.5, 1.9, 3.2, 3.3]
    r = evaluate(obs, comp)
    mo, mc = math.fsum(obs) / 4, math.fsum(comp) / 4
    cov = math.fsum((c - mc) * (o - mo) for c, o in zip(comp, obs))
    sst = math.fsum((o - mo) ** 2 for o in obs)
    comp_ss = math.fsum((c - mc) ** 2 for c in comp)
    assert r.cc == cov / math.sqrt(comp_ss * sst)
