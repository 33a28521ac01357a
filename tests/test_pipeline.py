import logging
import math
import weakref

import pytest

from floodgauge import traffic_sim
from floodgauge.detector import Baseline, DetectionEvent, build_baseline
from floodgauge.entropy_core import FlowRecord, compute_entropy, windowize
from floodgauge.errors import (
    ConfigError,
    DegenerateDataError,
    EmptyRunError,
    InputError,
)
from floodgauge.pipeline import (
    ESTIMATES_TABLE,
    calibrate,
    compare_models,
    comparison_to_csv,
    comparison_to_dict,
    estimate_strength,
    read_calibration_csv,
    run_events,
    write_calibration_csv,
    write_estimates_csv,
)
from floodgauge.fileio import read_table
from floodgauge.refdata import reference_dataset
from floodgauge.regression import (
    CalibrationDataset,
    FittedModel,
    ModelKind,
    fit,
    predict,
)
from floodgauge.metrics import evaluate
from floodgauge.traffic_sim import FlowRecordSeries, ScenarioConfig, simulate, sweep


def small_base(**overrides):
    defaults = dict(
        legit_clients=60,
        zombies=10,
        legit_mean_rate_mbps_per_client=1.0,
        window_length_ms=200.0,
        num_windows=12,
        seed=7,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def clean_baseline(base):
    clean = simulate(
        small_base(
            attack_rate_mbps_per_zombie=0.0,
            zombies=0,
            num_windows=20,
            seed=base.seed + 1,
        )
    )
    windows = windowize(clean.records, clean.window_length_ms)
    return build_baseline([compute_entropy(w) for w in windows])


def test_run_events_flags_attacked_traffic_only():
    base = small_base()
    baseline = clean_baseline(base)
    attacked = simulate(small_base(attack_rate_mbps_per_zombie=2.0))
    events = run_events(attacked, baseline)
    assert len(events) == 12
    assert all(e.attack_flag for e in events)

    clean = simulate(
        small_base(attack_rate_mbps_per_zombie=0.0, zombies=0, seed=99)
    )
    events = run_events(clean, baseline)
    assert not any(e.attack_flag for e in events)


def test_run_events_keeps_trailing_empty_windows():
    # one byte per window on average: window 11 of this run has no record
    sparse = simulate(small_base(
        legit_clients=2, zombies=0, legit_mean_rate_mbps_per_client=0.00004, seed=9
    ))
    assert max(r.window_index for r in sparse.records) < 11
    baseline = Baseline(h_n=0.5, threshold=0.1, training_windows=5)
    events = run_events(sparse, baseline)
    assert [e.window_index for e in events] == list(range(12))
    assert events[-1].deviation == -0.5
    assert not events[-1].attack_flag

    silent = FlowRecordSeries((), sparse.metadata)
    assert len(run_events(silent, baseline)) == 12
    # without a recorded count the run ends at its last record
    config = {"window_length_ms": 200.0}
    shortened = FlowRecordSeries(sparse.records, {"config": config})
    assert len(run_events(shortened, baseline)) == 11
    with pytest.raises(EmptyRunError, match="no windows"):
        run_events(FlowRecordSeries((), {"config": config}), baseline)
    for count in ("twelve", 10):
        with pytest.raises(InputError, match="num_windows"):
            FlowRecordSeries(sparse.records, {"config": dict(config, num_windows=count)})


def test_calibrate_builds_sorted_samples():
    base = small_base()
    baseline = clean_baseline(base)
    # keep the attack share below zombies/(zombies+clients) so the
    # entropy deviation grows with strength
    runs = sweep(base, [9.0, 3.0, 6.0])
    data = calibrate(runs, baseline)
    assert [s.y for s in data.samples] == [3.0, 6.0, 9.0]
    assert all(s.x > 0.1 for s in data.samples)
    xs = [s.x for s in data.samples]
    assert xs == sorted(xs)


def test_calibrate_holds_one_sweep_run_at_a_time(monkeypatch):
    base = small_base()
    baseline = clean_baseline(base)
    alive = weakref.WeakSet()
    peak = 0

    def tracked(cfg, real=traffic_sim.simulate):
        nonlocal peak
        series = real(cfg)
        alive.add(series)
        peak = max(peak, len(alive))
        return series

    monkeypatch.setattr(traffic_sim, "simulate", tracked)
    data = calibrate(sweep(base, [1.5, 3.0, 4.5, 6.0, 7.5, 9.0]), baseline)
    assert [s.y for s in data.samples] == [1.5, 3.0, 4.5, 6.0, 7.5, 9.0]
    assert peak <= 2


def test_calibrate_rejects_runs_without_flags():
    base = small_base()
    baseline = clean_baseline(base)
    quiet = simulate(small_base(attack_rate_mbps_per_zombie=0.0))
    with pytest.raises(EmptyRunError, match="no flagged windows"):
        calibrate([(10.0, quiet)], baseline)


def test_calibrate_rejects_empty_run_list():
    baseline = Baseline(8.0, 0.1, 5)
    with pytest.raises(EmptyRunError):
        calibrate([], baseline)


def test_compare_models_on_reference_sweep():
    comparison = compare_models(reference_dataset())
    assert set(comparison.reports) == {
        "linear",
        "polynomial",
        "logarithmic",
        "power",
        "exponential",
    }
    assert comparison.skipped == {}
    assert comparison.best_model.tag == "polynomial"
    assert comparison.best_model.degree == 2
    assert comparison.selection_criterion == "eta"


def test_compare_models_alternative_criteria():
    data = reference_dataset()
    assert compare_models(data, criterion="sse").best_model.tag == "polynomial"
    assert compare_models(data, criterion="r_squared").best_model.tag == "polynomial"
    with pytest.raises(ConfigError):
        compare_models(data, criterion="rmse")


def test_compare_models_skips_families_outside_domain():
    data = CalibrationDataset.from_pairs(
        [(0.0, 10.0), (0.2, 20.0), (0.3, 30.0), (0.4, 45.0)]
    )
    comparison = compare_models(data)
    assert "logarithmic" in comparison.skipped
    assert "power" in comparison.skipped
    assert set(comparison.reports) == {"linear", "polynomial", "exponential"}
    assert comparison.best_model.tag in comparison.reports


def test_compare_models_fails_when_nothing_fits():
    data = CalibrationDataset.from_pairs([(1.0, 10.0), (1.0, 20.0), (1.0, 30.0)])
    with pytest.raises(DegenerateDataError):
        compare_models(data)


def test_estimate_strength_flagged_windows_only():
    model = fit(reference_dataset(), ModelKind("linear"))
    events = [
        DetectionEvent(0, 8.7, 0.05, False),
        DetectionEvent(1, 8.9, 0.25, True),
        DetectionEvent(2, 9.0, 0.31, True),
    ]
    estimates = estimate_strength(model, events)
    assert [e.window_index for e in estimates] == [1, 2]
    assert math.isclose(
        estimates[0].estimated_strength_mbps, predict(model, 0.25), rel_tol=1e-12
    )
    assert not any(e.clamped for e in estimates)


def test_estimate_strength_clamps_negative_predictions():
    model = fit(reference_dataset(), ModelKind("linear"))
    # deviation small enough that the linear fit dips below zero
    events = [DetectionEvent(0, 8.75, 0.11, True)]
    assert predict(model, 0.11) < 0
    estimates = estimate_strength(model, events)
    assert estimates[0].estimated_strength_mbps == 0.0
    assert estimates[0].clamped


def test_estimate_strength_skips_out_of_domain_windows(caplog):
    model = fit(reference_dataset(), ModelKind("logarithmic"))
    events = [
        DetectionEvent(0, 8.4, -0.2, True),
        DetectionEvent(1, 8.9, 0.25, True),
    ]
    with caplog.at_level(logging.WARNING, logger="floodgauge.pipeline"):
        estimates = estimate_strength(model, events)
    assert [e.window_index for e in estimates] == [1]
    assert "window 0" in caplog.text


def test_calibration_csv_round_trip(tmp_path):
    data = reference_dataset()
    path = tmp_path / "cal.csv"
    write_calibration_csv(path, data)
    loaded = read_calibration_csv(path)
    assert loaded.samples == data.samples
    assert path.read_text().splitlines()[0] == "deviation,strength_mbps"


def test_calibration_csv_errors(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("deviation,strength_mbps\n0.1,10\n")
    with pytest.raises(InputError, match=">= 2"):
        read_calibration_csv(path)
    path.write_text("wrong\n0.1,10\n")
    with pytest.raises(InputError, match=rf"{path}:1"):
        read_calibration_csv(path)
    path.write_text("deviation,strength_mbps\n0.1,ten\n")
    with pytest.raises(InputError, match=rf"{path}:2"):
        read_calibration_csv(path)


def test_estimates_csv_round_trip(tmp_path):
    model = fit(reference_dataset(), ModelKind("linear"))
    events = [
        DetectionEvent(3, 8.9, 0.25, True),
        DetectionEvent(4, 8.8, 0.11, True),
    ]
    estimates = estimate_strength(model, events)
    path = tmp_path / "estimates.csv"
    write_estimates_csv(path, estimates)
    assert read_table(path, ESTIMATES_TABLE) == estimates
    lines = path.read_text().splitlines()
    assert lines[0] == "window_index,deviation,estimate_mbps,clamped"
    assert lines[2].endswith(",true")


def test_comparison_serialization():
    comparison = compare_models(reference_dataset())
    text = comparison_to_csv(comparison)
    lines = text.splitlines()
    assert lines[0] == "model,r2,cc,sse,mse,rmse,nmse_eq11,nmse_table2,eta,mae_index"
    assert len(lines) == 6
    assert lines[1].startswith("linear,")
    sse = float(lines[1].split(",")[3])
    assert math.isclose(sse, comparison.reports["linear"].sse, rel_tol=1e-15)

    d = comparison_to_dict(comparison)
    assert d["best_model"] == {"tag": "polynomial", "degree": 2}
    assert d["criterion"] == "eta"
    assert set(d["models"]) == set(comparison.reports)
    assert d["models"]["power"]["fit_method"] == "log_linearized"
    assert len(d["models"]["polynomial"]["coefficients"]) == 3


def constant_entropy_series(flows, windows=3):
    # identical windows of `flows` equal flows carry entropy log2(flows)
    records = tuple(
        FlowRecord(window_index=w, flow_id=f"f{i}", bytes=10)
        for w in range(windows)
        for i in range(flows)
    )
    return FlowRecordSeries(
        records=records,
        metadata={"config": {"window_length_ms": 200.0, "num_windows": windows}},
    )


def test_constant_deviation_runs_calibrate_to_their_means():
    # against a baseline of 1.0 a four-flow run deviates by exactly 1.0
    # in every window and an eight-flow run by exactly 2.0, so each
    # run's sample x is that constant
    baseline = Baseline(h_n=1.0, threshold=0.1, training_windows=5)
    data = calibrate(
        [(80.0, constant_entropy_series(8)), (50.0, constant_entropy_series(4))],
        baseline,
    )
    assert [(s.x, s.y) for s in data.samples] == [(1.0, 50.0), (2.0, 80.0)]


def test_collinear_dataset_breaks_tie_to_linear():
    xs = [0.1, 0.2, 0.3, 0.4, 0.5]
    ys = [100.0 * x + 5.0 for x in xs]
    data = CalibrationDataset.from_pairs(zip(xs, ys))
    for criterion in ("eta", "sse"):
        report = compare_models(data, criterion=criterion)
        assert report.best_model.tag == "linear"
        assert report.reports["linear"].sse <= 1e-18
        assert report.reports["polynomial"].sse <= 1e-12


def test_best_model_is_stable_under_sample_reordering():
    base = reference_dataset()
    pairs = list(zip(base.x.values, base.y.values))
    for ordering in (pairs, pairs[::-1], pairs[9:] + pairs[:9]):
        data = CalibrationDataset.from_pairs(ordering)
        report = compare_models(data)
        assert report.best_model.tag == "polynomial"


def test_estimate_matches_rounded_coefficient_example():
    model = FittedModel(
        kind=ModelKind("linear"), coefficients=(-75.0, 569.0),
        fit_method="raw_ols", trained_on="synthetic",
    )
    events = [DetectionEvent(0, 1.349, 0.149, True)]
    estimates = estimate_strength(model, events)
    assert len(estimates) == 1
    assert math.isclose(estimates[0].estimated_strength_mbps, 9.781, abs_tol=1e-9)
    assert not estimates[0].clamped


def test_calibration_roundtrip_error_stays_within_twice_rmse():
    data = reference_dataset()
    for kind in (ModelKind("linear"), ModelKind("polynomial", 2)):
        model = fit(data, kind)
        predicted = [predict(model, x) for x in data.x.values]
        report = evaluate(data.y.values, predicted)
        events = [
            DetectionEvent(i, float("nan"), x, True)
            for i, x in enumerate(data.x.values)
        ]
        estimates = estimate_strength(model, events)
        assert len(estimates) == len(data.samples)
        mae = math.fsum(
            abs(e.estimated_strength_mbps - y)
            for e, y in zip(estimates, data.y.values)
        ) / len(data.samples)
        assert mae <= 2.0 * report.rmse
