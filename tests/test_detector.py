import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floodgauge.detector import (
    EVENTS_TABLE,
    Baseline,
    DetectionEvent,
    build_baseline,
    evaluate_window,
    evaluate_windows,
    load_baseline,
    save_baseline,
    write_events_csv,
)
from floodgauge.entropy_core import EntropyValue
from floodgauge.errors import InputError, InsufficientBaselineError
from floodgauge.fileio import read_table
from helpers import odd_numbers


def ev(value):
    return EntropyValue(value, 400)


def test_baseline_is_mean_of_training_entropies():
    baseline = build_baseline([ev(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)])
    assert baseline.h_n == 3.0
    assert baseline.training_windows == 5
    assert baseline.threshold == 0.1


def test_baseline_needs_five_windows():
    with pytest.raises(InsufficientBaselineError):
        build_baseline([ev(1.0)] * 4)
    build_baseline([ev(1.0)] * 5)


def test_baseline_leaves_empty_windows_out_of_the_mean():
    empty = EntropyValue(0.0, 0)
    baseline = build_baseline([empty, ev(2.0), ev(4.0), empty, ev(6.0), ev(8.0),
                               EntropyValue(0.0, 1), empty])
    # a one-flow window holds traffic, so its entropy of 0 is averaged in
    assert baseline.h_n == 4.0
    assert baseline.training_windows == 8
    with pytest.raises(InsufficientBaselineError,
                       match=r"^baseline needs >= 5 training windows, got 4 with traffic "
                             r"and 6 empty$"):
        build_baseline([ev(1.0)] * 4 + [empty] * 6)


def test_baseline_validation():
    with pytest.raises(InputError):
        Baseline(-1.0, 0.1, 5)
    with pytest.raises(InputError):
        Baseline(1.0, -0.1, 5)
    with pytest.raises(InputError):
        Baseline(float("nan"), 0.1, 5)
    with pytest.raises(InsufficientBaselineError):
        Baseline(1.0, 0.1, 4)


def test_zero_threshold_flags_any_positive_deviation():
    baseline = Baseline(2.0, 0.0, 5)
    assert evaluate_window(ev(2.0 + 1e-9), baseline).attack_flag
    assert not evaluate_window(ev(2.0), baseline).attack_flag
    assert not evaluate_window(ev(1.9), baseline).attack_flag


def test_deviation_is_current_minus_baseline():
    baseline = Baseline(8.0, 0.25, 5)
    event = evaluate_window(ev(8.5), baseline, window_index=3)
    assert event.window_index == 3
    assert event.h_c == 8.5
    assert event.deviation == 0.5
    assert event.attack_flag

    event = evaluate_window(ev(2.25), Baseline(2.0, 0.1, 5))
    assert event.deviation == 0.25
    assert event.attack_flag


def test_flag_requires_strictly_exceeding_threshold():
    baseline = Baseline(8.0, 0.25, 5)
    # exactly at the threshold stays clean
    assert not evaluate_window(ev(8.25), baseline).attack_flag
    assert evaluate_window(ev(8.3125), baseline).attack_flag
    assert not evaluate_window(ev(8.0), baseline).attack_flag
    # a drop below baseline never flags
    assert not evaluate_window(ev(7.0), baseline).attack_flag


def test_evaluate_windows_numbers_events():
    baseline = Baseline(2.0, 0.1, 5)
    events = evaluate_windows([ev(2.0), ev(2.5), ev(2.05)], baseline)
    assert [e.window_index for e in events] == [0, 1, 2]
    assert [e.attack_flag for e in events] == [False, True, False]


def test_baseline_tracks_long_run_entropy():
    from floodgauge.entropy_core import compute_entropy, windowize
    from floodgauge.traffic_sim import ScenarioConfig, simulate

    def mean_entropy(num_windows):
        cfg = ScenarioConfig(
            legit_clients=100, zombies=0, num_windows=num_windows, seed=77
        )
        series = simulate(cfg)
        windows = windowize(series.records, cfg.window_length_ms)
        return [compute_entropy(w) for w in windows]

    baseline = build_baseline(mean_entropy(50))
    long_run = mean_entropy(500)
    long_mean = sum(e.value for e in long_run) / len(long_run)
    assert abs(baseline.h_n - long_mean) < 0.05


def test_baseline_json_round_trip(tmp_path):
    path = tmp_path / "baseline.json"
    baseline = Baseline(8.643856189774725, 0.1, 30)
    save_baseline(path, baseline)
    assert load_baseline(path) == baseline


def test_baseline_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"h_n": 1.0}\n')
    with pytest.raises(InputError, match=str(path)):
        load_baseline(path)


@pytest.mark.parametrize("field, value", [
    *(pytest.param("training_windows", v, id=v) for v in ["1e400", "12.5", '"12"', "true"]),
    *(pytest.param(f, v, id=f"{f}-{v}") for f in ["h_n", "threshold"] for v in ['"0.5"', "true"]),
])
def test_baseline_load_refuses_a_training_count_it_would_coerce(tmp_path, field, value):
    path = tmp_path / "baseline.json"
    fields = {"h_n": "1.0", "threshold": "0.1", "training_windows": "12", field: value}
    path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n")
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: missing or ill-typed"):
        load_baseline(path)


def test_baseline_load_accepts_a_whole_float_training_count(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"h_n": 1.0, "threshold": 0.1, "training_windows": 12.0}\n')
    assert load_baseline(path) == Baseline(1.0, 0.1, 12)


def test_events_csv_round_trip(tmp_path):
    events = [
        DetectionEvent(0, 8.6438, -0.0012, False),
        DetectionEvent(1, 8.9001, 0.2551, True),
    ]
    path = tmp_path / "events.csv"
    write_events_csv(path, events)
    assert read_table(path, EVENTS_TABLE) == events
    lines = path.read_text().splitlines()
    assert lines[0] == "window_index,h_c,deviation,attack_flag"
    assert lines[1].endswith(",false")
    assert lines[2].endswith(",true")


def test_events_csv_errors_name_file_and_line(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("window_index,h_c,deviation,attack_flag\n0,8.0,0.2,yes\n")
    with pytest.raises(InputError, match=rf"{path}:2"):
        read_table(path, EVENTS_TABLE)
    path.write_text("bad header\n")
    with pytest.raises(InputError, match=rf"{path}:1"):
        read_table(path, EVENTS_TABLE)


numbers = odd_numbers(-2, 10)  # a training window count near the minimum of 5


@settings(max_examples=200, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(h_n=numbers, threshold=numbers, training_windows=numbers)
def test_a_baseline_is_refused_when_made_or_loads_back_equal(
        tmp_path, h_n, threshold, training_windows):
    try:
        baseline = Baseline(h_n, threshold, training_windows)
    except (InputError, InsufficientBaselineError):
        return
    assert [type(v) for v in vars(baseline).values()] == [float, float, int]
    path = tmp_path / "b.json"
    save_baseline(path, baseline)
    assert load_baseline(path) == baseline


@pytest.mark.parametrize("fields, message", [
    ((0.5, 0.1, 5.5), "training_windows: expected a whole number, got 5.5"),
    ((True, 0.1, 6), "h_n: expected a number, got True"),
    ((0.5, "0.1", 6), "threshold: expected a number, got '0.1'"),
])
def test_a_baseline_takes_numbers_by_the_loaders_rule(fields, message):
    with pytest.raises(InputError, match="^missing or ill-typed field: " + re.escape(message)):
        Baseline(*fields)
