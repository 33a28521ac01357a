import dataclasses
import json
import math
import os
import re
import shutil
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floodgauge.entropy_core import (
    MAX_GAP_WINDOWS,
    FlowRecord,
    WindowCounts,
    _read_flow_blocks,
    _read_flow_rows,
    _rows_by_window,
    read_flow_csv,
    windowize,
)
from floodgauge import entropy_core, traffic_sim
from floodgauge.errors import ConfigError, InputError
from floodgauge.fileio import atomic_write, atomic_write_text
from floodgauge.traffic_sim import (
    GENERATOR_NAME,
    FlowRecordSeries,
    ScenarioConfig,
    _window_bytes,
    expected_deviation,
    read_series,
    simulate,
    sweep,
    write_series,
)
from helpers import series_of_rows


def small_config(**overrides):
    defaults = dict(
        legit_clients=20,
        zombies=5,
        attack_rate_mbps_per_zombie=0.1,
        legit_mean_rate_mbps_per_client=1.0,
        window_length_ms=200.0,
        num_windows=6,
        seed=99,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def csv_text(records):
    """The flow CSV of records in window order: the header, then one line per record."""
    return "window_index,flow_id,bytes\n" + "".join(
        f"{r.window_index},{r.flow_id},{r.bytes}\n" for r in records)


def test_zombies_send_constant_volume():
    # 0.1 Mbps over a 200 ms window is exactly 2500 bytes
    cfg = small_config(legit_clients=0, zombies=3)
    series = simulate(cfg)
    assert len(series.records) == 3 * cfg.num_windows
    assert all(r.bytes == 2500 for r in series.records)
    assert all(r.flow_id.startswith("zombie-") for r in series.records)


def test_zero_attack_rate_emits_no_zombie_records():
    series = simulate(small_config(attack_rate_mbps_per_zombie=0.0))
    assert all(r.flow_id.startswith("legit-") for r in series.records)


def test_simulation_is_reproducible():
    cfg = small_config()
    a = simulate(cfg)
    b = simulate(cfg)
    assert a.records == b.records
    assert a.metadata == b.metadata
    c = simulate(small_config(seed=100))
    assert c.records != a.records


def test_negative_seed_masks_to_unsigned():
    masked = simulate(small_config(seed=-1))
    explicit = simulate(small_config(seed=2**64 - 1))
    assert masked.records == explicit.records
    assert masked.metadata["seed"] == 2**64 - 1


def test_metadata_describes_the_run():
    cfg = small_config()
    series = simulate(cfg)
    assert series.metadata["generator"] == GENERATOR_NAME
    assert series.metadata["config"]["num_windows"] == cfg.num_windows
    assert series.window_length_ms == 200.0
    assert series.num_windows == 6
    assert series.metadata["flow_labels"] == {"legit": "legit-", "zombie": "zombie-"}


def nested_loop_records(cfg):
    """The simulator's records built cell by cell, as a reference."""
    rng = np.random.default_rng(cfg.seed & (2**64 - 1))
    lam = cfg.legit_mean_rate_mbps_per_client * (cfg.window_length_ms / 1000.0) * 1e6 / 8.0
    if cfg.legit_clients > 0:
        legit = rng.poisson(lam, size=(cfg.num_windows, cfg.legit_clients))
    else:
        legit = np.zeros((cfg.num_windows, 0), dtype=np.int64)
    zombie_bytes = int(
        round(cfg.attack_rate_mbps_per_zombie * (cfg.window_length_ms / 1000.0) * 1e6 / 8.0)
    )
    records = []
    for w in range(cfg.num_windows):
        for i in range(cfg.legit_clients):
            b = int(legit[w, i])
            if b > 0:
                records.append(FlowRecord(w, f"legit-{i:04d}", b))
        if zombie_bytes > 0:
            for i in range(cfg.zombies):
                records.append(FlowRecord(w, f"zombie-{i:04d}", zombie_bytes))
    return tuple(records)


@pytest.mark.parametrize(
    "cfg",
    [
        ScenarioConfig(),
        small_config(legit_clients=0),
        small_config(zombies=0),
        small_config(legit_clients=0, zombies=0),
        small_config(attack_rate_mbps_per_zombie=0.0),
        # about one byte per window, so many draws are zero
        small_config(legit_mean_rate_mbps_per_client=0.00004, num_windows=40),
    ],
    ids=["default", "no-legit", "no-zombies", "empty", "no-attack", "sparse"],
)
def test_records_match_the_nested_loop_reference(cfg):
    records = simulate(cfg).records
    assert records == nested_loop_records(cfg)
    assert all(type(r.window_index) is int and type(r.bytes) is int for r in records)
    # every record of a flow shares the one id string
    first = {}
    assert all(first.setdefault(r.flow_id, r.flow_id) is r.flow_id for r in records)


def test_sparse_reference_config_has_zero_draws():
    cfg = small_config(legit_mean_rate_mbps_per_client=0.00004, num_windows=40)
    legit = [r for r in simulate(cfg).records if r.flow_id.startswith("legit-")]
    assert 0 < len(legit) < cfg.legit_clients * cfg.num_windows


def test_records_are_ordered_by_window():
    series = simulate(small_config())
    indices = [r.window_index for r in series.records]
    assert indices == sorted(indices)
    assert indices[0] == 0
    assert indices[-1] == 5


def test_legit_volume_matches_the_configured_mean():
    # lambda = 1.0 Mbps * 0.2 s / 8 = 25000 bytes per window
    cfg = ScenarioConfig(
        legit_clients=12, zombies=0, num_windows=1000, seed=4242
    )
    series = simulate(cfg)
    volumes = [r.bytes for r in series.records]
    assert len(volumes) == 12 * 1000
    mean = np.mean(volumes)
    standard_error = math.sqrt(25000.0 / len(volumes))
    assert abs(mean - 25000.0) < 3.0 * standard_error


def test_hundred_zombie_attack_volume_per_window():
    # 100 zombies at 0.1 Mbps each over 200 ms carry 250000 bytes total
    cfg = small_config(legit_clients=0, zombies=100, num_windows=2)
    series = simulate(cfg)
    per_window = {}
    for r in series.records:
        per_window[r.window_index] = per_window.get(r.window_index, 0) + r.bytes
    assert per_window == {0: 250000, 1: 250000}


def test_per_window_totals_are_conserved():
    from floodgauge.entropy_core import windowize

    cfg = small_config()
    series = simulate(cfg)
    windows = windowize(series.records, cfg.window_length_ms)
    raw_totals = {}
    for r in series.records:
        raw_totals[r.window_index] = raw_totals.get(r.window_index, 0) + r.bytes
    for w in windows:
        assert w.total == raw_totals.get(w.window_index, 0)


def test_seed_changes_legit_traffic_but_not_attack_traffic():
    a = simulate(small_config(seed=1))
    b = simulate(small_config(seed=2))

    def split(series):
        legit = [r for r in series.records if r.flow_id.startswith("legit-")]
        attack = [r for r in series.records if r.flow_id.startswith("zombie-")]
        return legit, attack

    legit_a, attack_a = split(a)
    legit_b, attack_b = split(b)
    assert legit_a != legit_b
    assert attack_a == attack_b


def test_sweep_divides_strength_across_zombies():
    base = small_config()
    runs = sweep(base, [10.0, 40.0])
    assert [s for s, _ in runs] == [10.0, 40.0]
    for strength, series in runs:
        per_zombie = strength / base.zombies
        expected = round(per_zombie * 0.2 * 1e6 / 8)
        zombie_bytes = {
            r.bytes for r in series.records if r.flow_id.startswith("zombie-")
        }
        assert zombie_bytes == {expected}


def test_sweep_runs_get_distinct_deterministic_seeds():
    base = small_config()
    first = sweep(base, [10.0, 20.0, 30.0])
    second = sweep(base, [10.0, 20.0, 30.0])
    seeds = [series.metadata["seed"] for _, series in first]
    assert len(set(seeds)) == 3
    assert seeds == [series.metadata["seed"] for _, series in second]
    for (_, a), (_, b) in zip(first, second):
        assert a.records == b.records


def test_sweep_checks_every_strength_before_simulating(monkeypatch):
    calls = []
    monkeypatch.setattr(traffic_sim, "simulate", calls.append)
    with pytest.raises(ConfigError):
        sweep(small_config(), [10.0, 0.0])
    assert calls == []


def test_sweep_is_a_sequence_that_simulates_each_read():
    runs = sweep(small_config(), [10.0, 20.0, 30.0])
    assert len(runs) == 3
    last, again = runs[-1], runs[len(runs) - 1]
    assert last[0] == again[0] == 30.0
    assert last[1].records == again[1].records
    assert last[1].metadata["seed"] == again[1].metadata["seed"]
    tail = runs[1:]
    assert len(tail) == 2
    assert [s for s, _ in tail] == [20.0, 30.0]
    assert tail[0][1].records == runs[1][1].records
    assert tail[0][1].metadata["seed"] == runs[1][1].metadata["seed"]
    assert runs[0][1].metadata["seed"] != runs[1][1].metadata["seed"]
    with pytest.raises(IndexError):
        runs[3]


def test_sweep_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        sweep(small_config(), [10.0, 0.0])
    with pytest.raises(ConfigError):
        sweep(small_config(), [-5.0])
    with pytest.raises(ConfigError):
        sweep(small_config(zombies=0), [10.0])


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(legit_clients=-1)
    with pytest.raises(ConfigError):
        small_config(zombies=-1)
    with pytest.raises(ConfigError):
        small_config(attack_rate_mbps_per_zombie=-0.1)
    with pytest.raises(ConfigError):
        small_config(legit_mean_rate_mbps_per_client=math.inf)
    with pytest.raises(ConfigError):
        small_config(window_length_ms=0.0)
    with pytest.raises(ConfigError):
        small_config(num_windows=0)
    # byte volumes beyond 2**53 per window lose integer precision
    with pytest.raises(ConfigError):
        small_config(attack_rate_mbps_per_zombie=1e12)


@pytest.mark.parametrize("field, value, message", [
    ("num_windows", 2.5, "num_windows must be an integer, got 2.5"),
    ("zombies", True, "zombies must be an integer, got True"),
    ("seed", 5.0, "seed must be an integer, got 5.0"),
    ("legit_clients", "4", "legit_clients must be an integer, got '4'"),
    ("window_length_ms", True, "window_length_ms must be a number, got True"),
    ("attack_rate_mbps_per_zombie", "0.5",
     "attack_rate_mbps_per_zombie must be a number, got '0.5'"),
    # past the float range
    ("legit_mean_rate_mbps_per_client", 10**400,
     "legit_mean_rate_mbps_per_client must be a number"),
    # a quarter byte per window rounds to 0, so the zombies would send nothing
    ("attack_rate_mbps_per_zombie", 1e-5, "attack_rate_mbps_per_zombie yields 0.25 bytes per "
     "window, which rounds to 0; a rate of 0 disables the attack"),
])
def test_config_refuses_what_simulate_or_the_sidecar_cannot_hold(field, value, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        small_config(**{field: value})


def test_config_keeps_python_numbers_that_the_sidecar_holds(tmp_path):
    cfg = small_config(legit_clients=np.int64(4), zombies=np.uint8(2), seed=np.int64(5),
                       attack_rate_mbps_per_zombie=np.float32(0.5), window_length_ms=200)
    assert cfg == small_config(legit_clients=4, zombies=2, seed=5,
                               attack_rate_mbps_per_zombie=0.5, window_length_ms=200.0)
    assert [type(v) for v in vars(cfg).values()] == [int, int, float, float, float, int, int]
    write_series(tmp_path / "run.csv", simulate(cfg))
    assert read_series(tmp_path / "run.csv").metadata["config"] == dataclasses.asdict(cfg)
    # no zombie, or a rate of 0, sends no attack, however small the rate
    assert small_config(zombies=0, attack_rate_mbps_per_zombie=1e-5).zombies == 0
    assert expected_deviation(small_config(attack_rate_mbps_per_zombie=0.0)) == 0.0


def test_sweep_refuses_a_strength_whose_zombies_round_to_no_bytes(monkeypatch):
    calls = []
    monkeypatch.setattr(traffic_sim, "simulate", calls.append)
    # 5e-5 Mbps over 5 zombies is a quarter byte per zombie and window, which rounds to 0
    message = r"^sweep strength 5e-05 Mbps over 5 zombies: .* which rounds to 0"
    with pytest.raises(ConfigError, match=message):
        sweep(small_config(), [10.0, 5e-5])
    assert calls == []


def test_aggregate_strength_property():
    cfg = small_config(zombies=100, attack_rate_mbps_per_zombie=0.4)
    assert cfg.attack_strength_mbps == 40.0
    assert cfg.peak_strength_mbps == 100.0


def test_deviation_oracle_peaks_at_the_peak_strength():
    cfg = small_config(legit_clients=60, zombies=10)
    at = lambda strength: expected_deviation(
        small_config(legit_clients=60, zombies=10, attack_rate_mbps_per_zombie=strength / 10)
    )
    # zombies as fast as clients make 70 equal flows
    assert cfg.peak_strength_mbps == 10.0
    assert at(10.0) == pytest.approx(math.log2(70 / 60), abs=1e-12)
    assert at(9.0) < at(10.0) > at(11.0)
    # by default the deviation is back to 0 at 400 Mbps, four times the peak
    assert expected_deviation(ScenarioConfig(attack_rate_mbps_per_zombie=4.0)) == pytest.approx(
        0.0, abs=1e-12
    )


@settings(max_examples=40, database=None, deadline=None)
@given(
    legit=st.integers(2, 120),
    zombies=st.integers(1, 60),
    legit_rate=st.sampled_from([0.05, 0.2, 1.0]),
    speed=st.one_of(st.just(1.0), st.floats(0.05, 20.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_mean_deviation_matches_the_closed_form(legit, zombies, legit_rate, speed, seed):
    cfg = small_config(
        legit_clients=legit, zombies=zombies, legit_mean_rate_mbps_per_client=legit_rate,
        attack_rate_mbps_per_zombie=speed * legit_rate, num_windows=20, seed=seed,
    )
    clean = small_config(
        legit_clients=legit, zombies=0, legit_mean_rate_mbps_per_client=legit_rate,
        num_windows=20, seed=seed + 1,
    )
    mean = lambda run: math.fsum(e.value for e in run.entropies()) / run.num_windows
    error = mean(simulate(cfg)) - mean(simulate(clean)) - expected_deviation(cfg)
    # Poisson(lam) legit volumes bias a run's mean entropy low by at most
    # 1 / (2 lam ln 2) and spread an attack window's, to first order, with
    # standard deviation sqrt(N / lam) * p * |log2 p + H| (p = lam / T, H the
    # window's entropy): allow twice the bias and six deviations of the mean
    lam = _window_bytes(legit_rate, cfg.window_length_ms)
    a = round(_window_bytes(cfg.attack_rate_mbps_per_zombie, cfg.window_length_ms))
    p = lam / (legit * lam + zombies * a)
    h = expected_deviation(cfg) + math.log2(legit)  # a clean window's entropy is log2 N
    sigma = math.sqrt(legit / lam) * p * abs(math.log2(p) + h)
    tolerance = 1 / (lam * math.log(2)) + 6 * sigma / math.sqrt(cfg.num_windows)
    assert abs(error) <= tolerance


@settings(
    max_examples=60,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    legit=st.integers(0, 6),
    zombies=st.integers(0, 3),
    # 1e-5 Mbps is a quarter byte per window, so most draws are zero; 4e-5 Mbps
    # sends a zombie one byte per window, as a zombie rate that rounds to 0 is refused
    legit_rate=st.sampled_from([1e-5, 0.0005, 1.0]),
    attack_rate=st.sampled_from([0.0, 4e-5, 0.1]),
    windows=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
# no clients and no zombies: a run of empty windows only
@example(legit=0, zombies=0, legit_rate=1.0, attack_rate=0.1, windows=3, seed=0)
# window 0 and the last three windows draw no bytes, and the zombie sends nothing
@example(legit=2, zombies=1, legit_rate=1e-5, attack_rate=0.0, windows=5, seed=2)
def test_volume_rows_and_records_make_the_same_series(
    tmp_path, legit, zombies, legit_rate, attack_rate, windows, seed
):
    cfg = small_config(
        legit_clients=legit, zombies=zombies, legit_mean_rate_mbps_per_client=legit_rate,
        attack_rate_mbps_per_zombie=attack_rate, num_windows=windows, seed=seed,
    )
    simulated = simulate(cfg)
    path = tmp_path / "run.csv"
    write_series(path, simulated)
    text = path.read_text(encoding="utf-8")
    assert text == csv_text(simulated.records)
    hexes = lambda run: [(e.value.hex(), e.flow_count) for e in run.entropies()]
    for series in (FlowRecordSeries(simulated.records, simulated.metadata), read_series(path)):
        assert series.records == simulated.records
        assert series.record_count == simulated.record_count == len(text.splitlines()) - 1
        assert series.windows() == simulated.windows()
        assert hexes(series) == hexes(simulated)
        write_series(tmp_path / "again.csv", series)
        assert (tmp_path / "again.csv").read_text(encoding="utf-8") == text


def series_view(series):
    """What a series shows: rows, windows and entropies by value hex and flow count."""
    return (
        series.num_windows, series.window_length_ms, series.records,
        series.record_count, series.windows(),
        [(e.value.hex(), e.flow_count) for e in series.entropies()],
    )


@settings(max_examples=80, database=None, deadline=None)
@given(
    legit=st.sampled_from([0, 1, 2, 9, 40]),
    zombies=st.sampled_from([0, 1, 3]),
    # 1e-5 Mbps is a quarter byte per window: most windows hold no flow or one
    legit_rate=st.sampled_from([1e-5, 1e-4, 0.0005, 1.0]),
    attack_rate=st.sampled_from([0.0, 4e-5, 0.1, 3.0]),
    windows=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_simulated_count_matrix_shows_what_its_records_show(
    legit, zombies, legit_rate, attack_rate, windows, seed
):
    cfg = small_config(
        legit_clients=legit, zombies=zombies, legit_mean_rate_mbps_per_client=legit_rate,
        attack_rate_mbps_per_zombie=attack_rate, num_windows=windows, seed=seed,
    )
    simulated = simulate(cfg)
    view = series_view(simulated)
    assert view == series_view(FlowRecordSeries(simulated.records, simulated.metadata))
    # the run's volume matrix once more, as list rows and as an array
    ids = traffic_sim._flow_ids(legit, zombies)
    matrix = np.zeros((windows, len(ids)), np.int64)
    column = {fid: i for i, fid in enumerate(ids)}
    for r in simulated.records:
        matrix[r.window_index, column[r.flow_id]] = r.bytes
    from_rows = FlowRecordSeries.from_volumes(ids, matrix.tolist(), simulated.metadata)
    from_array = FlowRecordSeries.from_volumes(ids, matrix, simulated.metadata)
    assert series_view(from_rows) == series_view(from_array) == view


@pytest.mark.parametrize("source", ["simulated", "read back", "built from records"])
def test_writing_a_run_holds_no_copy_of_its_csv(tmp_path, source):
    # 400 + 100 flows over 200 windows: 100k records, about 2 MB of CSV
    series = simulate(small_config(legit_clients=400, zombies=100, num_windows=200))
    first = tmp_path / "first.csv"
    write_series(first, series)
    if source == "read back":
        series = read_series(first)
    elif source == "built from records":
        series = FlowRecordSeries(series.records, series.metadata)
    path = tmp_path / "run.csv"
    tracemalloc.start()
    try:
        write_series(path, series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.record_count == 100_000
    assert path.read_bytes() == first.read_bytes()
    assert peak < path.stat().st_size / 4


class _UnwritableCount(int):
    """A byte count whose formatting fails, as a write to a full disk would."""

    def __str__(self):
        raise OSError(28, "No space left on device")


def _chunks_failing_after_the_first():
    yield "window_index,flow_id,bytes\n0,a,5\n"
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("write, error", [
    # window 0 is written, then window 1's count fails to format
    (lambda path: write_series(path, series_of_rows(
        [(0, ("a", "b"), (5, 7)), (1, ("a",), (_UnwritableCount(9),))],
        {"config": {"window_length_ms": 200.0}})), OSError),
    (lambda path: atomic_write(path, _chunks_failing_after_the_first()), OSError),
    # a lone surrogate has no UTF-8 encoding, so writing the text fails
    (lambda path: atomic_write_text(path, "window_index,flow_id,bytes\n0,\ud800,5\n"),
     UnicodeEncodeError),
], ids=["write_series", "atomic_write", "atomic_write_text"])
def test_a_write_failing_part_way_leaves_the_target_and_no_temp_file(tmp_path, write, error):
    path = tmp_path / "run.csv"
    write_series(path, simulate(small_config()))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(error):
        write(path)
    # the CSV and its sidecar are byte for byte as they were, and no *.tmp is left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_metadata_json_cannot_hold_fails_before_either_file_is_replaced(tmp_path):
    path = tmp_path / "s.csv"
    first = simulate(small_config(num_windows=10))
    write_series(path, first)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    config = {"window_length_ms": 200.0, "num_windows": np.int64(2)}
    second = FlowRecordSeries([FlowRecord(0, "x", 5), FlowRecord(1, "y", 7)], {"config": config})
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        write_series(path, second)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    loaded = read_series(path)
    assert loaded.records == first.records and loaded.num_windows == 10


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_written_files_get_the_mode_open_gives_under_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_series(tmp_path / "run.csv", simulate(small_config()))
        atomic_write(tmp_path / "chunks.txt", iter(["a\n", "b\n"]))
        with open(tmp_path / "opened.txt", "w"):
            pass
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(
        ["run.csv", "run.meta.json", "chunks.txt", "opened.txt"], 0o666 & ~umask)


def test_a_temp_name_in_use_is_passed_over(tmp_path, monkeypatch):
    draws = iter([b"\x00" * 6, b"\x00" * 6, b"\x01" * 6])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    taken = tmp_path / "out.txt.000000000000.tmp"
    taken.write_text("someone else's")
    atomic_write_text(tmp_path / "out.txt", "a\n")
    assert taken.read_text() == "someone else's"
    assert (tmp_path / "out.txt").read_text() == "a\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", taken.name]


def test_series_round_trip(tmp_path):
    series = simulate(small_config())
    path = tmp_path / "run.csv"
    write_series(path, series)
    loaded = read_series(path)
    assert loaded.records == series.records
    assert loaded.metadata == series.metadata
    assert (tmp_path / "run.meta.json").exists()


def test_read_series_requires_sidecar(tmp_path):
    series = simulate(small_config())
    path = tmp_path / "run.csv"
    write_series(path, series)
    (tmp_path / "run.meta.json").unlink()
    with pytest.raises(InputError, match="sidecar"):
        read_series(path)


def test_series_rejects_unordered_records():
    series = simulate(small_config())
    shuffled = (series.records[-1],) + series.records[:-1]
    with pytest.raises(InputError):
        FlowRecordSeries(shuffled, series.metadata)


def reference_windows(records, window_length_ms, num_windows):
    """Per-window totals summed through a dict per window, as a reference."""
    sums = {}
    for r in records:
        per_flow = sums.setdefault(r.window_index, {})
        per_flow[r.flow_id] = per_flow.get(r.flow_id, 0) + r.bytes
    if num_windows is None:
        num_windows = max(sums, default=-1) + 1
    return [
        WindowCounts.build(w, sums.get(w, {}), window_length_ms) for w in range(num_windows)
    ]


# mostly a few ids, so (window, flow) pairs repeat; zero bytes and window
# gaps occur; any other id the flow CSV can carry shows up now and then
flow_ids = st.one_of(
    st.sampled_from(["a", "b", "legit-0001", "zombie-0000", "x y"]),
    st.text(min_size=1).filter(
        lambda s: not (set(s) & {",", "\n", "\r"}) and not s.startswith('"')
    ),
)
run_rows = st.lists(
    st.tuples(st.integers(0, 8), flow_ids, st.integers(0, 10**6)), max_size=40
)


@settings(
    max_examples=80,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=run_rows, trailing=st.one_of(st.none(), st.integers(0, 3)))
def test_series_matches_the_record_path(tmp_path, rows, trailing):
    records = [FlowRecord(*row) for row in sorted(rows, key=lambda row: row[0])]
    last = records[-1].window_index if records else -1
    count = None if trailing is None else last + 1 + trailing
    config = {"window_length_ms": 100.0}
    if count is not None:
        config["num_windows"] = count
    series = FlowRecordSeries(records, {"config": config})
    assert series.records == tuple(records)
    windows = series.windows()
    assert windows == windowize(records, 100.0, count)
    assert windows == reference_windows(records, 100.0, count)
    path = tmp_path / "run.csv"
    write_series(path, series)
    text = path.read_text(encoding="utf-8")
    assert text == csv_text(records)
    assert text.split("\n", 1)[0] == "window_index,flow_id,bytes"
    loaded = read_series(path)
    assert loaded.records == series.records
    assert loaded.metadata == series.metadata
    assert loaded.windows() == windows


def test_windowize_accepts_records_in_any_order():
    records = [FlowRecord(2, "a", 1), FlowRecord(0, "b", 4), FlowRecord(2, "a", 3)]
    assert windowize(records, 200.0) == reference_windows(records, 200.0, None)


def test_flow_record_series_is_one_class_under_every_name():
    import floodgauge

    assert entropy_core.FlowRecordSeries.__module__ == "floodgauge.entropy_core"
    assert traffic_sim.FlowRecordSeries is entropy_core.FlowRecordSeries
    assert floodgauge.FlowRecordSeries is entropy_core.FlowRecordSeries


def test_the_run_file_codec_is_one_pair_of_functions_under_both_names():
    assert traffic_sim.read_series is entropy_core.read_series
    assert traffic_sim.write_series is entropy_core.write_series
    assert entropy_core.read_series.__module__ == "floodgauge.entropy_core"


BAD_ROWS = [
    ("negative-window", "-1,a,5", "window_index must be >= 0, got -1"),
    ("empty-id", "0,,5", "flow_id must be non-empty"),
    ("comma-id", '0,"a,b",5', "flow_id 'a,b' must not contain commas or newlines"),
    ("quote-id", '0,"""a",5', "flow_id '\"a' must not start with a double quote"),
    ("negative-bytes", "0,a,-5", "negative byte count -5 for flow 'a'"),
    # legit-0000 is the first record, so its id has been checked already
    ("negative-bytes-known-id", "0,legit-0000,-5",
     "negative byte count -5 for flow 'legit-0000'"),
    ("negative-window-known-id", "-1,legit-0000,5", "window_index must be >= 0, got -1"),
    ("non-integer", "x,a,5", "invalid literal for int()"),
    ("long-id", f"0,{'a' * 140_000},5", "field larger than field limit"),
]


@pytest.mark.parametrize("row, message, window_length_ms", [
    pytest.param(row, message, length, id=case if length is None else f"{case}-window-ms")
    for case, row, message in BAD_ROWS for length in (None, 200.0)
])
def test_read_series_checks_every_row(tmp_path, row, message, window_length_ms):
    path = tmp_path / "run.csv"
    write_series(path, simulate(small_config(num_windows=2)))
    lines = path.read_text().splitlines()
    assert lines[1].startswith("0,legit-0000,")
    lines.insert(2, row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError) as info:
        read_series(path, window_length_ms)
    assert str(info.value).startswith(f"{path}:3: {message}")


@pytest.mark.parametrize("read", [
    pytest.param(read_series, id="None"),
    pytest.param(lambda path: read_series(path, 200.0), id="200.0"),
    pytest.param(read_flow_csv, id="read_flow_csv"),
])
def test_read_series_names_the_first_unordered_line(tmp_path, read):
    path = tmp_path / "run.csv"
    series = simulate(small_config(num_windows=3))
    write_series(path, series)
    lines = path.read_text().splitlines()
    i = [r.window_index for r in series.records].index(2)
    # the first window-2 record is on line i + 2; a window-1 row follows it
    lines.insert(i + 2, "1,a,5")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InputError, match=rf"^{path}:{i + 3}: records must be ordered"):
        read(path)


def test_read_series_with_window_length_ignores_the_sidecar(tmp_path):
    path = tmp_path / "run.csv"
    series = simulate(small_config(num_windows=5))
    write_series(path, series)
    # the last window keeps no record, so only the sidecar knows it
    rows = path.read_text().splitlines()
    path.write_text("\n".join(r for r in rows if not r.startswith("4,")) + "\n")
    (tmp_path / "run.meta.json").write_text('{"config": []}\n')
    with pytest.raises(InputError, match="run.meta.json"):
        read_series(path)
    loaded = read_series(path, 100.0)
    assert loaded.window_length_ms == 100.0
    assert loaded.num_windows is None
    assert len(loaded.windows()) == 4
    assert loaded.windows()[1].counts == series.windows()[1].counts


@pytest.mark.parametrize("length", [math.nan, math.inf, 0.0, -200.0])
def test_read_series_refuses_a_bad_window_length_naming_the_csv(tmp_path, length):
    path = tmp_path / "run.csv"
    write_series(path, simulate(small_config()))
    message = r"run\.csv: window_length_ms must be finite and positive"
    with pytest.raises(InputError, match=message):
        read_series(path, length)


def _quote_ids(row):
    w, fid, b = row.split(",")
    return f'{w},"{fid}",{b}'


def _quote_numbers(row):
    w, fid, b = row.split(",")
    return f'"{w}",{fid},"{b}"'


# text only the csv rules split: each loads through the row loop as the plain file
CSV_VARIANTS = [
    ("crlf", lambda head, rows: "\r\n".join([head, *rows]) + "\r\n", None),
    ("quoted-ids", lambda head, rows: "\n".join([head, *map(_quote_ids, rows)]) + "\n", None),
    ("quoted-numbers",
     lambda head, rows: "\n".join([head, *map(_quote_numbers, rows)]) + "\n", None),
    ("blank-lines", lambda head, rows: "\n".join([head, *rows[:4], "", "", *rows[4:]]) + "\n\n",
     None),
    ("no-final-newline", lambda head, rows: "\n".join([head, *rows]), None),
    ("header-only", lambda head, rows: head + "\r\n", 0),
    ("spaced-header", lambda head, rows: "\n".join([" window_index , flow_id,bytes ", *rows]),
     None),
]


@pytest.mark.parametrize("make_text, keep", [
    pytest.param(make_text, keep, id=case) for case, make_text, keep in CSV_VARIANTS
])
def test_read_series_loads_what_only_the_csv_rules_split(tmp_path, make_text, keep):
    plain, variant = tmp_path / "plain.csv", tmp_path / "variant.csv"
    write_series(plain, simulate(small_config(num_windows=3)))
    head, *rows = plain.read_text().splitlines()
    rows = rows[:keep]
    plain.write_text("\n".join([head, *rows]) + "\n")
    variant.write_bytes(make_text(head, rows).encode())
    shutil.copy(tmp_path / "plain.meta.json", tmp_path / "variant.meta.json")
    expected = read_series(plain)
    assert len(expected.records) == len(rows)
    loaded = read_series(variant)
    assert loaded.records == expected.records
    assert loaded.windows() == expected.windows()


@pytest.mark.parametrize("bad_row, message", [
    ("x,a,5", "invalid literal for int()"),
    ("{w},legit-0000,-5", "negative byte count -5 for flow 'legit-0000'"),
    ("0,legit-0000,5", "records must be ordered by window_index"),
    ('{w},"a",5,6', "expected 3 fields"),
])
def test_read_series_names_a_bad_line_past_the_first_block(tmp_path, bad_row, message):
    path = tmp_path / "run.csv"
    series = simulate(ScenarioConfig())
    write_series(path, series)
    lines = path.read_text().splitlines()
    at = 20000
    assert len("\n".join(lines[:at])) > 1 << 16
    # the row lands on line at + 1, inside the window of its neighbours
    lines.insert(at, bad_row.format(w=series.records[at - 1].window_index))
    path.write_text("\n".join(lines) + "\n")
    message = rf"^{re.escape(str(path))}:{at + 1}: {re.escape(message)}"
    with pytest.raises(InputError, match=message):
        read_series(path)


@pytest.mark.parametrize("field, value", [
    ("num_windows", "6.9"),
    ("num_windows", '"6"'),
    ("num_windows", "true"),
    ("num_windows", "1e400"),
    ("window_length_ms", "true"),
    ("window_length_ms", '"200"'),
])
def test_read_series_refuses_sidecar_values_it_would_coerce(tmp_path, field, value):
    path, meta = tmp_path / "run.csv", tmp_path / "run.meta.json"
    write_series(path, simulate(small_config()))
    text, replaced = re.subn(rf'"{field}": [^,\n]+', f'"{field}": {value}', meta.read_text())
    assert replaced == 1
    meta.write_text(text)
    message = rf"^{re.escape(str(meta))}: missing or ill-typed field: config\.{field}: "
    with pytest.raises(InputError, match=message):
        read_series(path)


def test_read_series_refuses_a_row_past_the_sidecar_count_at_that_row(tmp_path):
    # the split stops at the row past the count: it builds no window up to 10**6
    path, meta = tmp_path / "run.csv", tmp_path / "run.meta.json"
    path.write_text("window_index,flow_id,bytes\n0,a,5\n1000000,b,7\n")
    meta.write_text('{"config": {"window_length_ms": 200.0, "num_windows": 3}}\n')
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="num_windows=3 but records reach window 1000000"):
            read_series(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("gap", [MAX_GAP_WINDOWS, MAX_GAP_WINDOWS + 1, 2**63, 10**30],
                         ids=["bound", "bound+1", "2**63", "10**30"])
@pytest.mark.parametrize("lead", ["", "0,a,5\n"], ids=["before_the_first", "after_window_0"])
def test_read_series_without_a_count_bounds_a_gap_before_padding_it(tmp_path, gap, lead):
    path = tmp_path / "run.csv"
    last = gap + 1 if lead else gap
    path.write_text(f"window_index,flow_id,bytes\n{lead}{last},b,7\n")
    if gap == MAX_GAP_WINDOWS:
        assert len(read_series(path, 200.0).windows()) == last + 1
        return
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=(
                rf"^{re.escape(str(path))}: window {last} follows {gap} empty windows; "
                rf"a run with no window count may skip at most {MAX_GAP_WINDOWS}$")):
            read_series(path, 200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("count", [MAX_GAP_WINDOWS + 1, MAX_GAP_WINDOWS + 2, 2**63, 10**30],
                         ids=["bound", "bound+1", "2**63", "10**30"])
def test_read_series_bounds_the_gap_up_to_the_sidecar_count_before_padding_it(tmp_path, count):
    path, meta = tmp_path / "run.csv", tmp_path / "run.meta.json"
    path.write_text("window_index,flow_id,bytes\n0,a,5\n")
    meta.write_text(json.dumps({"config": {"window_length_ms": 200.0, "num_windows": count}}))
    if count == MAX_GAP_WINDOWS + 1:
        assert len(read_series(path).windows()) == count
        return
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=(
                rf"^{re.escape(str(meta))}: num_windows={count} ends in {count - 1} empty "
                rf"windows; a run may skip at most {MAX_GAP_WINDOWS}$")):
            read_series(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_read_series_with_a_count_bounds_a_gap_between_records(tmp_path):
    path, meta = tmp_path / "run.csv", tmp_path / "run.meta.json"
    last = MAX_GAP_WINDOWS + 2
    path.write_text(f"window_index,flow_id,bytes\n0,a,5\n{last},b,7\n")
    meta.write_text(json.dumps({"config": {"window_length_ms": 200.0, "num_windows": last + 1}}))
    with pytest.raises(InputError, match=(
            rf"^{re.escape(str(meta))}: window {last} follows {last - 1} empty windows; "
            rf"a run may skip at most {MAX_GAP_WINDOWS}$")):
        read_series(path)


@pytest.mark.parametrize("count", [MAX_GAP_WINDOWS + 1, MAX_GAP_WINDOWS + 2, 10**30],
                         ids=["bound", "bound+1", "10**30"])
def test_from_volumes_bounds_the_padding_up_to_its_count(count):
    metadata = {"config": {"window_length_ms": 200.0, "num_windows": count}}
    if count == MAX_GAP_WINDOWS + 1:
        assert len(FlowRecordSeries.from_volumes(["a"], [[5]], metadata).entropies()) == count
        return
    with pytest.raises(InputError, match=(
            rf"^num_windows={count} ends in {count - 1} empty windows; "
            rf"a run may skip at most {MAX_GAP_WINDOWS}$")):
        FlowRecordSeries.from_volumes(["a"], [[5], [0]], metadata)


@pytest.mark.parametrize("sidecar", [
    '{"config": []}',
    '{"config": {"window_length_ms": -1}}',
    '{"config": {"window_length_ms": 200, "num_windows": 2.5}}',
    "not json",
])
def test_read_series_checks_the_sidecar_before_the_csv(tmp_path, monkeypatch, sidecar):
    path, meta = tmp_path / "run.csv", tmp_path / "run.meta.json"
    path.write_text("window_index,flow_id,bytes\n0,a,-5\n")
    meta.write_text(sidecar + "\n")
    with pytest.raises(InputError, match=rf"^{re.escape(str(meta))}: "):
        read_series(path)

    def no_csv(csv_path):
        raise AssertionError(f"{csv_path} read before its sidecar was checked")

    monkeypatch.setattr(entropy_core, "read_flow_windows", no_csv)
    with pytest.raises(InputError, match=rf"^{re.escape(str(meta))}: "):
        read_series(path)


# a window's flow list is an edit of the one before, as in a capture or a
# simulated run: kept as it is, reordered, one flow dropped, one added, one
# flow split over two rows, or one row of zero bytes
WINDOW_EDITS = ["same", "same", "reorder", "drop", "add", "split", "zero"]
EDIT_IDS = ["a", "b", "c", "legit-0001", "zombie-0000", "é", "𝄞"]


@st.composite
def edited_runs(draw):
    """(window, flow, bytes) rows of a run whose windows edit the previous flow list."""
    fids = draw(st.lists(st.sampled_from(EDIT_IDS), min_size=1, max_size=5, unique=True))
    rows, w = [], 0
    for edit in draw(st.lists(st.sampled_from(WINDOW_EDITS), max_size=12)):
        if edit == "reorder":
            fids = draw(st.permutations(fids))
        elif edit == "drop" and len(fids) > 1:
            fids = fids[:-1] if draw(st.booleans()) else fids[1:]
        elif edit == "add":
            fids = fids + [draw(st.sampled_from(EDIT_IDS))]
        elif edit == "split":
            at = draw(st.integers(0, len(fids)))
            fids = fids[:at] + [draw(st.sampled_from(fids))] + fids[at:]
        counts = draw(st.lists(st.integers(1, 10**6), min_size=len(fids), max_size=len(fids)))
        if edit == "zero":
            counts[draw(st.integers(0, len(fids) - 1))] = 0
        rows += ((w, fid, b) for fid, b in zip(fids, counts))
        w += draw(st.sampled_from([1, 1, 1, 2]))  # now and then a window with no row
    return rows, w


@settings(
    max_examples=150,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(run=edited_runs(), trailing=st.integers(0, 2))
def test_read_series_with_reused_flow_lists_matches_the_row_loop(tmp_path, run, trailing):
    rows, windows = run
    path, meta = tmp_path / "run.csv", tmp_path / "run.meta.json"
    path.write_text(csv_text([FlowRecord(*row) for row in rows]), encoding="utf-8")
    metadata = {"config": {"window_length_ms": 200.0, "num_windows": windows + trailing}}
    meta.write_text(json.dumps(metadata))
    # a window listing the same flows as the one before shares its id tuple
    blocks = list(_read_flow_blocks(path))
    for (_, before, _), (_, after, _) in zip(blocks, blocks[1:]):
        assert (after is before) == (after == before)
    loaded = read_series(path)
    expected = series_of_rows(_rows_by_window(_read_flow_rows(path)), metadata)
    assert loaded.windows() == expected.windows()
    assert [(e.value.hex(), e.flow_count) for e in loaded.entropies()] == [
        (e.value.hex(), e.flow_count) for e in expected.entropies()
    ]
    assert loaded.records == expected.records


def test_read_series_accepts_whole_float_and_int_sidecar_values(tmp_path):
    path, meta = tmp_path / "run.csv", tmp_path / "run.meta.json"
    write_series(path, simulate(small_config()))
    text = meta.read_text().replace('"num_windows": 6', '"num_windows": 6.0')
    meta.write_text(text.replace('"window_length_ms": 200.0', '"window_length_ms": 200'))
    loaded = read_series(path)
    assert (loaded.num_windows, loaded.window_length_ms) == (6, 200.0)
    assert type(loaded.num_windows) is int
