import csv
import dataclasses
import json
import math
import pickle
import random
import re
import sys
import tracemalloc
import warnings
from collections import namedtuple
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floodgauge import entropy_core
from floodgauge.detector import Baseline
from floodgauge.entropy_core import (
    MAX_GAP_WINDOWS,
    EntropyValue,
    FlowRecord,
    FlowRecordSeries,
    WindowCounts,
    _flow_csv_chunks,
    _read_flow_blocks,
    _read_flow_rows,
    _rows_by_window,
    compute_entropy,
    read_flow_csv,
    read_flow_windows,
    windowize,
)
from floodgauge.errors import EmptyRunError, InputError
from floodgauge.fileio import atomic_write
from floodgauge.pipeline import run_events
from floodgauge.traffic_sim import ScenarioConfig, read_series, simulate, write_series
from helpers import series_of_rows


def counts(window_index=0, window_length_ms=200.0, **flows):
    return WindowCounts.build(window_index, flows, window_length_ms)


# a record's fields with no checks; FlowRecordSeries makes such a duck record a FlowRecord
Row = namedtuple("Row", "window_index flow_id bytes")


def test_flow_record_rejects_bad_fields():
    with pytest.raises(InputError):
        FlowRecord(-1, "a", 10)
    with pytest.raises(InputError):
        FlowRecord(0, "", 10)
    with pytest.raises(InputError):
        FlowRecord(0, "a", -3)


def test_build_drops_zero_flows_and_totals():
    w = counts(a=5, b=0, c=7)
    assert set(w.counts) == {"a", "c"}
    assert w.total == 12
    assert w.flow_count == 2


def test_window_counts_rejects_inconsistent_total():
    with pytest.raises(InputError):
        WindowCounts(0, {"a": 5}, 6, 200.0)
    with pytest.raises(InputError):
        WindowCounts(0, {"a": 0}, 0, 200.0)
    for length in (0.0, math.nan, math.inf):
        with pytest.raises(InputError, match="finite and positive"):
            WindowCounts(0, {"a": 5}, 5, length)


def test_entropy_of_four_equal_flows_is_two_bits():
    w = counts(a=5, b=5, c=5, d=5)
    assert compute_entropy(w).value == 2.0


def test_entropy_of_skewed_three_flow_window():
    # shares 1/4, 1/4, 1/2 give exactly 1.5 bits
    w = counts(a=1, b=1, c=2)
    e = compute_entropy(w)
    assert e.value == 1.5
    assert e.flow_count == 3


def test_entropy_of_two_equal_flows_is_one_bit():
    assert compute_entropy(counts(a=9, b=9)).value == 1.0


def test_entropy_of_eight_equal_flows_is_three_bits():
    w = counts(**{f"f{i}": 42 for i in range(8)})
    assert compute_entropy(w).value == 3.0


def test_a_window_total_past_the_float_range_has_an_entropy():
    # float(total) overflows: the shares divide as ints, and c's share rounds to 0, adding 0 bits
    huge = 10**400
    series = FlowRecordSeries([FlowRecord(0, "a", huge), FlowRecord(0, "b", huge),
                               FlowRecord(0, "c", 5)], {"config": {"window_length_ms": 200.0}})
    assert series.entropies() == [EntropyValue(1.0, 3)]
    assert compute_entropy(series.windows()[0]) == EntropyValue(1.0, 3)


def test_entropy_degenerate_windows_are_zero():
    assert compute_entropy(counts()) == compute_entropy(counts()).__class__(0.0, 0)
    single = compute_entropy(counts(a=100))
    assert single.value == 0.0
    assert single.flow_count == 1


def test_entropy_range_and_invariances():
    rng = random.Random(1715)
    for _ in range(300):
        n = rng.randint(2, 60)
        vals = [rng.randint(1, 10**6) for _ in range(n)]
        w = counts(**{f"f{i}": v for i, v in enumerate(vals)})
        h = compute_entropy(w).value
        assert 0.0 <= h <= math.log2(n)

        # permuting the flows must not move the entropy at all
        shuffled = vals[:]
        rng.shuffle(shuffled)
        w2 = counts(**{f"g{i}": v for i, v in enumerate(shuffled)})
        assert compute_entropy(w2).value == h

        # scaling all byte counts leaves the shares unchanged
        w3 = counts(**{f"f{i}": 7 * v for i, v in enumerate(vals)})
        assert compute_entropy(w3).value == h


def test_entropy_maximal_only_for_uniform():
    uneven = counts(a=1, b=3)
    assert compute_entropy(uneven).value < 1.0


def test_windowize_sums_and_fills_gaps():
    records = [
        FlowRecord(0, "a", 5),
        FlowRecord(0, "a", 3),
        FlowRecord(0, "b", 2),
        FlowRecord(3, "c", 9),
    ]
    windows = windowize(records, 200.0)
    assert [w.window_index for w in windows] == [0, 1, 2, 3]
    assert windows[0].counts == {"a": 8, "b": 2}
    assert windows[1].flow_count == 0
    assert windows[3].counts == {"c": 9}


def test_windowize_num_windows_extends_and_validates():
    records = [FlowRecord(1, "a", 5)]
    windows = windowize(records, 200.0, num_windows=4)
    assert len(windows) == 4
    with pytest.raises(InputError):
        windowize(records, 200.0, num_windows=1)
    for length in (0.0, math.nan, math.inf):
        with pytest.raises(InputError, match="finite and positive"):
            windowize(records, length)
        with pytest.raises(InputError, match="finite and positive"):
            windowize([], length, num_windows=0)


def test_windowize_takes_numpy_numbers_but_refuses_a_fraction_of_a_window():
    records = [FlowRecord(1, "a", 5)]
    windows = windowize(records, np.float32(200.0), num_windows=np.int64(4))
    assert len(windows) == 4 and windows[0].window_length_ms == 200.0
    with pytest.raises(InputError, match=r"field: config\.num_windows: expected a whole number"):
        windowize(records, 200.0, num_windows=np.float32(4.5))


def test_windowize_empty_records():
    assert windowize([], 200.0) == []
    assert len(windowize([], 200.0, num_windows=3)) == 3


def test_flow_record_rejects_csv_breaking_ids():
    with pytest.raises(InputError):
        FlowRecord(0, "b,c", 7)
    with pytest.raises(InputError):
        FlowRecord(0, "b\nc", 7)


@pytest.mark.parametrize("fields, message", [
    ((-1, "a", 10), "window_index must be >= 0, got -1"),
    ((0, "", 10), "flow_id must be non-empty"),
    ((0, "b,c", 7), "flow_id 'b,c' must not contain commas or newlines"),
    ((0, "b\nc", 7), "flow_id 'b\\nc' must not contain commas or newlines"),
    ((0, "b\rc", 7), "flow_id 'b\\rc' must not contain commas or newlines"),
    ((0, '"q', 7), "flow_id '\"q' must not start with a double quote"),
    ((0, "a", -3), "negative byte count -3 for flow 'a'"),
    # the window is checked first, then the id, then the count
    ((-1, "", -3), "window_index must be >= 0, got -1"),
    ((0, "", -3), "flow_id must be non-empty"),
    ((0, "a", 2.5), "bytes must be an integer, got 2.5"),
    ((0, "a", math.nan), "bytes must be an integer, got nan"),
    ((0, "a", "3"), "bytes must be an integer, got '3'"),
    ((1.0, "a", 4), "window_index must be an integer, got 1.0"),
    ((np.float64(1.0), "a", 4), f"window_index must be an integer, got {np.float64(1.0)!r}"),
    ((0, 5, 3), "flow_id must be a str, got int"),
    ((0, b"a", 3), "flow_id must be a str, got bytes"),
    ((0, None, 3), "flow_id must be a str, got NoneType"),
], ids=["negative-window", "empty-id", "comma-id", "newline-id", "cr-id", "quote-id",
        "negative-bytes", "window-first", "id-before-bytes", "float-bytes", "nan-bytes",
        "str-bytes", "float-window", "numpy-float-window", "int-id", "bytes-id", "none-id"])
def test_flow_record_refusals_name_the_field(fields, message):
    with pytest.raises(InputError) as info:
        FlowRecord(*fields)
    assert str(info.value) == message


def test_flow_record_keeps_numpy_integers_as_ints():
    record = FlowRecord(np.int64(2), "a", np.uint16(5))
    assert record == FlowRecord(2, "a", 5)
    assert type(record.window_index) is int and type(record.bytes) is int
    assert repr(record) == "FlowRecord(window_index=2, flow_id='a', bytes=5)"


def test_flow_record_stays_a_frozen_slotted_dataclass():
    record = FlowRecord(2, "a", 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.bytes = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        del record.flow_id
    assert record == FlowRecord(window_index=2, flow_id="a", bytes=5)
    assert record != FlowRecord(2, "a", 6) and record != (2, "a", 5)
    assert hash(record) == hash((2, "a", 5))
    assert repr(record) == "FlowRecord(window_index=2, flow_id='a', bytes=5)"
    assert dataclasses.astuple(record) == (2, "a", 5)
    assert not hasattr(record, "__dict__")
    assert FlowRecord.__slots__ == ("window_index", "flow_id", "bytes")

    class ThreeSlots:
        __slots__ = ("a", "b", "c")

    assert sys.getsizeof(record) == sys.getsizeof(ThreeSlots())
    assert pickle.loads(pickle.dumps(record)) == record
    # replace builds a new record, so its fields are checked again
    assert dataclasses.replace(record, bytes=np.int64(7)) == FlowRecord(2, "a", 7)
    with pytest.raises(InputError, match="negative byte count -1 for flow 'a'"):
        dataclasses.replace(record, bytes=-1)
    with pytest.raises(InputError, match="must not contain commas or newlines"):
        dataclasses.replace(record, flow_id="a,b")
    with pytest.raises(InputError, match="window_index must be an integer"):
        dataclasses.replace(record, window_index=2.0)


def test_flow_csv_round_trip(tmp_path):
    records = [FlowRecord(0, "a", 5), FlowRecord(1, "bc", 7)]
    path = tmp_path / "flows.csv"
    series = FlowRecordSeries(records, {"config": {"window_length_ms": 200.0}})
    atomic_write(path, _flow_csv_chunks(series))
    assert read_flow_csv(path) == records
    assert path.read_text() == "window_index,flow_id,bytes\n0,a,5\n1,bc,7\n"


def test_flow_csv_errors_name_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("window_index,flow_id,bytes\n0,a,5\n1,b\n")
    with pytest.raises(InputError, match=rf"{path}:3"):
        read_flow_csv(path)
    path.write_text("wrong,header,here\n")
    with pytest.raises(InputError, match=rf"{path}:1"):
        read_flow_csv(path)
    path.write_text("window_index,flow_id,bytes\n0,a,-5\n")
    with pytest.raises(InputError, match=rf"{path}:2"):
        read_flow_csv(path)
    # the reader decodes ahead in chunks; the line must still be exact
    for good_rows in (1, 5000):
        path.write_bytes(
            b"window_index,flow_id,bytes\n" + b"0,a,5\n" * good_rows + b"1,\xff,7\n"
        )
        with pytest.raises(InputError, match=rf"{path}:{good_rows + 2}: not UTF-8"):
            read_flow_csv(path)


@settings(max_examples=300, database=None)
@given(st.lists(st.integers(1, 2**53), min_size=2, max_size=60))
def test_entropy_is_bit_identical_to_the_per_term_sum(volumes):
    w = WindowCounts.build(0, {f"f{i}": v for i, v in enumerate(volumes)}, 200.0)
    s = float(w.total)
    expected = -math.fsum((c / s) * math.log2(c / s) for c in volumes)
    expected = min(max(expected, 0.0), math.log2(len(volumes)))
    assert compute_entropy(w).value == expected


def window_rows_of(per_window):
    """One (window, flow ids, counts) row per window with (flow, count) pairs."""
    return [(w, tuple(f for f, _ in window), tuple(b for _, b in window))
            for w, window in enumerate(per_window) if window]


# a window is a few rows over a few ids, so (window, flow) pairs repeat,
# zero-byte rows occur, and empty and single-flow windows are common
window_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "legit-0001"]),
        st.one_of(st.sampled_from([0, 1, 2**53]), st.integers(0, 10**9)),
    ),
    max_size=6,
)


@settings(max_examples=300, database=None)
@given(st.lists(window_rows, max_size=8), st.one_of(st.none(), st.integers(0, 3)))
def test_entropies_are_bit_identical_to_compute_entropy_of_windows(per_window, trailing):
    rows = [(w, fid, b) for w, window in enumerate(per_window) for fid, b in window]
    last = rows[-1][0] if rows else -1
    config = {"window_length_ms": 200.0}
    if trailing is not None:
        config["num_windows"] = last + 1 + trailing
    series = series_of_rows(window_rows_of(per_window), {"config": config})
    summed = [{} for _ in range(config.get("num_windows", last + 1))]
    for w, fid, b in rows:
        summed[w][fid] = summed[w].get(fid, 0) + b
    expected = [WindowCounts.build(w, counts, 200.0) for w, counts in enumerate(summed)]
    assert series.windows() == expected
    fused = [(e.value.hex(), e.flow_count) for e in series.entropies()]
    assert fused == [(e.value.hex(), e.flow_count) for e in map(compute_entropy, expected)]
    if not fused:
        with pytest.raises(EmptyRunError, match="no windows"):
            run_events(series, Baseline(h_n=1.0, threshold=0.1, training_windows=5))


def test_window_checks_quote_no_value_until_they_refuse(monkeypatch):
    calls = []
    def counted(value):
        calls.append(value)
        return repr(value)
    monkeypatch.setattr(entropy_core, "brief_repr", counted)
    config = {"config": {"window_length_ms": 200.0, "num_windows": 50}}
    FlowRecordSeries.from_volumes(["a"], [[1]] * 50, config)
    assert calls == []
    # a refused gap still quotes its window and its length
    with pytest.raises(InputError, match=f"^window {MAX_GAP_WINDOWS + 2} follows "):
        FlowRecordSeries([FlowRecord(0, "a", 1), FlowRecord(MAX_GAP_WINDOWS + 2, "a", 1)],
                         {"config": {"window_length_ms": 200.0}})
    assert calls == [MAX_GAP_WINDOWS + 2, MAX_GAP_WINDOWS + 1]


def test_from_volumes_drops_zero_counts_and_keeps_the_window_count():
    config = {"window_length_ms": 200.0}
    ids, rows = ["a", "b", "c"], [[3, 0, 5], [0, 0, 0], [0, 7, 0], [0, 0, 0]]
    series = FlowRecordSeries.from_volumes(ids, rows, {"config": config})
    expected = (FlowRecord(0, "a", 3), FlowRecord(0, "c", 5), FlowRecord(2, "b", 7))
    assert series.records == expected
    assert series.record_count == 3
    # without a count the run ends at its last record, as for records
    assert series.windows() == FlowRecordSeries(expected, {"config": config}).windows()
    assert len(series.windows()) == 3
    counted = {"config": dict(config, num_windows=5)}
    assert len(FlowRecordSeries.from_volumes(ids, rows, counted).windows()) == 5
    with pytest.raises(InputError, match="num_windows=2 but records reach window 2"):
        FlowRecordSeries.from_volumes(ids, rows, {"config": dict(config, num_windows=2)})
    # empty rows past the count are no records: accepted, and the run keeps the count
    padded = FlowRecordSeries.from_volumes(ids, rows + [[0, 0, 0]] * 3, counted)
    assert padded.records == expected and len(padded.windows()) == 5
    assert len(padded.entropies()) == 5
    with pytest.raises(InputError, match="num_windows=5 but records reach window 6"):
        FlowRecordSeries.from_volumes(ids, rows + [[0, 0, 0], [0, 0, 0], [0, 1, 0]], counted)
    # records are refused at the first one past the count
    past = [FlowRecord(0, "a", 1), FlowRecord(2, "b", 2), FlowRecord(5, "a", 3),
            FlowRecord(9, "c", 4)]
    with pytest.raises(InputError, match="num_windows=5 but records reach window 5"):
        FlowRecordSeries(past, counted)


def test_rows_with_a_negative_window_are_refused():
    # windows are counted from 0, so such a row would land in window 0
    config = {"config": {"window_length_ms": 200.0}}
    with pytest.raises(InputError, match="window_index must be >= 0, got -1"):
        FlowRecordSeries([Row(-1, "a", 1), Row(0, "b", 2)], config)


M = MAX_GAP_WINDOWS
SKIP = f"a run may skip at most {M}"
# (the windows with records, the window count or None, the refusal or None): a gap of the
# bound and one past it before the first window, between two and after the last up to
# the count; windows past the count; and runs with no count. One rule refuses the first
# bad window in window order, for every constructor alike.
WINDOW_RULE_CASES = {
    "before-the-first": ([M], M + 1, None),
    "before-the-first+1": ([M + 1], M + 2, f"window {M + 1} follows {M + 1} empty windows; {SKIP}"),
    "between": ([0, M + 1], M + 2, None),
    "between+1": ([0, M + 2], M + 3, f"window {M + 2} follows {M + 1} empty windows; {SKIP}"),
    "first-of-two": ([3, M + 9, 2 * M + 19], 2 * M + 20,
                     f"window {M + 9} follows {M + 5} empty windows; {SKIP}"),
    "after-the-last": ([0], M + 1, None),
    "after-the-last+1": ([0], M + 2, f"num_windows={M + 2} ends in {M + 1} empty windows; {SKIP}"),
    "past-the-count": ([0, 5, 7], 4, "num_windows=4 but records reach window 5"),
    "a-gap-before-past-the-count": ([0, M + 2, M + 9], M + 5,
                                    f"window {M + 2} follows {M + 1} empty windows; {SKIP}"),
    "no-count": ([0, 2, 3], None, None),
    "no-count-before-the-first": ([M], None, None),
    "no-count-before-the-first+1": ([M + 1], None, f"window {M + 1} follows {M + 1} empty "
                                    f"windows; a run with no window count may skip at most {M}"),
    "no-records": ([], 4, None),
    "no-records-no-count": ([], None, None),
    "negative-count": ([0], -3, "num_windows must be >= 0, got -3"),
    "negative-count-no-records": ([], -1, "num_windows must be >= 0, got -1"),
}


@pytest.mark.parametrize("windows, count, refusal", WINDOW_RULE_CASES.values(),
                         ids=WINDOW_RULE_CASES)
def test_every_constructor_holds_the_same_run_or_gives_the_same_refusal(
        windows, count, refusal):
    config = {"window_length_ms": 200.0}
    if count is not None:
        config["num_windows"] = count
    metadata = {"config": config}
    held = set(windows)
    # the count matrix ends at its last window with a count, short of any window count
    matrix = [[w + 1 if w in held else 0] for w in range(windows[-1] + 1 if windows else 2)]
    builds = [
        lambda: FlowRecordSeries.from_volumes(["a"], matrix, metadata),
        lambda: series_of_rows([(w, ("a",), (w + 1,)) for w in windows], metadata),
        lambda: FlowRecordSeries([FlowRecord(w, "a", w + 1) for w in windows], metadata),
    ]
    if refusal is not None:
        for build in builds:
            with pytest.raises(InputError) as info:
                build()
            assert str(info.value) == refusal
        return
    expected = None
    for build in builds:
        series = build()
        view = (entropy_hexes(series), series.windows(), series.records, series.record_count)
        if expected is None:
            expected = view
        assert view == expected
    end = count if count is not None else (windows[-1] + 1 if windows else 0)
    assert len(expected[1]) == end
    assert [w.window_index for w in expected[1] if w.counts] == windows
    assert expected[2] == tuple(FlowRecord(w, "a", w + 1) for w in windows)


def test_a_count_past_a_count_matrix_pads_no_window():
    # the run keeps its one row; entropies() makes each empty window as it reaches it
    ids = [f"f{i:03d}" for i in range(100)]
    config = {"config": {"window_length_ms": 200.0, "num_windows": MAX_GAP_WINDOWS + 1}}
    tracemalloc.start()  # numpy is imported already, so its import is not traced
    try:
        entropies = FlowRecordSeries.from_volumes(ids, [[1] * 100], config).entropies()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(entropies) == MAX_GAP_WINDOWS + 1
    assert entropies[0] == EntropyValue(math.log2(100), 100)
    assert set(entropies[1:]) == {EntropyValue(0.0, 0)}
    assert peak < 5_000_000


@pytest.mark.parametrize("rows", [
    [[1]] + [[0]] * MAX_GAP_WINDOWS + [[1]],
    [[0]] * MAX_GAP_WINDOWS + [[1]],
], ids=["between", "before-the-first"])
def test_a_gap_of_the_bound_builds_writes_and_reads_back(tmp_path, rows):
    config = {"config": {"window_length_ms": 200.0, "num_windows": len(rows)}}
    series = FlowRecordSeries.from_volumes(["a"], rows, config)
    write_series(tmp_path / "run.csv", series)
    loaded = read_series(tmp_path / "run.csv")
    assert loaded.records == series.records
    assert len(loaded.entropies()) == len(rows) == loaded.num_windows


@pytest.mark.parametrize(
    "flow_ids, rows, message",
    [
        (["a", "b", "a"], [[1, 2, 3]], "distinct"),
        (["a", "b"], [[1, 2], [4, -1]], "window 1 needs one count >= 0 per flow"),
        (["a", "b"], [[1, 2], [4]], "window 1 needs one count >= 0 per flow"),
        (["a", "b"], [[1, 2, 3]], "window 0 needs one count >= 0 per flow"),
    ],
    ids=["repeated-id", "negative-count", "short-row", "long-row"],
)
def test_from_volumes_refuses_bad_rows(flow_ids, rows, message):
    with pytest.raises(InputError, match=message):
        FlowRecordSeries.from_volumes(flow_ids, rows, {"config": {"window_length_ms": 200.0}})


@pytest.mark.parametrize("flow_ids, message", [
    (["a", "b,c"], "flow_id 'b,c' must not contain commas or newlines"),
    (["a", "b\nc"], "flow_id 'b\\nc' must not contain commas or newlines"),
    (["a", "b\r"], "flow_id 'b\\r' must not contain commas or newlines"),
    (["a", '"q'], "flow_id '\"q' must not start with a double quote"),
    (["a", ""], "flow_id must be non-empty"),
    ([""], "flow_id must be non-empty"),
    (["", "a"], "flow_id must be non-empty"),
    (["a", 5], "flow_id must be a str, got int"),
    # the first bad id is named
    (["a,b", '"q', ""], "flow_id 'a,b' must not contain commas or newlines"),
], ids=["comma", "newline", "cr", "quote", "empty", "only-empty", "first-empty", "int",
        "first-named"])
def test_from_volumes_refuses_ids_the_flow_csv_cannot_hold(flow_ids, message):
    rows = [[1] * len(flow_ids)]
    with pytest.raises(InputError) as info:
        FlowRecordSeries.from_volumes(flow_ids, rows, {"config": {"window_length_ms": 200.0}})
    assert str(info.value) == message


def test_from_volumes_takes_ids_with_a_quote_past_their_start():
    config = {"config": {"window_length_ms": 200.0}}
    series = FlowRecordSeries.from_volumes(['a"b', "c", 'd"'], [[1, 2, 3]], config)
    assert series.records == (FlowRecord(0, 'a"b', 1), FlowRecord(0, "c", 2),
                              FlowRecord(0, 'd"', 3))


def first_refusal(check, *args):
    try:
        check(*args)
    except InputError as exc:
        return str(exc)
    return None


flow_id_lists = st.lists(st.one_of(
    st.text(alphabet='ab,"\n\r\x00é', max_size=4),
    st.sampled_from(["legit-0001", 'q"', '"q', 7, None, b"a"]),
), max_size=6)


@settings(max_examples=300, database=None, deadline=None)
@given(flow_id_lists)
def test_the_joined_id_check_refuses_what_the_per_id_rule_refuses(ids):
    # from_volumes checks ids by one pass over their join; it must refuse exactly the
    # lists in which _checked_flow_id refuses some id, with that first refusal
    expected = next(filter(None, (first_refusal(entropy_core._checked_flow_id, fid)
                                  for fid in ids)), None)
    assert first_refusal(entropy_core._check_flow_ids, tuple(ids)) == expected


def entropy_hexes(series):
    return [(e.value.hex(), e.flow_count) for e in series.entropies()]


def test_count_matrix_rows_past_int64_sum_as_python_ints():
    # 2,048 counts of 2**53 - 1 sum past 2**63, where an int64 row sum wraps
    big = 2**53 - 1
    ids = [f"f{i:04d}" for i in range(2048)]
    matrix = np.full((4, 2048), big, dtype=np.int64)
    matrix[1, ::3] = 0
    matrix[2] -= np.arange(2048, dtype=np.int64) * 123_456_789
    matrix[3] = 0
    series = FlowRecordSeries.from_volumes(ids, matrix, {"config": {"window_length_ms": 200.0}})
    read = FlowRecordSeries(series.records, series.metadata)
    assert series.record_count == read.record_count == int(np.count_nonzero(matrix))
    assert series.windows() == read.windows()
    assert entropy_hexes(series) == entropy_hexes(read)
    assert [e.flow_count for e in series.entropies()] == [2048, 1365, 2048]


def test_empty_windows_of_a_count_matrix_divide_no_zero_by_zero():
    counted = {"config": {"window_length_ms": 200.0, "num_windows": 5}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = FlowRecordSeries.from_volumes(
            ["a", "b"], np.array([[0, 0], [3, 0], [0, 0], [2, 6]]), counted)
        entropies = series.entropies()
        flowless = FlowRecordSeries.from_volumes([], np.zeros((3, 0), np.int64), counted)
        assert [(e.value, e.flow_count) for e in flowless.entropies()] == [(0.0, 0)] * 5
    assert [(e.value, e.flow_count) for e in entropies[:3] + entropies[4:]] == [
        (0.0, 0), (0.0, 1), (0.0, 0), (0.0, 0)]
    assert entropy_hexes(series) == entropy_hexes(FlowRecordSeries(series.records, counted))


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64, np.int64])
def test_from_volumes_takes_any_integer_array_as_its_rows(dtype):
    config = {"config": {"window_length_ms": 200.0}}
    rows = [[3, 0, 5], [0, 0, 0], [0, 7, 0], [0, 0, 0]]
    from_rows = FlowRecordSeries.from_volumes("abc", rows, config)
    from_array = FlowRecordSeries.from_volumes("abc", np.array(rows, dtype=dtype), config)
    assert from_array.records == from_rows.records == (
        FlowRecord(0, "a", 3), FlowRecord(0, "c", 5), FlowRecord(2, "b", 7))
    assert all(type(r.bytes) is int for r in from_array.records)
    assert from_array.windows() == from_rows.windows()
    assert entropy_hexes(from_array) == entropy_hexes(from_rows)


@pytest.mark.parametrize(
    "rows",
    [
        np.array([[1.0, 2.0]]),
        [[1, 2.5]],
        [[1, 2**63]],
        np.array([[1, 2**63]], dtype=np.uint64),
        [[1, 2**64]],
        [["1", "2"]],
        [[1, [2]]],
    ],
    ids=["float-array", "float", "2**63", "uint64-2**63", "2**64", "str", "nested"],
)
def test_from_volumes_refuses_counts_that_are_not_int64(rows):
    with pytest.raises(InputError, match="window counts must be integers"):
        FlowRecordSeries.from_volumes(["a", "b"], rows, {"config": {"window_length_ms": 200.0}})


def test_from_volumes_names_the_first_bad_window_of_an_array():
    config = {"config": {"window_length_ms": 200.0}}
    with pytest.raises(InputError, match="window 2 needs one count >= 0 per flow"):
        FlowRecordSeries.from_volumes("ab", np.array([[1, 2], [0, 0], [3, -1], [-1, 0]]), config)
    with pytest.raises(InputError, match="window 0 needs one count >= 0 per flow"):
        FlowRecordSeries.from_volumes("ab", np.zeros((2, 3), np.int64), config)
    # a negative count before a short row is named first
    with pytest.raises(InputError, match="window 0 needs one count >= 0 per flow"):
        FlowRecordSeries.from_volumes("ab", [[1, -2], [3]], config)


def series_of_windows(column):
    rows = [Row(w, f"f{i}", 1) for i, w in enumerate(column)]
    return FlowRecordSeries(rows, {"config": {"window_length_ms": 200.0}})


@pytest.mark.parametrize("size", [0, 1, 2, 4096, 4097, 12293])
def test_order_check_sees_a_step_down_anywhere(size):
    column = [i // 3 for i in range(size)]
    assert len(series_of_windows(column).windows()) == (column[-1] + 1 if column else 0)
    assert [r.window_index for r in series_of_windows(column).records] == column
    # the ends, and each side of every 4096th entry, where a chunked check would split
    spots = {1, size - 1} | {k * 4096 + d for k in range(1, 4) for d in (-1, 0, 1)}
    for i in sorted(j for j in spots if 0 < j < size):
        stepped = column[:i] + [column[i - 1] - 1] + column[i + 1:]
        # FlowRecord refuses a step down to -1 as a negative window, before the order check
        match = "records must be ordered by window_index" if column[i - 1] else "got -1"
        with pytest.raises(InputError, match=match):
            series_of_windows(stepped)
    with pytest.raises(InputError, match="records must be ordered by window_index"):
        series_of_windows([1, 0])
    for negative in ([0, -1], [-1, 0]):
        with pytest.raises(InputError, match="window_index must be >= 0, got -1"):
            series_of_windows(negative)


def test_build_drops_non_positive_counts_and_copies():
    raw = {"a": 5, "b": 0, "c": -2, "d": 1}
    w = WindowCounts.build(0, raw, 200.0)
    assert w.counts == {"a": 5, "d": 1} and w.total == 6
    kept = {"a": 5, "d": 1}
    w = WindowCounts.build(0, kept, 200.0)
    kept["a"] = 7
    assert w.counts == {"a": 5, "d": 1}
    with pytest.raises(InputError, match="must all be positive"):
        WindowCounts(0, {"a": 5, "b": 0}, 5, 200.0)


# every character the csv rules or the column parser treat apart, plus fillers;
# int() of str takes Unicode digits and whitespace that int() of bytes refuses
CSV_ALPHABET = ',\n\r"\0 -_0159azé٣３\u00a0\x1c+7'
csv_cells = st.one_of(
    st.sampled_from([
        "0", "1", " 2", "-1", "a", "é", "1_0", '"3"', "", " ",
        "٣", "３", "\u00a02", "\x1c2", "007", "+1",
    ]),
    st.text(CSV_ALPHABET, max_size=4),
)
flow_rows = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["a", "b", "é", " a", "legit-0001", "𝄞"]),
    st.integers(0, 99),
).map("%s,%s,%s".__mod__)
# files are well-formed rows plus at most one odd line and one odd line end,
# so about a quarter of them load and the rest exercise each refusal
odd_lines = st.one_of(
    st.lists(csv_cells, min_size=1, max_size=4).map(",".join),
    st.text(CSV_ALPHABET, max_size=8),
)


def read_outcome(read, path):
    try:
        return "read", read(path)
    except Exception as exc:
        return "refused", type(exc), str(exc)


def row_loop_windows(path):
    """The csv-module row loop's rows, one per window."""
    return list(_rows_by_window(_read_flow_rows(path)))


def block_windows(path):
    """The block reader's rows, one per window."""
    return list(_read_flow_blocks(path))


def as_tuples(outcome):
    """A read outcome with each window's ids and counts as tuples, so that rows from
    the block reader and from the row loop compare by value."""
    if outcome[0] != "read":
        return outcome
    return "read", [(w, tuple(fids), tuple(counts)) for w, fids, counts in outcome[1]]


@settings(
    max_examples=300,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    header=st.sampled_from(
        ["window_index,flow_id,bytes", " window_index , flow_id ,bytes ", "window_index,flow"]
    ),
    lines=st.lists(flow_rows, max_size=30),
    ordered=st.booleans(),
    odd_line=st.one_of(st.none(), st.tuples(st.integers(0, 30), odd_lines)),
    odd_end=st.one_of(st.none(), st.tuples(st.integers(0, 30), st.sampled_from(["\r\n", "\r"]))),
    last_newline=st.booleans(),
    bad_byte=st.one_of(st.none(), st.integers(0, 400)),
)
def test_block_reader_agrees_with_the_row_loop(
    tmp_path, header, lines, ordered, odd_line, odd_end, last_newline, bad_byte
):
    if ordered:
        lines.sort()
    if odd_line is not None:
        lines.insert(*odd_line)
    ends = ["\n"] * len(lines)
    if odd_end is not None and odd_end[0] < len(lines):
        ends[odd_end[0]] = odd_end[1]
    text = header + "\n" + "".join(map(str.__add__, lines, ends))
    if not last_newline:
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if bad_byte is not None and bad_byte < len(data):
        data = data[:bad_byte] + b"\xff" + data[bad_byte:]
    path = tmp_path / "flows.csv"
    path.write_bytes(data)
    rows = read_outcome(row_loop_windows, path)
    blocks = read_outcome(block_windows, path)
    if blocks[0] == "read":
        assert_one_row_per_window(blocks[1])
        assert as_tuples(blocks) == as_tuples(rows)
        assert_one_id_string_per_flow(blocks[1])
    assert as_tuples(read_outcome(read_flow_windows, path)) == as_tuples(rows)
    if rows[0] == "read":
        assert_one_id_string_per_flow(rows[1])


def assert_one_row_per_window(rows):
    # windows strictly increase, and a window with no record has no row
    windows = [w for w, _, _ in rows]
    assert windows == sorted(set(windows))
    assert all(fids and len(fids) == len(counts) for _, fids, counts in rows)


def assert_one_id_string_per_flow(rows):
    # every row of a flow carries the one id string
    flows = list(chain.from_iterable(fids for _, fids, _ in rows))
    assert len(set(map(id, flows))) == len(set(flows))


def multi_block_capture():
    """About 240 KB: 40 windows of 300 flows, and 5 flows new at window 20."""
    rng = random.Random(14)
    lines = ["window_index,flow_id,bytes"]
    for w in range(40):
        flows = [f"flux-é-{i:03d}" for i in range(300)]
        flows += [f"nouveau-𝄞-{i}" for i in range(5)] if w >= 20 else []
        lines += (f"{w},{fid},{rng.randrange(1, 50_000)}" for fid in flows)
    return "\n".join(lines) + "\n"


def test_multi_block_files_stay_on_the_block_path(tmp_path, monkeypatch):
    capture = tmp_path / "capture.csv"
    capture.write_text(multi_block_capture(), encoding="utf-8")
    simulated = tmp_path / "simulated.csv"
    write_series(simulated, simulate(ScenarioConfig(legit_clients=100, zombies=20, num_windows=100)))
    expected = {path: row_loop_windows(path) for path in (capture, simulated)}

    def no_row_loop(path):
        raise AssertionError(f"{path} fell back to the row loop")

    monkeypatch.setattr(entropy_core, "_read_flow_rows", no_row_loop)
    for path, rows in expected.items():
        assert path.stat().st_size > 3 * (1 << 16)
        windows = read_flow_windows(path)
        assert as_tuples(("read", windows)) == as_tuples(("read", rows))
        assert_one_id_string_per_flow(windows)
    last_window_ids = expected[capture][-1][1]
    assert set(last_window_ids[-5:]) == {f"nouveau-𝄞-{i}" for i in range(5)}


def split_flow_capture():
    """About 200 KB: 8 windows of 1,600 rows over 1,000 flows, so windows straddle the
    64 KiB blocks; 300 flows sit on two or three rows of a window, and windows 3-5 list
    the same rows as window 2."""
    rng = random.Random(20)
    flows = [f"flux-{i:04d}" for i in range(1000)]
    split = flows[:300] * 2
    lines = ["window_index,flow_id,bytes"]
    for w in range(8):
        if w <= 2 or w >= 6:
            ids = flows + rng.sample(split, len(split))
            rng.shuffle(ids)
        lines += (f"{w},{fid},{rng.randrange(1, 50_000)}" for fid in ids)
    return "\n".join(lines) + "\n"


def test_split_flows_across_blocks_read_as_the_row_loop_does(tmp_path, monkeypatch):
    path = tmp_path / "split.csv"
    path.write_text(split_flow_capture(), encoding="utf-8")
    metadata = {"config": {"window_length_ms": 200.0, "num_windows": 9}}
    (tmp_path / "split.meta.json").write_text(json.dumps(metadata))
    expected = series_of_rows(row_loop_windows(path), metadata)
    # the row ending the first 64 KiB block and the row after it share a window
    data = path.read_bytes()
    header = data.index(b"\n") + 1
    cut = data.index(b"\n", header + (1 << 16)) + 1
    last_of_block = data[data.rindex(b"\n", 0, cut - 1) + 1:cut]
    assert last_of_block.split(b",")[0] == data[cut:].split(b",", 1)[0]
    blocks = block_windows(path)
    assert [w for w, _, _ in blocks] == list(range(8))
    assert blocks[3][1] is blocks[2][1] and blocks[5][1] is blocks[2][1]
    assert len(blocks[2][1]) > len(set(blocks[2][1]))

    def no_row_loop(csv_path):
        raise AssertionError(f"{csv_path} fell back to the row loop")

    monkeypatch.setattr(entropy_core, "_read_flow_rows", no_row_loop)
    loaded = read_series(path)
    assert loaded.windows() == expected.windows()
    assert [(e.value.hex(), e.flow_count) for e in loaded.entropies()] == [
        (e.value.hex(), e.flow_count) for e in expected.entropies()
    ]
    assert all(e.flow_count == 1000 for e in loaded.entropies()[:8])


@pytest.mark.parametrize("rows, message", [
    # seven fields make two lines of three, but the line breaks fall elsewhere
    ("0,1\n2,3,4,5\n", ":2: expected 3 fields"),
    ("-1,a,5\n", ":2: window_index must be >= 0, got -1"),
])
def test_lines_the_blocks_would_misread_are_refused_by_line(tmp_path, rows, message):
    path = tmp_path / "flows.csv"
    path.write_text("window_index,flow_id,bytes\n" + rows)
    with pytest.raises(InputError, match=re.escape(message) + "$"):
        read_flow_windows(path)


def crlf_copy(tmp_path, scenario):
    """A simulated run written with LF line ends and copied with CRLF ones, each with its
    sidecar; CRLF line ends send the copy to the row loop."""
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_series(lf, simulate(scenario))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    (tmp_path / "crlf.meta.json").write_bytes((tmp_path / "lf.meta.json").read_bytes())
    return lf, crlf


def test_a_crlf_capture_reads_within_half_again_the_lf_peak(tmp_path):
    # 400 + 100 flows over 200 windows: 100k records; the row loop builds no record per row
    lf, crlf = crlf_copy(tmp_path, ScenarioConfig(legit_clients=400, zombies=100, num_windows=200))
    peaks, read = {}, {}
    for path in (lf, crlf):
        tracemalloc.start()
        try:
            read[path.name] = entropy_hexes(read_series(path))
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert read["crlf.csv"] == read["lf.csv"] and len(read["lf.csv"]) == 200
    assert peaks["crlf.csv"] <= 1.5 * peaks["lf.csv"], peaks


@pytest.mark.parametrize("window_ms", [None, 200.0], ids=["sidecar", "window-ms"])
def test_read_series_reads_the_run_config_once(tmp_path, monkeypatch, window_ms):
    path = tmp_path / "run.csv"
    write_series(path, simulate(ScenarioConfig(legit_clients=3, zombies=1, num_windows=4)))
    calls, run_config = [], entropy_core.run_config
    monkeypatch.setattr(entropy_core, "run_config",
                        lambda metadata: calls.append(metadata) or run_config(metadata))
    assert len(read_series(path, window_ms).entropies()) == 4
    assert len(calls) == 1


def test_the_row_loop_makes_a_record_only_for_a_flows_first_row(tmp_path, monkeypatch):
    lf, crlf = crlf_copy(tmp_path, ScenarioConfig(legit_clients=3, zombies=2, num_windows=5))
    made, record = [], FlowRecord

    def counted_record(*fields):
        made.append(fields)
        return record(*fields)

    def no_checked_record(*fields):
        raise AssertionError(f"the read path built the record {fields}")

    monkeypatch.setattr(entropy_core, "FlowRecord", counted_record)
    monkeypatch.setattr(entropy_core, "_checked_record", no_checked_record)
    loaded = read_series(crlf)
    monkeypatch.undo()
    first_rows = {}
    for row in csv_fields(lf):
        first_rows.setdefault(row[1], row)
    assert made == list(first_rows.values()) and len(made) == 5
    assert loaded.records == read_series(lf).records


valid_window_rows = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "legit-0001"]),
              st.one_of(st.sampled_from([0, 1, 2**53]), st.integers(0, 10**9))),
    max_size=5,
)
small_scenarios = st.builds(
    ScenarioConfig,
    legit_clients=st.integers(0, 5),
    zombies=st.integers(0, 3),
    # 1e-5 Mbps is a quarter of a byte a window: mostly zero draws, so no record
    legit_mean_rate_mbps_per_client=st.sampled_from([0.0, 1e-5, 1.0]),
    num_windows=st.integers(1, 5),
    seed=st.integers(0, 2**32),
)


def csv_fields(path):
    """Each line of a flow CSV after its header as (window, flow id, bytes), by csv.reader."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [(int(w), fid, int(b)) for w, fid, b in list(csv.reader(fh))[1:]]


@settings(max_examples=100, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(valid_window_rows, max_size=6), small_scenarios)
def test_records_of_every_run_equal_records_checked_one_by_one(
    tmp_path, per_window, scenario
):
    config = {"config": {"window_length_ms": 200.0}}
    rows = [(w, fid, b) for w, window in enumerate(per_window) for fid, b in window]
    simulated = simulate(scenario)
    csv_path, crlf_path = tmp_path / "run.csv", tmp_path / "crlf.csv"
    write_series(csv_path, simulated)
    written = csv_fields(csv_path)
    # CRLF line ends send the file to the row loop
    crlf_path.write_bytes(csv_path.read_bytes().replace(b"\n", b"\r\n"))
    (tmp_path / "crlf.meta.json").write_bytes((tmp_path / "run.meta.json").read_bytes())
    ids = ("a", "b", "c", "legit-0001")
    matrix = [[sum(b for f, b in window if f == fid) for fid in ids] for window in per_window]
    runs = {
        "simulate": (simulated, written),
        "read_series": (read_series(csv_path), written),
        "row loop": (read_series(crlf_path), written),
        "window rows": (series_of_rows(window_rows_of(per_window), config), rows),
        "records": (FlowRecordSeries([FlowRecord(*row) for row in rows], config), rows),
        "from_volumes": (FlowRecordSeries.from_volumes(ids, matrix, config),
                         [(w, fid, b) for w, counts in enumerate(matrix)
                          for fid, b in zip(ids, counts) if b]),
    }
    for name, (series, expected) in runs.items():
        records = series.records
        assert records == tuple(FlowRecord(*row) for row in expected), name
        assert all(type(r) is FlowRecord for r in records), name
        assert {(type(r.window_index), type(r.flow_id), type(r.bytes)) for r in records} <= {
            (int, str, int)}, name


def test_duck_records_are_checked_when_the_run_is_built():
    # a record that is not a FlowRecord is made one, so the run stores no row that the
    # flow CSV cannot hold and .records has nothing left to check
    config = {"config": {"window_length_ms": 200.0}}
    cases = [
        ([Row(0, "a", 1), Row(1, "b,c", 2)], "flow_id 'b,c' must not contain commas or newlines"),
        ([Row(0, "a", 2.5)], "bytes must be an integer, got 2.5"),
        ([Row(0, "a", -1), Row(0, "a", 3)], "negative byte count -1 for flow 'a'"),
        ([Row(0, "a", 1), Row(0, "", 2)], "flow_id must be non-empty"),
        ([FlowRecord(0, "a", 1), Row(0, '"q', 2)],
         "flow_id '\"q' must not start with a double quote"),
    ]
    for records, message in cases:
        with pytest.raises(InputError) as info:
            FlowRecordSeries(records, config)
        assert str(info.value) == message


def mostly(common, rare):
    """common about five times in six, else rare."""
    return st.sampled_from([common] * 5 + [rare]).flatmap(lambda strategy: strategy)


# record fields a FlowRecord takes, a few past the window-index rule's gap bound
good_windows = mostly(st.integers(0, 4), st.sampled_from([MAX_GAP_WINDOWS + 1, 2**63]))
good_ids = st.sampled_from(["a", "b", "legit-0001", 'q"', " a", "é"])
good_counts = mostly(st.integers(0, 9), st.sampled_from([2**53, 2**63, 10**30]))
# and fields it refuses or turns into ints: float, negative and huge numbers, and ids
# that are empty, not a str, or hold a comma, a newline or a leading quote
odd_windows = st.one_of(good_windows, st.sampled_from(
    [-1, -(2**63), 0.5, 2.0, math.nan, True, np.int64(3), np.float64(1.0)]))
odd_ids = st.one_of(good_ids, st.sampled_from(["", "a,b", '"q', "a\nb", "a\r", 5, None, b"a"]),
                    st.text(alphabet='ab,"\n', max_size=3))
odd_counts = st.one_of(good_counts, st.sampled_from(
    [-4, -1, 2.5, 3.0, math.nan, "5", True, np.int64(7), np.int64(-2), np.uint64(2**63)]))
# real FlowRecords, and duck records that mostly hold what a FlowRecord would
records = st.one_of(
    st.builds(FlowRecord, good_windows, good_ids, good_counts),
    mostly(st.builds(Row, good_windows, good_ids, good_counts),
           st.builds(Row, odd_windows, odd_ids, odd_counts)))
record_runs = st.tuples(st.lists(records, max_size=8), mostly(st.just(True), st.just(False))).map(
    lambda run: ("records", sorted(run[0], key=lambda r: r.window_index) if run[1] else run[0]))
volume_counts = mostly(st.integers(0, 9), st.sampled_from([-1, 2**53, 2**63 - 1, 2**63, 2.5]))
volume_runs = st.lists(mostly(good_ids, odd_ids), max_size=4, unique_by=repr).flatmap(
    lambda ids: st.tuples(st.just("volumes"), st.just(ids), st.lists(
        st.lists(volume_counts, min_size=len(ids), max_size=len(ids)), max_size=5)))
sidecar_counts = mostly(st.one_of(st.none(), st.integers(5, 12)), st.one_of(
    st.integers(-2, 4), st.sampled_from([2.0, 2.5, MAX_GAP_WINDOWS + 6, 2**63])))


def built_run(run, count):
    """The run's series, or None if it is refused when built."""
    config = {"window_length_ms": 200.0}
    if count is not None:
        config["num_windows"] = count
    try:
        if run[0] == "records":
            return FlowRecordSeries(run[1], {"config": config})
        return FlowRecordSeries.from_volumes(run[1], run[2], {"config": config})
    except InputError:
        return None


@settings(max_examples=300, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=st.one_of(record_runs, volume_runs), count=sidecar_counts)
@example(run=("records", [Row(0, "a,b", 5)]), count=None)
@example(run=("records", [Row(0, "a", -4)]), count=None)
@example(run=("records", [Row(0, "a", 2.5)]), count=None)
@example(run=("records", [Row(0.5, "a", 3)]), count=None)
@example(run=("records", [Row(0, "a", 1), Row(0.5, "b", 3)]), count=2)
@example(run=("volumes", ["a"], [[0], [0]]), count=-1)
def test_every_run_is_refused_when_built_or_reads_back_as_itself(tmp_path, run, count):
    # a run stores only rows that FlowRecord takes, so whatever it writes reads back
    series = built_run(run, count)
    if series is None:
        return
    path = tmp_path / "run.csv"
    write_series(path, series)
    loaded = read_series(path)
    assert loaded.records == series.records
    assert loaded.record_count == series.record_count == len(series.records)
    assert loaded.num_windows == series.num_windows
    assert entropy_hexes(loaded) == entropy_hexes(series)
