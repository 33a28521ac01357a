import json
import math
import random
import re
import warnings
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floodgauge import entropy_core
from floodgauge.detector import Baseline
from floodgauge.entropy_core import (
    FlowColumns,
    FlowRecord,
    FlowRecordSeries,
    WindowCounts,
    _read_flow_blocks,
    _read_flow_rows,
    _window_rows,
    compute_entropy,
    flow_csv_text,
    read_flow_csv,
    read_flow_windows,
    windowize,
)
from floodgauge.errors import EmptyRunError, InputError
from floodgauge.fileio import atomic_write_text
from floodgauge.pipeline import run_events
from floodgauge.traffic_sim import ScenarioConfig, read_series, simulate, write_series


def counts(window_index=0, window_length_ms=200.0, **flows):
    return WindowCounts.build(window_index, flows, window_length_ms)


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


def test_windowize_empty_records():
    assert windowize([], 200.0) == []
    assert len(windowize([], 200.0, num_windows=3)) == 3


def test_flow_record_rejects_csv_breaking_ids():
    with pytest.raises(InputError):
        FlowRecord(0, "b,c", 7)
    with pytest.raises(InputError):
        FlowRecord(0, "b\nc", 7)


def test_flow_csv_round_trip(tmp_path):
    records = [FlowRecord(0, "a", 5), FlowRecord(1, "bc", 7)]
    path = tmp_path / "flows.csv"
    atomic_write_text(path, flow_csv_text(records))
    assert read_flow_csv(path) == records
    text = flow_csv_text(records)
    assert text.splitlines()[0] == "window_index,flow_id,bytes"


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


# a window is a few rows over a few ids, so (window, flow) pairs repeat,
# zero-byte rows occur, and empty and single-flow windows are common; the
# columns go in unchecked, so a negative count is dropped like a zero one
window_rows = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "legit-0001"]),
        st.one_of(st.sampled_from([0, 1, -1, 2**53]), st.integers(-5, 10**9)),
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
    columns = FlowColumns(*zip(*rows)) if rows else FlowColumns((), (), ())
    series = FlowRecordSeries(columns, {"config": config})
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


def test_from_volumes_drops_zero_counts_and_keeps_the_window_count():
    config = {"window_length_ms": 200.0}
    ids, rows = ["a", "b", "c"], [[3, 0, 5], [0, 0, 0], [0, 7, 0], [0, 0, 0]]
    series = FlowRecordSeries.from_volumes(ids, rows, {"config": config})
    expected = FlowColumns((0, 0, 2), ("a", "c", "b"), (3, 5, 7))
    assert series.columns == expected
    assert series.record_count == 3
    # without a count the run ends at its last record, as for columns
    assert series.windows() == FlowRecordSeries(expected, {"config": config}).windows()
    assert len(series.windows()) == 3
    counted = {"config": dict(config, num_windows=5)}
    assert len(FlowRecordSeries.from_volumes(ids, rows, counted).windows()) == 5
    with pytest.raises(InputError, match="num_windows=2 but records reach window 2"):
        FlowRecordSeries.from_volumes(ids, rows, {"config": dict(config, num_windows=2)})
    # empty rows past the count are no records: accepted, and the run keeps the count
    padded = FlowRecordSeries.from_volumes(ids, rows + [[0, 0, 0]] * 3, counted)
    assert padded.columns == expected and len(padded.windows()) == 5
    assert len(padded.entropies()) == 5
    with pytest.raises(InputError, match="num_windows=5 but records reach window 6"):
        FlowRecordSeries.from_volumes(ids, rows + [[0, 0, 0], [0, 0, 0], [0, 1, 0]], counted)
    # columns are refused at the first row past the count
    past = FlowColumns((0, 2, 5, 9), ("a", "b", "a", "c"), (1, 2, 3, 4))
    with pytest.raises(InputError, match="num_windows=5 but records reach window 5"):
        FlowRecordSeries(past, counted)


def test_columns_with_a_negative_window_are_refused():
    # the split starts at window 0, so such a row would land in window 0
    columns = FlowColumns((-1, 0), ("a", "b"), (1, 2))
    with pytest.raises(InputError, match="window_index must be >= 0, got -1"):
        FlowRecordSeries(columns, {"config": {"window_length_ms": 200.0}})


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
    read = FlowRecordSeries(series.columns, series.metadata)
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
    assert entropy_hexes(series) == entropy_hexes(FlowRecordSeries(series.columns, counted))


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64, np.int64])
def test_from_volumes_takes_any_integer_array_as_its_rows(dtype):
    config = {"config": {"window_length_ms": 200.0}}
    rows = [[3, 0, 5], [0, 0, 0], [0, 7, 0], [0, 0, 0]]
    from_rows = FlowRecordSeries.from_volumes("abc", rows, config)
    from_array = FlowRecordSeries.from_volumes("abc", np.array(rows, dtype=dtype), config)
    assert from_array.columns == from_rows.columns == FlowColumns((0, 0, 2), tuple("acb"), (3, 5, 7))
    assert all(type(b) is int for b in from_array.columns.bytes)
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
    ids = [f"f{i}" for i in range(len(column))]
    columns = FlowColumns(column, ids, [1] * len(column))
    return FlowRecordSeries(columns, {"config": {"window_length_ms": 200.0}})


@pytest.mark.parametrize("size", [0, 1, 2, 4096, 4097, 12293])
def test_order_check_sees_a_step_down_anywhere(size):
    column = [i // 3 for i in range(size)]
    assert len(series_of_windows(column).windows()) == (column[-1] + 1 if column else 0)
    assert series_of_windows(tuple(column)).columns.window_index == tuple(column)
    # the ends, and each side of every 4096th entry, where a chunked check would split
    spots = {1, size - 1} | {k * 4096 + d for k in range(1, 4) for d in (-1, 0, 1)}
    for i in sorted(j for j in spots if 0 < j < size):
        stepped = column[:i] + [column[i - 1] - 1] + column[i + 1:]
        with pytest.raises(InputError, match="records must be ordered by window_index"):
            series_of_windows(stepped)
    with pytest.raises(InputError, match="records must be ordered by window_index"):
        series_of_windows([0, -1])
    with pytest.raises(InputError, match="window_index must be >= 0, got -1"):
        series_of_windows([-1, 0])


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
    """The csv-module row loop's columns, split into one row per window."""
    return list(_window_rows(_read_flow_rows(path)))


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
    blocks = read_outcome(_read_flow_blocks, path)
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
    expected = FlowRecordSeries(_read_flow_rows(path), metadata)
    # the row ending the first 64 KiB block and the row after it share a window
    data = path.read_bytes()
    header = data.index(b"\n") + 1
    cut = data.index(b"\n", header + (1 << 16)) + 1
    last_of_block = data[data.rindex(b"\n", 0, cut - 1) + 1:cut]
    assert last_of_block.split(b",")[0] == data[cut:].split(b",", 1)[0]
    blocks = _read_flow_blocks(path)
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
