import math
import random

import pytest

from floodgauge.entropy_core import (
    FlowRecord,
    WindowCounts,
    compute_entropy,
    flow_csv_text,
    read_flow_csv,
    windowize,
)
from floodgauge.errors import InputError
from floodgauge.fileio import atomic_write_text


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
    with pytest.raises(InputError):
        WindowCounts(0, {"a": 5}, 5, 0.0)


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
    with pytest.raises(InputError):
        windowize(records, 0.0)


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
