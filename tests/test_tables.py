"""The four Table CSV formats share one reader and one writer; check each spec.

The flow CSV has its own reader and writer; tests/test_entropy_core.py and
tests/test_traffic_sim.py check it.
"""

import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floodgauge.detector import EVENTS_TABLE, DetectionEvent
from floodgauge.entropy_core import FlowRecord
from floodgauge.errors import InputError
from floodgauge.fileio import read_table, table_text
from floodgauge.metrics import METRICS, REPORT_TABLE, metric_values
from floodgauge.pipeline import (
    CALIBRATION_TABLE,
    ESTIMATES_TABLE,
    StrengthEstimate,
    compare_models,
)
from floodgauge.refdata import REFERENCE_SUMMARY, reference_dataset
from floodgauge.regression import MODEL_FAMILIES, CalibrationSample


def report_rows():
    comparison = compare_models(reference_dataset())
    rows = [(tag, metric_values(r)) for tag, r in comparison.reports.items()]
    # an undefined correlation is written as nan
    return rows + [("linear", (math.nan, math.nan) + rows[0][1][2:])]


# (id, table, rows, header line, a malformed data row)
CASES = [
    (
        "events",
        EVENTS_TABLE,
        [DetectionEvent(0, 8.6438, -0.0012, False), DetectionEvent(1, 8.9001, 0.2551, True)],
        "window_index,h_c,deviation,attack_flag",
        "2,8.0,0.2,yes",
    ),
    (
        "calibration",
        CALIBRATION_TABLE,
        list(reference_dataset().samples),
        "deviation,strength_mbps",
        "0.1,ten",
    ),
    (
        "estimates",
        ESTIMATES_TABLE,
        [StrengthEstimate(3, 0.25, 12.5, False), StrengthEstimate(4, -0.1, 0.0, True)],
        "window_index,deviation,estimate_mbps,clamped",
        "5,0.2,1.0,maybe",
    ),
    (
        "report",
        REPORT_TABLE,
        report_rows(),
        "model,r2,cc,sse,mse,rmse,nmse_eq11,nmse_table2,eta,mae_index",
        "linear,0.9,0.9,x,1,1,1,1,1,1",
    ),
]

params = pytest.mark.parametrize(
    "table, rows, header, bad_row",
    [pytest.param(*case[1:], id=case[0]) for case in CASES],
)


@params
def test_header_line_is_exact(table, rows, header, bad_row):
    assert table_text(table, rows).split("\n", 1)[0] == header
    assert table_text(table, []) == header + "\n"


@params
def test_text_read_text_is_byte_identical(tmp_path, table, rows, header, bad_row):
    text = table_text(table, rows)
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    assert table_text(table, read_table(path, table)) == text


@params
def test_bad_row_names_file_and_line(tmp_path, table, rows, header, bad_row):
    path = tmp_path / "t.csv"
    where = re.escape(str(path))
    good = table.format(rows[0])
    path.write_text(f"{header}\n{good}\n{bad_row}\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"{where}:3: "):
        read_table(path, table)
    path.write_text(f"{header}\n\n{good},extra\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"{where}:3: expected {len(table.header)} fields"):
        read_table(path, table)
    path.write_text(f"{good}\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"{where}:1: expected header {header}"):
        read_table(path, table)


def test_the_header_picks_one_of_several_tables(tmp_path):
    tables = [case[1] for case in CASES]
    path = tmp_path / "t.csv"
    for table, rows in ((case[1], case[2]) for case in CASES):
        text = table_text(table, rows)
        path.write_text(text, encoding="utf-8")
        assert table_text(table, read_table(path, *tables)) == text
    path.write_text("alpha,beta\n1,2\n", encoding="utf-8")
    expected = f"{path}:1: expected header {' or '.join(case[3] for case in CASES)}"
    with pytest.raises(InputError, match=f"^{re.escape(expected)}$"):
        read_table(path, *tables)


@pytest.mark.parametrize("table", [EVENTS_TABLE, ESTIMATES_TABLE], ids=["events", "estimates"])
def test_a_negative_window_index_is_refused(tmp_path, table):
    path = tmp_path / "t.csv"
    path.write_text(f"{','.join(table.header)}\n0,1.0,0.2,true\n-3,1.0,0.2,true\n")
    where = re.escape(str(path))
    with pytest.raises(InputError, match=rf"^{where}:3: window_index must be >= 0, got -3$"):
        read_table(path, table)


def test_flow_ids_that_would_not_read_back_are_rejected():
    with pytest.raises(InputError):
        FlowRecord(0, '"quoted"', 1)


def test_reference_summary_follows_the_metric_registry():
    order = [field for field, _ in METRICS]
    for summary in REFERENCE_SUMMARY.values():
        assert list(summary) == [f for f in order if f in summary]


finite = st.floats(allow_nan=False, allow_infinity=False)
no_nan = st.floats(allow_nan=False)
index = st.integers(min_value=0, max_value=10**12)

OBJECTS = {
    # an events row refuses a non-finite h_c or deviation, which the detector never writes
    "events": st.builds(DetectionEvent, index, finite, finite, st.booleans()),
    "calibration": st.builds(CalibrationSample, finite, finite),
    "estimates": st.builds(StrengthEstimate, index, no_nan, no_nan, st.booleans()),
    "report": st.tuples(
        st.sampled_from(MODEL_FAMILIES), st.tuples(*[no_nan] * len(METRICS))
    ),
}


@pytest.mark.parametrize(
    "name, table", [pytest.param(case[0], case[1], id=case[0]) for case in CASES]
)
@settings(
    max_examples=60,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_valid_objects_survive_write_then_read(tmp_path, name, table, data):
    rows = data.draw(st.lists(OBJECTS[name], max_size=8))
    path = tmp_path / f"{name}.csv"
    path.write_text(table_text(table, rows), encoding="utf-8")
    assert read_table(path, table) == rows
