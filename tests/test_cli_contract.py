"""The command-line contract over generated input files.

``cli.main`` returns 0, or 1 with one ``error: `` line on stderr; no
exception escapes it, and no printed line holds a Python ``(errno, 'text')``
tuple. Three kinds of input are generated: calibration CSVs of edge floats,
run through compare, fit, evaluate and estimate; bare flow CSVs whose window
indices reach past 2**63, run through ``baseline --window-ms``; and the same
flow CSVs beside a sidecar whose ``num_windows`` reaches past the gap bound
and 2**63, run through baseline and calibrate. Every command runs in this
process.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from floodgauge.cli import main
from floodgauge.entropy_core import MAX_GAP_WINDOWS
from floodgauge.regression import MODEL_FAMILIES

CONTRACT = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def run(*argv):
    """main(argv)'s return code, checked against the contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1), (argv, code)
    printed = out.getvalue() + err.getvalue()
    assert not re.search(r"\(\d+, '", printed), (argv, printed)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
    return code


# zeros, the smallest subnormal, squares and products at the edge of the float range,
# and the arguments where exp overflows (710) and underflows to zero (-745)
EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.5, 1.0, -1.0, 2.0, 709.0, 710.0, -745.0,
    1e154, -1e154, 1e300, -1e300, 1.7e308, -1.7e308,
])
CALIBRATION_ROWS = st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), min_size=2, max_size=8)


@CONTRACT
@given(rows=CALIBRATION_ROWS)
# products past the float range of both signs: fsum's "-inf + inf"
@example(rows=[(0.0, 0.0), (0.0, 1e300), (1e154, 0.0)])
# squares past the float range: pow's OverflowError carries (errno, text)
@example(rows=[(1e300, 1.0), (-1e300, 2.0)])
def test_calibration_commands_exit_0_or_1_with_one_error_line(rows):
    with tempfile.TemporaryDirectory() as tmp:
        cal = Path(tmp) / "cal.csv"
        cal.write_text("deviation,strength_mbps\n"
                       + "".join(f"{x!r},{y!r}\n" for x, y in rows))
        run("compare", "--data", cal, "--out-csv", Path(tmp) / "cmp.csv",
            "--out-json", Path(tmp) / "cmp.json")
        for tag in MODEL_FAMILIES:
            model = Path(tmp) / f"{tag}.json"
            if run("fit", "--model", tag, "--data", cal, "--out", model) == 0:
                run("evaluate", "--model", model, "--data", cal,
                    "--out-json", Path(tmp) / "eval.json")
                run("estimate", "--model", model, "--events", cal,
                    "--out", Path(tmp) / "est.csv")


# small indices, the gap bound's edges, and indices at and past 2**63
WINDOW_INDICES = st.one_of(
    st.integers(0, 12),
    st.sampled_from([MAX_GAP_WINDOWS, MAX_GAP_WINDOWS + 1, MAX_GAP_WINDOWS + 2,
                     2**63 - 1, 2**63, 2**64, 10**30]),
    st.integers(0, 10**40),
)
FLOW_ROWS = st.lists(
    st.tuples(WINDOW_INDICES, st.sampled_from(["a", "b", "c"]), st.integers(0, 1000)),
    min_size=1, max_size=8,
).map(sorted)


@CONTRACT
@given(rows=FLOW_ROWS)
@example(rows=[(999999999999999999999999999999, "a", 1)])
@example(rows=[(0, "a", 5), (2**63, "b", 7)])
def test_baseline_of_a_bare_capture_exits_0_or_1_with_one_error_line(rows):
    with tempfile.TemporaryDirectory() as tmp:
        flows = Path(tmp) / "flows.csv"
        flows.write_text("window_index,flow_id,bytes\n"
                         + "".join(f"{w},{fid},{b}\n" for w, fid, b in rows))
        run("baseline", "--flows", flows, "--window-ms", 200, "--out", Path(tmp) / "b.json")


# sidecar counts at the gap bound's edges after window 0, and at and past 2**63
WINDOW_COUNTS = st.one_of(
    st.integers(1, 16),
    st.sampled_from([MAX_GAP_WINDOWS - 1, MAX_GAP_WINDOWS, MAX_GAP_WINDOWS + 1,
                     MAX_GAP_WINDOWS + 2, 2**63, 10**30]),
)


@settings(CONTRACT, max_examples=30)
@given(rows=FLOW_ROWS, count=WINDOW_COUNTS)
@example(rows=[(0, "a", 5), (1, "b", 7)], count=10**30)
@example(rows=[(0, "a", 5)], count=MAX_GAP_WINDOWS + 2)
def test_baseline_and_calibrate_of_a_counted_capture_exit_0_or_1_with_one_error_line(
        rows, count):
    with tempfile.TemporaryDirectory() as tmp:
        flows = Path(tmp) / "flows.csv"
        flows.write_text("window_index,flow_id,bytes\n"
                         + "".join(f"{w},{fid},{b}\n" for w, fid, b in rows))
        (Path(tmp) / "flows.meta.json").write_text(
            json.dumps({"config": {"window_length_ms": 200.0, "num_windows": count}}))
        run("baseline", "--flows", flows, "--out", Path(tmp) / "b.json")
        baseline = Path(tmp) / "zero.json"
        baseline.write_text('{"h_n": 0.5, "threshold": 0.0, "training_windows": 10}')
        run("calibrate", "--run", f"10={flows}", "--run", f"20={flows}",
            "--baseline", baseline, "--out", Path(tmp) / "cal.csv")
