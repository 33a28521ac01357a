"""The command-line contract over generated input files.

``cli.main`` returns 0, or 1 with one ``error: `` line on stderr that names
the generated input file and holds at most 1,000 characters after its name;
no exception escapes it, and no printed line holds a Python ``(errno,
'text')`` tuple. Seven kinds of input are generated: calibration CSVs of
edge floats, run through compare, fit, evaluate and estimate; bare flow CSVs
whose window indices reach past 2**63 and whose window indices and byte
counts may be 4,000-digit integers of either sign, run through ``baseline
--window-ms``; the same flow CSVs beside a sidecar whose ``num_windows`` is
negative or reaches past the gap bound and 2**63, up to 4,000 digits, run
through baseline and calibrate; flow CSVs spelled oddly (ids with quotes,
spaces or non-ASCII text, signed, spaced or fractional numbers, CRLF and
blank lines), with and without a sidecar, run through baseline and
calibrate; events CSVs under
both headers, with window indices that repeat, step down, are negative or
pass 2**63, non-finite floats and odd flags, run through estimate with fitted
linear, power and exponential models; baseline and model JSON files with
missing, extra and ill-typed fields, non-finite literals, 4,000-digit
integers, an integer past the interpreter's digit limit and deep nesting,
run through calibrate, evaluate and estimate; and sidecar JSON files whose
config is varied the same way, or whose top-level value is not an object,
run through baseline and calibrate. Every command runs in this process.

``pytest --hypothesis-profile=ci-deep`` runs each test here on ten times its
examples (the profile is registered in ``tests/conftest.py``).
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pytest

from floodgauge.cli import main
from floodgauge.detector import load_baseline
from floodgauge.entropy_core import MAX_GAP_WINDOWS
from floodgauge.errors import FloodgaugeError
from floodgauge.regression import MODEL_FAMILIES, load_model
from floodgauge.traffic_sim import read_series

# ten times the examples under the ci-deep profile
DEPTH = 10 if settings.get_current_profile_name() == "ci-deep" else 1
CONTRACT = settings(max_examples=60 * DEPTH, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
# the most characters an error line may hold after the file it names: room for compare's
# reason per family, a fraction of one 4,000-digit number quoted whole
MAX_MESSAGE = 1000
# a 4,000-digit integer, under the interpreter's 4,300-digit limit for int(), so the
# readers take it and an error line must quote it cut short
HUGE = int("9" * 4000)


def run(*argv, names=()):
    """main(argv)'s return code, checked against the contract."""
    return run_with_stderr(*argv, names=names)[0]


def run_with_stderr(*argv, names=()):
    """main(argv)'s return code and stderr, checked against the contract; on exit 1 the
    error line starts with one of the paths ``names``, when any is given, and holds at
    most MAX_MESSAGE characters after the path it starts with."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1), (argv, code)
    printed = out.getvalue() + err.getvalue()
    assert not re.search(r"\(\d+, '", printed), (argv, printed)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
        if names:
            assert lines[0].startswith(tuple(f"error: {path}" for path in names)), (argv, lines)
        message = lines[0].removeprefix("error: ")
        paths = [str(p) for p in (*names, *argv) if isinstance(p, Path)]
        named = max((len(p) for p in paths if message.startswith(p)), default=0)
        assert len(message) - named <= MAX_MESSAGE, (argv, len(message), message[:400])
    return code, err.getvalue()


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
            "--out-json", Path(tmp) / "cmp.json", names=[cal])
        for tag in MODEL_FAMILIES:
            model = Path(tmp) / f"{tag}.json"
            if run("fit", "--model", tag, "--data", cal, "--out", model, names=[cal]) == 0:
                run("evaluate", "--model", model, "--data", cal,
                    "--out-json", Path(tmp) / "eval.json", names=[cal])
                run("estimate", "--model", model, "--events", cal,
                    "--out", Path(tmp) / "est.csv", names=[cal])


# small indices, the gap bound's edges, indices at and past 2**63 and 4,000-digit ones
WINDOW_INDICES = st.one_of(
    st.integers(0, 12),
    st.sampled_from([MAX_GAP_WINDOWS, MAX_GAP_WINDOWS + 1, MAX_GAP_WINDOWS + 2,
                     2**63 - 1, 2**63, 2**64, 10**30, HUGE, -HUGE]),
    st.integers(0, 10**40),
)
FLOW_ROWS = st.lists(
    st.tuples(WINDOW_INDICES, st.sampled_from(["a", "b", "c"]),
              st.one_of(st.integers(0, 1000), st.sampled_from([HUGE, -HUGE]))),
    min_size=1, max_size=8,
).map(sorted)


@CONTRACT
@given(rows=FLOW_ROWS)
@example(rows=[(999999999999999999999999999999, "a", 1)])
@example(rows=[(0, "a", 5), (2**63, "b", 7)])
@example(rows=[(-HUGE, "a", 5)])
@example(rows=[(0, "a", -HUGE)])
@example(rows=[(0, "a", 5), (HUGE, "b", 7)])
# a window whose byte total is past the float range
@example(rows=[(0, "a", HUGE), (0, "b", 5), (1, "a", 5)])
def test_baseline_of_a_bare_capture_exits_0_or_1_with_one_error_line(rows):
    with tempfile.TemporaryDirectory() as tmp:
        flows = Path(tmp) / "flows.csv"
        flows.write_text("window_index,flow_id,bytes\n"
                         + "".join(f"{w},{fid},{b}\n" for w, fid, b in rows))
        run("baseline", "--flows", flows, "--window-ms", 200, "--out", Path(tmp) / "b.json",
            names=[flows])


# sidecar counts at the gap bound's edges after window 0, at and past 2**63, below 0,
# and of 4,000 digits
WINDOW_COUNTS = st.one_of(
    st.integers(1, 16),
    st.sampled_from([MAX_GAP_WINDOWS - 1, MAX_GAP_WINDOWS, MAX_GAP_WINDOWS + 1,
                     MAX_GAP_WINDOWS + 2, 2**63, 10**30, -1, HUGE, -HUGE]),
)


@settings(CONTRACT, max_examples=30 * DEPTH)
@given(rows=FLOW_ROWS, count=WINDOW_COUNTS)
@example(rows=[(0, "a", 5), (1, "b", 7)], count=10**30)
@example(rows=[(0, "a", 5)], count=MAX_GAP_WINDOWS + 2)
@example(rows=[], count=-1)
@example(rows=[(0, "a", 5)], count=HUGE)
@example(rows=[(0, "a", 5)], count=-HUGE)
@example(rows=[(0, "a", 5), (HUGE, "b", 7)], count=12)
def test_baseline_and_calibrate_of_a_counted_capture_exit_0_or_1_with_one_error_line(
        rows, count):
    with tempfile.TemporaryDirectory() as tmp:
        flows = Path(tmp) / "flows.csv"
        flows.write_text("window_index,flow_id,bytes\n"
                         + "".join(f"{w},{fid},{b}\n" for w, fid, b in rows))
        meta = Path(tmp) / "flows.meta.json"
        meta.write_text(json.dumps({"config": {"window_length_ms": 200.0, "num_windows": count}}))
        run("baseline", "--flows", flows, "--out", Path(tmp) / "b.json", names=[flows, meta])
        baseline = Path(tmp) / "zero.json"
        baseline.write_text('{"h_n": 0.5, "threshold": 0.0, "training_windows": 10}')
        run("calibrate", "--run", f"10={flows}", "--run", f"20={flows}",
            "--baseline", baseline, "--out", Path(tmp) / "cal.csv", names=[flows, meta])


def spelled(values, spellings):
    """(value, text) pairs: each value mostly written plainly, else in one of spellings."""
    return st.tuples(values, st.sampled_from(["{}"] * 6 + spellings)).map(
        lambda pair: (pair[0], pair[1].format(pair[0])))


# ids with quotes, commas, spaces, no text or non-ASCII text
ODD_FLOW_IDS = st.one_of(
    st.sampled_from(["a", "b", "c"]),
    st.sampled_from(['"a"', '"a,b"', '"a""b"', 'a"b', '"', " a", "a ", "", "é", "流", "a\tb"]),
    st.text(alphabet='ab ",é', max_size=3),
)
# numbers signed, spaced, fractional, with an underscore or a leading zero
ODD_SPELLINGS = ["+{}", " {}", "{} ", "{}.0", "1_{}", "0{}", "{}e0", "-{}"]
ODD_FLOW_ROWS = st.lists(
    st.tuples(
        spelled(st.one_of(st.integers(0, 8), st.sampled_from([MAX_GAP_WINDOWS + 1, 2**63])),
                ODD_SPELLINGS),
        ODD_FLOW_IDS,
        spelled(st.one_of(st.integers(0, 1000), st.sampled_from([2**63 - 1, 2**63, 2**64])),
                ODD_SPELLINGS),
    ),
    min_size=1, max_size=12,
).map(lambda rows: sorted(rows, key=lambda row: row[0][0]))


@CONTRACT
@given(rows=ODD_FLOW_ROWS, newline=st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n"]),
       count=st.one_of(st.none(), st.integers(1, 12)))
@example(rows=[((0, "0"), '"a,b"', (5, "5"))], newline="\n", count=None)
def test_oddly_spelled_flow_csvs_exit_0_or_1_naming_the_run(rows, newline, count):
    with tempfile.TemporaryDirectory() as tmp:
        flows, meta = Path(tmp) / "flows.csv", Path(tmp) / "flows.meta.json"
        flows.write_bytes(newline.join(
            ["window_index,flow_id,bytes"] + [f"{w},{fid},{b}" for (_, w), fid, (_, b) in rows]
        ).encode("utf-8") + newline.encode())
        window_ms = ()
        if count is None:
            window_ms = ("--window-ms", 200)
        else:
            meta.write_text(json.dumps({"config": {"window_length_ms": 200.0,
                                                   "num_windows": count}}))
        run("baseline", "--flows", flows, "--out", Path(tmp) / "b.json", *window_ms,
            names=[flows, meta])
        baseline = Path(tmp) / "zero.json"
        baseline.write_text('{"h_n": 0.5, "threshold": 0.0, "training_windows": 10}')
        run("calibrate", "--run", f"10={flows}", "--run", f"20={flows}", *window_ms,
            "--baseline", baseline, "--out", Path(tmp) / "cal.csv", names=[flows, meta])


EVENT_FLOATS = st.one_of(
    EDGE_FLOATS.map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-1e400", "NaN", "Infinity", "",
                     " 0.5", "0x1p-2", "1_0.5", "0.5.5"]),
)
EVENT_INDICES = spelled(
    st.one_of(st.integers(-2, 6), st.sampled_from([2**63 - 1, 2**63, 10**30])), ODD_SPELLINGS)
EVENT_FLAGS = st.sampled_from(["true"] * 4 + ["false"] * 2 + ["True", "1", "", " true", "yes"])
# events rows in the order drawn, so indices may repeat or step down
EVENTS_TEXT = st.one_of(
    st.lists(st.tuples(EVENT_INDICES, EVENT_FLOATS, EVENT_FLOATS, EVENT_FLAGS), max_size=8).map(
        lambda rows: "window_index,h_c,deviation,attack_flag\n"
        + "".join(f"{w},{h},{d},{flag}\n" for (_, w), h, d, flag in rows)),
    st.lists(st.tuples(EVENT_FLOATS, EVENT_FLOATS), max_size=8).map(
        lambda rows: "deviation,strength_mbps\n" + "".join(f"{x},{y}\n" for x, y in rows)),
)


@CONTRACT
@given(text=EVENTS_TEXT)
@example(text="window_index,h_c,deviation,attack_flag\n0,1.0,nan,true\n")
@example(text="window_index,h_c,deviation,attack_flag\n0,1.0,0.5,true\n0,1.0,0.5,true\n")
def test_events_csvs_through_estimate_exit_0_or_1_naming_them(text):
    with tempfile.TemporaryDirectory() as tmp:
        cal, events = write_calibration(tmp), Path(tmp) / "events.csv"
        events.write_text(text)
        for tag in ("linear", "power", "exponential"):
            model = Path(tmp) / f"{tag}.json"
            assert run("fit", "--model", tag, "--data", cal, "--out", model) == 0
            run("estimate", "--model", model, "--events", events,
                "--out", Path(tmp) / "est.csv", names=[events])


# an integer past the interpreter's 4,300-digit limit for int(), which json.load refuses
PAST_THE_DIGIT_LIMIT = "9" * 5000


# a JSON value of each type, the NaN, Infinity and 1e999 literals that json.load takes,
# 4,000-digit integers, an integer past the digit limit, and lists and objects nested up
# to and past the parser's depth
def nested(depth, opening, closing):
    return opening * depth + "1" + closing * depth


DEPTHS = st.one_of(st.integers(1, 1200), st.sampled_from([990, 1000, 1010, 100_000]))
JSON_VALUES = st.one_of(
    st.sampled_from(["null", "true", "false", "0", "-1", "2", "10", "0.5", "1e308", '""',
                     '"x"', '"linear"', '"raw_ols"', "[]", "{}", "[1.0, 2.0]", '["1", 2]',
                     "NaN", "Infinity", "-Infinity", "1e999", "-1e999", str(HUGE), str(-HUGE),
                     PAST_THE_DIGIT_LIMIT]),
    DEPTHS.map(lambda d: nested(d, "[", "]")),
    DEPTHS.map(lambda d: nested(d, '{"a": ', "}")),
)
VALID_MODELS = [
    {"kind": '"linear"', "degree": "null", "coefficients": "[1.0, 2.0]",
     "fit_method": '"raw_ols"', "trained_on": '"0123abcd"', "created_at": '"2024-01-01"'},
    {"kind": '"polynomial"', "degree": "2", "coefficients": "[1.0, 0.5, 0.25]",
     "fit_method": '"raw_ols"', "trained_on": '"0123abcd"'},
    {"kind": '"exponential"', "degree": "null", "coefficients": "[1.0, 0.5]",
     "fit_method": '"log_linearized"', "trained_on": '"0123abcd"'},
]
VALID_BASELINE = {"h_n": "0.5", "threshold": "0.0", "training_windows": "10"}
VALID_CONFIG = {"window_length_ms": "200.0", "num_windows": "12"}


def object_text(pairs):
    """A JSON object's text from (key, value text) pairs, repeated keys kept."""
    return "{" + ", ".join(f'"{key}": {text}' for key, text in pairs) + "}"


@st.composite
def json_files(draw, valid):
    """The text of a JSON file: the valid object with each field kept, replaced or dropped
    and extra keys added, or now and then a value that is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    fields = {}
    for key, text in valid.items():
        action = draw(st.sampled_from(["keep", "keep", "replace", "drop"]))
        if action != "drop":
            fields[key] = text if action == "keep" else draw(JSON_VALUES)
    extra = draw(st.lists(st.sampled_from(["extra", *valid]), max_size=2))
    return object_text([*fields.items(), *((key, draw(JSON_VALUES)) for key in extra)])


def check_json_command(path, load, argv):
    """Run argv on the JSON file at path: when load refuses the file, the command exits 1
    with load's message, which names the file."""
    try:
        load(path)
        refusal = None
    except FloodgaugeError as exc:
        refusal = f"error: {exc}\n"
        assert str(path) in refusal
    code, err = run_with_stderr(*argv)
    if refusal is not None:
        assert (code, err) == (1, refusal), argv


def write_calibration(tmp):
    cal = Path(tmp) / "cal.csv"
    cal.write_text("deviation,strength_mbps\n0.1,10\n0.2,20\n0.3,35\n")
    return cal


def write_labeled_run(tmp):
    flows = Path(tmp) / "flows.csv"
    flows.write_text("window_index,flow_id,bytes\n" + "".join(
        f"{w},{fid},{b}\n" for w in range(12)
        for fid, b in (("a", 5), ("b", 7 + w), ("c", 1 + w * w))))
    (Path(tmp) / "flows.meta.json").write_text(
        json.dumps({"config": {"window_length_ms": 200.0, "num_windows": 12}}))
    return flows


def calibrate_argv(tmp, flows, baseline):
    return ("calibrate", "--run", f"10={flows}", "--run", f"20={flows}",
            "--baseline", baseline, "--out", Path(tmp) / "cal.csv")


@CONTRACT
@given(text=st.sampled_from(VALID_MODELS).flatmap(json_files))
@example(text=object_text({**VALID_MODELS[0], "degree": PAST_THE_DIGIT_LIMIT}.items()))
@example(text=object_text({**VALID_MODELS[1], "degree": str(HUGE)}.items()))
def test_model_json_through_evaluate_and_estimate_exits_0_or_1_naming_it(text):
    with tempfile.TemporaryDirectory() as tmp:
        cal, model = write_calibration(tmp), Path(tmp) / "model.json"
        model.write_text(text)
        check_json_command(model, load_model, ("evaluate", "--model", model, "--data", cal))
        check_json_command(model, load_model, ("estimate", "--model", model, "--events", cal))


@CONTRACT
@given(text=json_files(VALID_BASELINE))
@example(text=object_text({**VALID_BASELINE, "h_n": PAST_THE_DIGIT_LIMIT}.items()))
@example(text=object_text({**VALID_BASELINE, "training_windows": str(-HUGE)}.items()))
def test_baseline_json_through_calibrate_exits_0_or_1_naming_it(text):
    with tempfile.TemporaryDirectory() as tmp:
        flows, baseline = write_labeled_run(tmp), Path(tmp) / "baseline.json"
        baseline.write_text(text)
        check_json_command(baseline, load_baseline, calibrate_argv(tmp, flows, baseline))


@st.composite
def sidecar_files(draw):
    """A sidecar's text: json_files of its config, nested under "config", or now and then
    a value that is not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JSON_VALUES)
    return object_text([("config", draw(json_files(VALID_CONFIG)))])


@CONTRACT
@given(text=sidecar_files())
@example(text=object_text([("config", object_text(
    {**VALID_CONFIG, "num_windows": PAST_THE_DIGIT_LIMIT}.items()))]))
@example(text=object_text([("config", object_text(
    {**VALID_CONFIG, "num_windows": str(HUGE)}.items()))]))
def test_sidecar_json_through_baseline_and_calibrate_exits_0_or_1_naming_it(text):
    with tempfile.TemporaryDirectory() as tmp:
        flows, baseline = write_labeled_run(tmp), Path(tmp) / "baseline.json"
        baseline.write_text(object_text(VALID_BASELINE.items()))
        meta = Path(tmp) / "flows.meta.json"
        meta.write_text(text)

        def load(_):  # a sidecar is read with its run
            return read_series(flows)

        check_json_command(meta, load,
                           ("baseline", "--flows", flows, "--out", Path(tmp) / "b.json"))
        check_json_command(meta, load, calibrate_argv(tmp, flows, baseline))


def test_the_valid_json_files_run():
    with tempfile.TemporaryDirectory() as tmp:
        cal, flows = write_calibration(tmp), write_labeled_run(tmp)
        model, baseline = Path(tmp) / "model.json", Path(tmp) / "baseline.json"
        for valid in VALID_MODELS:
            model.write_text(object_text(valid.items()))
            assert run("evaluate", "--model", model, "--data", cal) == 0
            assert run("estimate", "--model", model, "--events", cal) == 0
        baseline.write_text(object_text(VALID_BASELINE.items()))
        assert run(*calibrate_argv(tmp, flows, baseline)) == 0


@pytest.mark.parametrize("command", ["evaluate", "estimate", "calibrate", "baseline"])
def test_json_nested_past_the_parser_depth_is_one_error_naming_it(command):
    with tempfile.TemporaryDirectory() as tmp:
        cal, flows = write_calibration(tmp), write_labeled_run(tmp)
        model, baseline = Path(tmp) / "model.json", Path(tmp) / "baseline.json"
        model.write_text(object_text(VALID_MODELS[0].items()))
        baseline.write_text(object_text(VALID_BASELINE.items()))
        argv, path = {
            "evaluate": (("evaluate", "--model", model, "--data", cal), model),
            "estimate": (("estimate", "--model", model, "--events", cal), model),
            "calibrate": (calibrate_argv(tmp, flows, baseline), baseline),
            "baseline": (("baseline", "--flows", flows, "--out", baseline),
                         Path(tmp) / "flows.meta.json"),
        }[command]
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, err = run_with_stderr(*argv)
        assert code == 1 and err.startswith(f"error: {path}: invalid JSON: "), err


def test_a_model_trained_on_a_non_string_is_refused():
    with tempfile.TemporaryDirectory() as tmp:
        cal, model = write_calibration(tmp), Path(tmp) / "model.json"
        model.write_text(object_text({**VALID_MODELS[0], "trained_on": "5"}.items()))
        code, err = run_with_stderr("estimate", "--model", model, "--events", cal)
        assert (code, err) == (1, f"error: {model}: trained_on must be a string, got int\n")
