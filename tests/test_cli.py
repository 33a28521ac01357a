import json
import math
import weakref

import pytest

from floodgauge import entropy_core, traffic_sim
from floodgauge.cli import build_parser, main
from floodgauge.detector import load_baseline
from floodgauge.fileio import read_table
from floodgauge.pipeline import (
    ESTIMATES_TABLE,
    read_calibration_csv,
    write_calibration_csv,
)
from floodgauge.refdata import reference_dataset
from floodgauge.regression import load_model


def run_cli(*argv):
    return main([str(a) for a in argv])


def simulate_run(tmp_path, name, attack_rate, seed, zombies=10):
    path = tmp_path / name
    code = run_cli(
        "simulate",
        "--out", path,
        "--legit-clients", 60,
        "--zombies", zombies,
        "--attack-rate", attack_rate,
        "--windows", 12,
        "--seed", seed,
    )
    assert code == 0
    return path


@pytest.fixture()
def workflow(tmp_path):
    clean = simulate_run(tmp_path, "clean.csv", 0.0, 11, zombies=0)
    baseline = tmp_path / "baseline.json"
    assert run_cli("baseline", "--flows", clean, "--out", baseline) == 0
    runs = {
        5.0: simulate_run(tmp_path, "atk05.csv", 0.5, 21),
        12.0: simulate_run(tmp_path, "atk12.csv", 1.2, 22),
        20.0: simulate_run(tmp_path, "atk20.csv", 2.0, 23),
    }
    cal = tmp_path / "cal.csv"
    args = ["calibrate", "--baseline", baseline, "--out", cal]
    for strength, path in runs.items():
        args += ["--run", f"{strength}={path}"]
    assert run_cli(*args) == 0
    return tmp_path, cal


def test_calibrate_reads_one_run_at_a_time(tmp_path, monkeypatch):
    clean = simulate_run(tmp_path, "clean.csv", 0.0, 11, zombies=0)
    baseline = tmp_path / "baseline.json"
    assert run_cli("baseline", "--flows", clean, "--out", baseline) == 0
    args = ["calibrate", "--baseline", baseline, "--out", tmp_path / "cal.csv"]
    for strength, rate, seed in ((5.0, 0.5, 21), (12.0, 1.2, 22), (20.0, 2.0, 23)):
        path = simulate_run(tmp_path, f"atk{seed}.csv", rate, seed)
        args += ["--run", f"{strength}={path}"]
    alive = weakref.WeakSet()
    peak = 0

    def tracked(path, window_ms, real=entropy_core.read_series):
        nonlocal peak
        series = real(path, window_ms)
        alive.add(series)
        peak = max(peak, len(alive))
        return series

    monkeypatch.setattr(entropy_core, "read_series", tracked)
    assert run_cli(*args) == 0
    assert len(read_calibration_csv(tmp_path / "cal.csv").samples) == 3
    assert peak <= 2


def test_calibrate_names_the_run_that_flagged_no_window(tmp_path, capsys):
    clean = simulate_run(tmp_path, "clean.csv", 0.0, 11, zombies=0)
    baseline = tmp_path / "baseline.json"
    assert run_cli("baseline", "--flows", clean, "--out", baseline) == 0
    attack = simulate_run(tmp_path, "a.csv", 0.5, 21)
    quiet = simulate_run(tmp_path, "q.csv", 0.0, 22)
    capsys.readouterr()
    assert run_cli("calibrate", "--baseline", baseline, "--out", tmp_path / "cal.csv",
                   "--run", f"5={attack}", "--run", f"7={quiet}") == 1
    err = capsys.readouterr().err
    assert err == f"error: {quiet}: run at 7.0 Mbps produced no flagged windows\n"


def test_simulate_counts_the_records_it_writes(tmp_path, capsys):
    path = tmp_path / "sparse.csv"
    assert run_cli(
        "simulate", "--out", path, "--legit-clients", 6, "--zombies", 0,
        "--legit-rate", 0.00001, "--windows", 8, "--seed", 3,
    ) == 0
    rows = len(path.read_text().splitlines()) - 1
    assert 0 < rows < 6 * 8  # some draws are zero
    assert capsys.readouterr().out.startswith(f"wrote {rows} flow records over 8 windows ")


def test_simulate_writes_flow_csv_and_sidecar(tmp_path, capsys):
    path = simulate_run(tmp_path, "run.csv", 0.5, 3)
    assert path.exists()
    assert (tmp_path / "run.meta.json").exists()
    out = capsys.readouterr().out
    assert "aggregate attack strength: 5.00 Mbps" in out


def test_baseline_reports_training_stats(tmp_path, capsys):
    clean = simulate_run(tmp_path, "clean.csv", 0.0, 5, zombies=0)
    baseline_path = tmp_path / "baseline.json"
    assert run_cli("baseline", "--flows", clean, "--out", baseline_path) == 0
    baseline = load_baseline(baseline_path)
    assert baseline.training_windows == 12
    assert baseline.threshold == 0.1
    assert "baseline h_n=" in capsys.readouterr().out


def test_baseline_counts_trailing_empty_windows(tmp_path, capsys):
    sparse = tmp_path / "sparse.csv"
    assert run_cli(
        "simulate", "--out", sparse, "--legit-clients", 2, "--zombies", 0,
        "--legit-rate", 0.00004, "--windows", 12, "--seed", 9,
    ) == 0
    assert "over 12 windows" in capsys.readouterr().out
    assert sparse.read_text().splitlines()[-1].startswith("10,")
    assert run_cli("baseline", "--flows", sparse, "--out", tmp_path / "b.json") == 0
    assert "over 12 windows" in capsys.readouterr().out
    # --window-ms skips the sidecar, so the run ends at its last record
    assert run_cli(
        "baseline", "--flows", sparse, "--out", tmp_path / "b.json", "--window-ms", 200
    ) == 0
    assert "over 11 windows" in capsys.readouterr().out


def test_baseline_leaves_a_capture_gap_out_of_h_n(tmp_path, capsys):
    full = tmp_path / "full.csv"
    assert run_cli("simulate", "--out", full, "--zombies", 0, "--windows", 50,
                   "--seed", 4) == 0
    # a collector outage: windows 10-19 lose their rows, the sidecar still says 50
    header, *rows = full.read_text().splitlines(keepends=True)
    gap = tmp_path / "gap.csv"
    gap.write_text(header + "".join(r for r in rows if not 10 <= int(r.split(",")[0]) <= 19))
    (tmp_path / "gap.meta.json").write_text((tmp_path / "full.meta.json").read_text())
    capsys.readouterr()
    assert run_cli("baseline", "--flows", gap, "--out", tmp_path / "b.json") == 0
    busy = [e.value for e in traffic_sim.read_series(gap).entropies() if e.flow_count]
    assert len(busy) == 40
    baseline = load_baseline(tmp_path / "b.json")
    assert baseline.h_n == math.fsum(busy) / 40
    assert baseline.training_windows == 50
    assert capsys.readouterr().out == (
        f"baseline h_n={baseline.h_n:.4f} bits over 50 windows, 10 empty "
        f"(threshold 0.1) -> {tmp_path / 'b.json'}\n"
    )
    assert f"{baseline.h_n:.4f}" == "8.6438"


def test_out_of_range_json_numbers_name_their_file(workflow, capsys):
    tmp_path, _ = workflow
    baseline = tmp_path / "b2.json"
    baseline.write_text('{"h_n": 1.0, "threshold": 0.1, "training_windows": 1e400}\n')
    run = tmp_path / "atk05.csv"
    args = ["calibrate", "--baseline", baseline, "--out", tmp_path / "c2.csv", "--run", f"5={run}"]
    assert run_cli(*args) == 1
    assert capsys.readouterr().err.startswith(f"error: {baseline}: missing or ill-typed field: ")
    sidecar = tmp_path / "atk05.meta.json"
    sidecar.write_text(sidecar.read_text().replace('"num_windows": 12', '"num_windows": 1e400'))
    assert run_cli("baseline", "--flows", run, "--out", tmp_path / "b3.json") == 1
    assert capsys.readouterr().err.startswith(f"error: {sidecar}: ")


def json_command(tmp_path, kind, text):
    """The argv of a command that reads a JSON file of kind (baseline, model or sidecar)
    before any other input, and that file, written with text."""
    run = tmp_path / "run.csv"
    run.write_text("window_index,flow_id,bytes\n0,a,5\n")
    path = {"baseline": tmp_path / "b.json", "model": tmp_path / "m.json",
            "sidecar": tmp_path / "run.meta.json"}[kind]
    path.write_text(text)
    return {
        "baseline": ("calibrate", "--baseline", path, "--out", tmp_path / "c.csv",
                     "--run", f"5={run}"),
        "model": ("estimate", "--model", path, "--events", run),
        "sidecar": ("baseline", "--flows", run, "--out", tmp_path / "b2.json"),
    }[kind], path


@pytest.mark.parametrize("kind, text, message", [
    pytest.param("baseline", '{"h_n": 1.0, "threshold": 0.1}',
                 "missing or ill-typed field: training_windows: missing", id="baseline-missing"),
    pytest.param("baseline", '{"h_n": [1], "threshold": 0.1, "training_windows": 12}',
                 "missing or ill-typed field: h_n: expected a number, got [1]", id="baseline-list"),
    pytest.param("baseline", '{"h_n": 1' + "0" * 400 + ', "threshold": 0.1, '
                 '"training_windows": 12}', "missing or ill-typed field: h_n: "
                 "int too large to convert to float",
                 id="baseline-past-the-float-range"),
    pytest.param("model", '{"kind": "linear", "coefficients": 5, "fit_method": "raw_ols", '
                 '"trained_on": "x"}', "missing or ill-typed field: coefficients: "
                 "'int' object is not iterable", id="model-coefficients"),
    pytest.param("sidecar", '{"config": 5}', "missing or ill-typed field: "
                 "config.window_length_ms: expected a JSON object, got int", id="sidecar-config"),
    *(pytest.param(kind, "[1, 2]", "expected a JSON object, got list", id=f"{kind}-top-level")
      for kind in ("baseline", "model", "sidecar")),
])
def test_a_json_field_error_names_the_field(tmp_path, capsys, kind, text, message):
    argv, path = json_command(tmp_path, kind, text)
    assert run_cli(*argv) == 1
    assert one_error_line(capsys, path) == f"error: {path}: {message}"


@pytest.mark.parametrize("kind", ["baseline", "model", "sidecar"])
def test_a_json_integer_past_the_digit_limit_is_invalid_json(tmp_path, capsys, kind):
    argv, path = json_command(tmp_path, kind, '{"n": ' + "9" * 5001 + "}")
    assert run_cli(*argv) == 1
    assert one_error_line(capsys, path).startswith(f"error: {path}: invalid JSON: ")


def test_full_workflow(workflow, capsys):
    tmp_path, cal = workflow
    data = read_calibration_csv(cal)
    assert [s.y for s in data.samples] == [5.0, 12.0, 20.0]

    model_path = tmp_path / "linear.json"
    assert run_cli("fit", "--data", cal, "--model", "linear", "--out", model_path) == 0
    model = load_model(model_path)
    assert model.kind.tag == "linear"

    assert run_cli("evaluate", "--model", model_path, "--data", cal) == 0
    out = capsys.readouterr().out
    assert "eta" in out and "nmse_table2" in out

    cmp_csv = tmp_path / "cmp.csv"
    cmp_json = tmp_path / "cmp.json"
    assert (
        run_cli(
            "compare",
            "--data", cal,
            "--out-csv", cmp_csv,
            "--out-json", cmp_json,
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "best model by eta:" in out
    header = cmp_csv.read_text().splitlines()[0]
    assert header == "model,r2,cc,sse,mse,rmse,nmse_eq11,nmse_table2,eta,mae_index"
    assert "best_model" in json.loads(cmp_json.read_text())

    est_csv = tmp_path / "est.csv"
    assert (
        run_cli(
            "estimate",
            "--model", model_path,
            "--events", cal,
            "--out", est_csv,
        )
        == 0
    )
    estimates = read_table(est_csv, ESTIMATES_TABLE)
    assert len(estimates) == 3
    out = capsys.readouterr().out
    assert "estimated 3 flagged windows" in out


def test_estimate_accepts_events_csv(workflow, tmp_path):
    base, cal = workflow
    model_path = base / "log.json"
    assert run_cli("fit", "--data", cal, "--model", "logarithmic", "--out", model_path) == 0
    events_path = base / "events.csv"
    events_path.write_text(
        "window_index,h_c,deviation,attack_flag\n"
        "0,8.5,0.05,false\n"
        "1,8.9,0.3,true\n"
    )
    out_path = base / "est.csv"
    assert run_cli("estimate", "--model", model_path, "--events", events_path, "--out", out_path) == 0
    estimates = read_table(out_path, ESTIMATES_TABLE)
    assert [e.window_index for e in estimates] == [1]


def test_estimate_matches_headers_like_the_table_reader(workflow, tmp_path):
    base, cal = workflow
    spaced = base / "spaced.csv"
    spaced.write_text(cal.read_text().replace("deviation,", "deviation, ", 1))
    model = base / "lin.json"
    assert run_cli("fit", "--data", spaced, "--model", "linear", "--out", model) == 0
    out_path = base / "est.csv"
    assert run_cli("estimate", "--model", model, "--events", spaced, "--out", out_path) == 0
    assert len(read_table(out_path, ESTIMATES_TABLE)) == len(read_calibration_csv(cal).samples)


def test_estimate_rejects_unknown_header(tmp_path, capsys):
    bogus = tmp_path / "bogus.csv"
    bogus.write_text("alpha,beta\n1,2\n")
    model = tmp_path / "m.json"
    model.write_text(
        '{"kind": "linear", "degree": null, "coefficients": [0.0, 1.0],'
        ' "fit_method": "raw_ols", "trained_on": "x"}\n'
    )
    assert run_cli("estimate", "--model", model, "--events", bogus) == 1
    assert capsys.readouterr().err == (
        f"error: {bogus}:1: expected header "
        "window_index,h_c,deviation,attack_flag or deviation,strength_mbps\n"
    )
    bogus.write_bytes(b"deviation\xff,strength_mbps\n0.2,10.0\n")
    assert run_cli("estimate", "--model", model, "--events", bogus) == 1
    assert f"error: {bogus}:1: not UTF-8 text: invalid start byte" in capsys.readouterr().err
    # a header cell past the csv field limit
    bogus.write_text("x" * 140_000 + ",strength_mbps\n0.2,10.0\n")
    assert run_cli("estimate", "--model", model, "--events", bogus) == 1
    assert f"error: {bogus}:1: field larger than field limit" in capsys.readouterr().err


LINEAR_MODEL = (
    '{"kind": "linear", "degree": null, "coefficients": [0.0, 100.0],'
    ' "fit_method": "raw_ols", "trained_on": "x"}\n'
)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_estimate_reads_calibration_and_events_csv_alike(tmp_path, capsys, n):
    model = tmp_path / "m.json"
    model.write_text(LINEAR_MODEL)
    deviations = [0.12, 0.2, 0.31][:n]
    cal = tmp_path / "cal.csv"
    cal.write_text(
        "deviation,strength_mbps\n" + "".join(f"{x},{10 * x}\n" for x in deviations)
    )
    events = tmp_path / "events.csv"
    events.write_text("window_index,h_c,deviation,attack_flag\n" + "".join(
        f"{i},8.9,{x},true\n" for i, x in enumerate(deviations)
    ))
    out = tmp_path / "est.csv"
    seen = []
    for path in (cal, events):
        assert run_cli("estimate", "--model", model, "--events", path, "--out", out) == 0
        seen.append((out.read_bytes(), capsys.readouterr()))
    assert seen[0] == seen[1]
    assert [e.deviation for e in read_table(out, ESTIMATES_TABLE)] == deviations
    assert f"estimated {n} flagged windows" in seen[0][1].out


def test_estimate_refuses_a_negative_window_index(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(LINEAR_MODEL)
    events = tmp_path / "neg.csv"
    events.write_text(
        "window_index,h_c,deviation,attack_flag\n0,1.0,0.15,true\n-3,1.0,0.25,true\n"
    )
    out = tmp_path / "est.csv"
    assert run_cli("estimate", "--model", model, "--events", events, "--out", out) == 1
    assert capsys.readouterr().err == f"error: {events}:3: window_index must be >= 0, got -3\n"
    assert not out.exists()


def test_fit_polynomial_degree_flag(workflow):
    tmp_path, cal = workflow
    model_path = tmp_path / "poly.json"
    assert run_cli(
        "fit", "--data", cal, "--model", "polynomial", "--degree", 2, "--out", model_path
    ) == 0
    assert load_model(model_path).kind.degree == 2


def test_fit_degree_on_non_polynomial_fails(workflow, capsys):
    tmp_path, cal = workflow
    code = run_cli(
        "fit", "--data", cal, "--model", "linear", "--degree", 2,
        "--out", tmp_path / "m.json",
    )
    assert code == 1
    assert "degree only applies to polynomial" in capsys.readouterr().err


def test_missing_input_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = run_cli("baseline", "--flows", missing, "--out", tmp_path / "b.json")
    assert code == 1
    # the missing CSV is named, not its sidecar, with or without --window-ms
    missing_csv = f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert capsys.readouterr().err == missing_csv
    assert run_cli(
        "baseline", "--flows", missing, "--out", tmp_path / "b.json", "--window-ms", 200
    ) == 1
    assert capsys.readouterr().err == missing_csv


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--model", "linear"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--run", "not-a-run", "--baseline", "b", "--out", "c"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_seed_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOODGAUGE_SEED", "123")
    path = tmp_path / "run.csv"
    assert run_cli("simulate", "--out", path, "--legit-clients", 5,
                   "--zombies", 0, "--windows", 2) == 0
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["seed"] == 123

    monkeypatch.setenv("FLOODGAUGE_SEED", "not-a-number")
    assert run_cli("simulate", "--out", path, "--legit-clients", 5,
                   "--zombies", 0, "--windows", 2) == 1


def test_explicit_seed_wins_over_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOODGAUGE_SEED", "123")
    path = tmp_path / "run.csv"
    assert run_cli("simulate", "--out", path, "--legit-clients", 5,
                   "--zombies", 0, "--windows", 2, "--seed", 9) == 0
    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["seed"] == 9


def test_reproduce_command_passes(capsys):
    assert run_cli("reproduce-table2") == 0
    out = capsys.readouterr().out
    assert "reproduction: PASS" in out
    assert "best family by eta: polynomial" in out


def test_reproduce_command_json_output(tmp_path):
    out_json = tmp_path / "repro.json"
    assert run_cli("reproduce-table2", "--out-json", out_json) == 0
    payload = json.loads(out_json.read_text())
    assert payload["ok"] is True
    assert payload["best_family"] == "polynomial"
    assert len(payload["checks"]) == 40


def test_reproduce_has_no_degree_flag(capsys):
    # only the default degree reproduces the published table
    with pytest.raises(SystemExit) as exc:
        run_cli("reproduce-table2", "--degree", 2)
    assert exc.value.code == 2
    assert "unrecognized arguments: --degree 2" in capsys.readouterr().err


def test_parser_covers_all_commands():
    parser = build_parser()
    subactions = [
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    ]
    commands = set(subactions[0].choices)
    assert commands == {
        "simulate",
        "baseline",
        "calibrate",
        "fit",
        "evaluate",
        "compare",
        "estimate",
        "reproduce-table2",
    }


def test_fixture_estimate_round_trip_keeps_all_rows(tmp_path):
    cal = tmp_path / "table.csv"
    write_calibration_csv(cal, reference_dataset())
    model_path = tmp_path / "linear.json"
    assert run_cli("fit", "--data", cal, "--model", "linear", "--out", model_path) == 0
    est_csv = tmp_path / "est.csv"
    assert run_cli("estimate", "--model", model_path, "--events", cal, "--out", est_csv) == 0
    assert len(read_table(est_csv, ESTIMATES_TABLE)) == 19


def test_same_seed_produces_byte_identical_outputs(tmp_path):
    first = simulate_run(tmp_path, "a.csv", 0.7, 42)
    second = simulate_run(tmp_path, "b.csv", 0.7, 42)
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()

    cal = tmp_path / "table.csv"
    write_calibration_csv(cal, reference_dataset())
    outs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        assert run_cli("compare", "--data", cal, "--out-csv", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    models = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        assert run_cli("fit", "--data", cal, "--model", "power", "--out", out) == 0
        models.append(json.loads(out.read_text()))
    for obj in models:
        del obj["created_at"]
    assert models[0] == models[1]


def test_bad_row_with_sidecar_names_the_line_not_the_sidecar(tmp_path, capsys):
    run = simulate_run(tmp_path, "run.csv", 0.5, 3)
    lines = run.read_text().splitlines()
    window, flow, _ = lines[2].split(",")
    lines[2] = f"{window},{flow},-5"
    run.write_text("\n".join(lines) + "\n")
    assert run_cli("baseline", "--flows", run, "--out", tmp_path / "b.json") == 1
    err = capsys.readouterr().err
    assert f"{run}:3: negative byte count" in err
    assert "sidecar" not in err.replace(str(tmp_path), "")


def test_unordered_rows_with_sidecar_name_the_csv_line(tmp_path, capsys):
    run = simulate_run(tmp_path, "c.csv", 0.0, 11, zombies=0)
    lines = run.read_text().splitlines()
    # the last record (window 11) moves up to line 2, so line 3 goes back to window 0
    run.write_text("\n".join([lines[0], lines[-1], *lines[1:-1]]) + "\n")
    assert run_cli("baseline", "--flows", run, "--out", tmp_path / "b.json") == 1
    assert capsys.readouterr().err == (
        f"error: {run}:3: records must be ordered by window_index\n"
    )


def test_missing_sidecar_needs_window_ms(tmp_path, capsys):
    clean = simulate_run(tmp_path, "clean.csv", 0.0, 11, zombies=0)
    (tmp_path / "clean.meta.json").unlink()
    assert run_cli("baseline", "--flows", clean, "--out", tmp_path / "b.json") == 1
    assert "pass --window-ms" in capsys.readouterr().err
    assert run_cli(
        "baseline", "--flows", clean, "--out", tmp_path / "b.json", "--window-ms", 200
    ) == 0
    # the missing sidecar is reported before the CSV is parsed
    junk = tmp_path / "junk.csv"
    junk.write_text("not,a,flow,csv\n")
    capsys.readouterr()
    assert run_cli("baseline", "--flows", junk, "--out", tmp_path / "j.json") == 1
    assert "pass --window-ms" in capsys.readouterr().err


def test_calibrate_accepts_run_without_sidecar_given_window_ms(tmp_path, capsys):
    clean = simulate_run(tmp_path, "clean.csv", 0.0, 11, zombies=0)
    baseline = tmp_path / "baseline.json"
    assert run_cli("baseline", "--flows", clean, "--out", baseline) == 0
    runs = [simulate_run(tmp_path, f"atk{i}.csv", rate, 20 + i)
            for i, rate in enumerate((0.5, 1.2))]
    with_sidecar = tmp_path / "with.csv"
    args = ["calibrate", "--baseline", baseline, "--window-ms", 200]
    for strength, path in zip((5.0, 12.0), runs):
        args += ["--run", f"{strength}={path}"]
    assert run_cli(*args, "--out", with_sidecar) == 0

    for path in runs:
        path.with_suffix(".meta.json").unlink()
    without = tmp_path / "without.csv"
    assert run_cli(*args, "--out", without) == 0
    assert without.read_bytes() == with_sidecar.read_bytes()

    capsys.readouterr()
    assert run_cli("calibrate", "--baseline", baseline, "--out", tmp_path / "x.csv",
                   "--run", f"5={runs[0]}") == 1
    assert "pass --window-ms" in capsys.readouterr().err


def test_truncated_model_json_is_an_error_not_a_traceback(workflow, capsys):
    tmp_path, cal = workflow
    model = tmp_path / "model.json"
    assert run_cli("fit", "--data", cal, "--model", "linear", "--out", model) == 0
    model.write_text(model.read_text()[:25])
    capsys.readouterr()
    assert run_cli("estimate", "--model", model, "--events", cal) == 1
    assert f"error: {model}: invalid JSON" in capsys.readouterr().err


def test_truncated_baseline_json_is_an_error_not_a_traceback(workflow, capsys):
    tmp_path, _ = workflow
    baseline = tmp_path / "baseline.json"
    baseline.write_text(baseline.read_text()[:15])
    capsys.readouterr()
    assert run_cli(
        "calibrate", "--baseline", baseline, "--out", tmp_path / "c.csv",
        "--run", f"5={tmp_path / 'atk05.csv'}",
    ) == 1
    assert f"error: {baseline}: invalid JSON" in capsys.readouterr().err


def test_non_utf8_flow_csv_names_the_line(tmp_path, capsys):
    flows = tmp_path / "flows.csv"
    flows.write_bytes(b"window_index,flow_id,bytes\n0,a,5\n0,b\xff,7\n")
    assert run_cli(
        "baseline", "--flows", flows, "--out", tmp_path / "b.json", "--window-ms", 200
    ) == 1
    assert f"error: {flows}:3: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("length", ["nan", "inf", "0", "-200", "abc"])
def test_non_finite_window_ms_is_refused(tmp_path, capsys, length):
    # the flag is refused before any file is read, so the missing CSV is never named
    missing = tmp_path / "missing.csv"
    out = tmp_path / "out"
    for argv in (["baseline", "--flows", missing],
                 ["calibrate", "--run", f"5={missing}", "--baseline", missing]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", out, "--window-ms", length)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --window-ms: expected a finite positive number, got '{length}'" in err
        assert "missing.csv" not in err
        assert not out.exists()


@pytest.mark.parametrize("degree", ["0", "7", "-1"])
def test_bad_degree_is_refused(tmp_path, capsys, degree):
    # the flag is refused before any file is read, so the missing CSV is never named
    missing = tmp_path / "missing.csv"
    out = tmp_path / "m.json"
    for argv in (["fit", "--model", "polynomial", "--out", out], ["compare"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--data", missing, "--degree", degree)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --degree: expected a whole number in 1..6, got '{degree}'" in err
        assert "missing.csv" not in err
        assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "abc"])
def test_bad_threshold_is_refused(tmp_path, capsys, threshold):
    # the flag is refused before any file is read, so the missing CSV is never named
    out = tmp_path / "b.json"
    with pytest.raises(SystemExit) as exc:
        run_cli("baseline", "--flows", tmp_path / "missing.csv", "--out", out,
                "--threshold", threshold)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --threshold: expected a finite number >= 0, got '{threshold}'" in err
    assert "missing.csv" not in err
    assert not out.exists()


def test_zero_threshold_is_accepted(tmp_path):
    clean = simulate_run(tmp_path, "clean.csv", 0.0, 11, zombies=0)
    out = tmp_path / "zero.json"
    assert run_cli("baseline", "--flows", clean, "--out", out, "--threshold", 0) == 0
    assert load_baseline(out).threshold == 0.0


def test_polynomial_with_zero_leading_coefficient_round_trips(tmp_path):
    sym = tmp_path / "sym.csv"
    sym.write_text("deviation,strength_mbps\n-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    model = tmp_path / "sym.json"
    assert run_cli(
        "fit", "--data", sym, "--model", "polynomial", "--degree", 1, "--out", model
    ) == 0
    assert run_cli("estimate", "--model", model, "--events", sym) == 0


def test_compare_skips_a_family_whose_in_sample_score_overflows(tmp_path, capsys):
    # exponential fits, but its prediction at x=0.1 leaves the float range
    data = tmp_path / "cal.csv"
    rows = ["0.1,1e-300"] * 5 + ["0.2,1e150"] * 5 + ["0.3,1e150"]
    data.write_text("deviation,strength_mbps\n" + "\n".join(rows) + "\n")
    assert run_cli("compare", "--data", data) == 0
    out = capsys.readouterr().out
    assert "exponential: skipped (exponential model overflows the float range at x=0.1)" in out
    assert [line.split()[0] for line in out.splitlines()[1:4]] == [
        "linear", "polynomial", "logarithmic"
    ]
    assert "best model by eta: polynomial (degree 2)" in out


OVERFLOW_DATA = {
    "big": "1e308,1e308\n-1e308,1e308\n0.5,-1e308\n",
    "exp": "-1.0,1.0\n-0.9999999999,1e300\n",
    "huge": "0.1,1e200\n0.2,3e200\n0.3,2e200\n",
}


@pytest.mark.parametrize("name, command, message", [
    ("big", ["compare"], "linear: linear fit overflows"),
    ("exp", ["fit", "--model", "exponential"], "exponential fit overflows"),
    ("exp", ["compare"], "linear: linear fit gives non-finite coefficients"),
    ("huge", ["compare"], "metrics overflow the float range"),
    ("huge", ["evaluate"], "metrics overflow the float range"),
], ids=["big-compare", "exp-fit", "exp-compare", "huge-compare", "huge-evaluate"])
def test_float_overflow_is_a_data_error(tmp_path, capsys, name, command, message):
    data = tmp_path / f"{name}.csv"
    data.write_text("deviation,strength_mbps\n" + OVERFLOW_DATA[name])
    model = tmp_path / "model.json"
    if command == ["evaluate"]:
        assert run_cli("fit", "--data", data, "--model", "linear", "--out", model) == 0
        command = ["evaluate", "--model", model]
    elif command[0] == "fit":
        command = command + ["--out", model]
    capsys.readouterr()
    assert run_cli(*command, "--data", data) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def _bad_sidecar(tmp_path):
    run = simulate_run(tmp_path, "c.csv", 0.0, 11, zombies=0)
    (tmp_path / "c.meta.json").write_text('{"config": []}\n')
    return ["baseline", "--flows", run, "--out", tmp_path / "b.json"], "c.meta.json"


def _short_sidecar(tmp_path):
    run = simulate_run(tmp_path, "c.csv", 0.0, 11, zombies=0)
    meta = tmp_path / "c.meta.json"
    obj = json.loads(meta.read_text())
    obj["config"]["num_windows"] = 2
    meta.write_text(json.dumps(obj))
    return ["baseline", "--flows", run, "--out", tmp_path / "b.json"], "c.meta.json"


def _unordered_run(tmp_path):
    run = tmp_path / "u.csv"
    run.write_text("window_index,flow_id,bytes\n1,a,5\n0,b,7\n")
    return ["baseline", "--flows", run, "--out", tmp_path / "b.json",
            "--window-ms", 200], "u.csv:3"


def _bad_baseline(tmp_path):
    run = simulate_run(tmp_path, "atk.csv", 0.5, 21)
    baseline = tmp_path / "nb.json"
    baseline.write_text('{"h_n": 1.0, "threshold": -1, "training_windows": 9}\n')
    return ["calibrate", "--baseline", baseline, "--run", f"5={run}",
            "--out", tmp_path / "cal.csv"], "nb.json"


@pytest.mark.parametrize("make", [_bad_sidecar, _short_sidecar, _unordered_run, _bad_baseline])
def test_load_errors_name_their_file(tmp_path, capsys, make):
    argv, name = make(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / name}: ")


def test_estimate_refuses_window_indices_that_do_not_increase(tmp_path, capsys):
    model = tmp_path / "linear.json"
    model.write_text(json.dumps({
        "kind": "linear", "degree": None, "coefficients": [0.0, 100.0],
        "fit_method": "raw_ols", "trained_on": "synthetic",
        "created_at": "2000-01-01T00:00:00+00:00",
    }))
    events = tmp_path / "events.csv"
    events.write_text(
        "window_index,h_c,deviation,attack_flag\n"
        "5,8.0,0.15,true\n5,8.1,0.25,true\n2,8.05,0.2,true\n"
    )
    out = tmp_path / "estimates.csv"
    assert run_cli("estimate", "--model", model, "--events", events, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {events}: window_index 5 follows 5; window indices must increase\n"
    )
    assert not out.exists()


def test_tiny_strengths_keep_a_defined_correlation(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("deviation,strength_mbps\n0.1,1e-150\n0.2,2e-150\n0.3,3e-150\n")
    report = tmp_path / "report.json"
    assert run_cli("compare", "--data", data, "--out-json", report) == 0
    linear = json.loads(report.read_text())["models"]["linear"]
    assert linear["cc"] == pytest.approx(1.0)


def test_model_overflow_skips_the_window_or_fails_evaluate(tmp_path, capsys, caplog):
    model = tmp_path / "exp.json"
    model.write_text(json.dumps({
        "kind": "exponential", "degree": None, "coefficients": [1.0, 1000.0],
        "fit_method": "log_linearized", "trained_on": "synthetic",
        "created_at": "2000-01-01T00:00:00+00:00",
    }))
    events = tmp_path / "events.csv"
    events.write_text(
        "window_index,h_c,deviation,attack_flag\n0,8.0,1.0,true\n1,8.0,0.002,true\n"
    )
    out = tmp_path / "estimates.csv"
    assert run_cli("estimate", "--model", model, "--events", events, "--out", out) == 0
    assert [e.window_index for e in read_table(out, ESTIMATES_TABLE)] == [1]
    assert "window 0 skipped: exponential model overflows" in caplog.text
    capsys.readouterr()
    data = tmp_path / "cal.csv"
    data.write_text("deviation,strength_mbps\n1.0,5.0\n0.5,3.0\n")
    assert run_cli("evaluate", "--model", model, "--data", data) == 1
    assert capsys.readouterr().err == (
        f"error: {data}: exponential model overflows the float range at x=1.0\n"
    )


def one_error_line(capsys, path):
    """The one stderr line of a command that exited 1, which names path."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: "), err
    return err.rstrip("\n")


def test_simulate_refuses_zombies_whose_bytes_round_to_none(tmp_path, capsys):
    # 1e-5 Mbps is a quarter byte per zombie and window: the run would hold no zombie row
    out = tmp_path / "q.csv"
    argv = ["simulate", "--out", out, "--legit-clients", 50, "--zombies", 1000,
            "--attack-rate", 0.00001, "--windows", 2]
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: attack_rate_mbps_per_zombie yields 0.25 bytes per window, "
                            "which rounds to 0; a rate of 0 disables the attack\n")
    assert not out.exists()


def test_an_error_quoting_a_large_value_stays_one_short_line(tmp_path, capsys):
    model, events = tmp_path / "m.json", tmp_path / "events.csv"
    model.write_text(json.dumps({
        "kind": json.loads("[" * 900 + "]" * 900), "degree": None,
        "coefficients": [0.0, 100.0], "fit_method": "raw_ols", "trained_on": "synthetic",
    }))
    events.write_text("window_index,h_c,deviation,attack_flag\n0,1.0,0.15,true\n")
    assert run_cli("estimate", "--model", model, "--events", events) == 1
    line = one_error_line(capsys, model)
    assert len(line) <= 300 and "unknown model family [[[[" in line and "…" in line
    clean = simulate_run(tmp_path, "clean.csv", 0.0, 11, zombies=0)
    baseline = tmp_path / "b.json"
    baseline.write_text(json.dumps({"h_n": "x" * 100_000, "threshold": 0.1,
                                    "training_windows": 10}))
    assert run_cli("calibrate", "--baseline", baseline, "--run", f"5={clean}",
                   "--out", tmp_path / "cal.csv") == 1
    line = one_error_line(capsys, baseline)
    assert len(line) <= 300 and "expected a number, got 'xxxx" in line


def test_a_csv_field_quoted_in_an_error_is_cut_to_one_short_line(tmp_path, capsys):
    model, events, cal = tmp_path / "m.json", tmp_path / "events.csv", tmp_path / "cal.csv"
    model.write_text(LINEAR_MODEL)
    huge = "x" * 5000
    events.write_text(f"window_index,h_c,deviation,attack_flag\n0,1.0,{huge},true\n")
    cal.write_text(f"deviation,strength_mbps\n0.5,{huge}\n0.6,2\n")
    for data, argv in ((events, ("estimate", "--model", model, "--events", events)),
                       (cal, ("fit", "--data", cal, "--model", "linear", "--out", model))):
        assert run_cli(*argv) == 1
        line = one_error_line(capsys, f"{data}:2")
        assert line == f"error: {data}:2: could not convert string to float: '{'x' * 79}…"
        assert len(line) <= 300


@pytest.mark.parametrize("rows", ["", "0,a,5\n"], ids=["header-only", "one-record"])
def test_a_negative_window_count_in_the_sidecar_is_refused(tmp_path, capsys, rows):
    flows, meta = tmp_path / "o.csv", tmp_path / "o.meta.json"
    flows.write_text("window_index,flow_id,bytes\n" + rows)
    meta.write_text(json.dumps({"config": {"window_length_ms": 200.0, "num_windows": -3}}))
    assert run_cli("baseline", "--flows", flows, "--out", tmp_path / "b.json") == 1
    assert one_error_line(capsys, meta) == f"error: {meta}: num_windows must be >= 0, got -3"


@pytest.mark.parametrize("row, message", [
    ("0,1.0,nan,true", "deviation must be finite, got nan"),
    ("0,1.0,inf,true", "deviation must be finite, got inf"),
    ("0,1.0,-1e400,false", "deviation must be finite, got -inf"),
    ("0,nan,0.5,true", "h_c must be finite, got nan"),
    ("0,1e400,0.5,true", "h_c must be finite, got inf"),
], ids=["nan", "inf", "-1e400", "h_c-nan", "h_c-1e400"])
def test_estimate_refuses_a_non_finite_events_row(tmp_path, capsys, row, message):
    model, events = tmp_path / "m.json", tmp_path / "events.csv"
    model.write_text(LINEAR_MODEL)
    events.write_text(f"window_index,h_c,deviation,attack_flag\n{row}\n")
    assert run_cli("estimate", "--model", model, "--events", events) == 1
    assert capsys.readouterr().err == f"error: {events}:2: {message}\n"


def test_data_errors_name_the_file_the_command_read(tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("window_index,flow_id,bytes\n0,a,5\n1,a,5\n2,b,7\n")
    assert run_cli("baseline", "--flows", short, "--window-ms", 200,
                   "--out", tmp_path / "b.json") == 1
    assert one_error_line(capsys, short).endswith(
        "baseline needs >= 5 training windows, got 3")
    flat = tmp_path / "flat.csv"
    flat.write_text("deviation,strength_mbps\n0.5,1\n0.5,2\n")
    assert run_cli("compare", "--data", flat) == 1
    assert f"error: {flat}: no model family could be fit: " in one_error_line(capsys, flat)
    assert run_cli("fit", "--data", flat, "--model", "linear",
                   "--out", tmp_path / "m.json") == 1
    assert one_error_line(capsys, flat) == f"error: {flat}: all x values are equal"
    model, level = tmp_path / "m.json", tmp_path / "level.csv"
    model.write_text(LINEAR_MODEL)
    level.write_text("deviation,strength_mbps\n0.1,3\n0.2,3\n")
    assert run_cli("evaluate", "--model", model, "--data", level) == 1
    assert one_error_line(capsys, level) == f"error: {level}: observed values are all equal"
