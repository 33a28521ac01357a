import json

import pytest

from floodgauge.cli import build_parser, main
from floodgauge.detector import load_baseline
from floodgauge.pipeline import (
    read_calibration_csv,
    read_estimates_csv,
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
    estimates = read_estimates_csv(est_csv)
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
    estimates = read_estimates_csv(out_path)
    assert [e.window_index for e in estimates] == [1]


def test_estimate_matches_headers_like_the_table_reader(workflow, tmp_path):
    base, cal = workflow
    spaced = base / "spaced.csv"
    spaced.write_text(cal.read_text().replace("deviation,", "deviation, ", 1))
    model = base / "lin.json"
    assert run_cli("fit", "--data", spaced, "--model", "linear", "--out", model) == 0
    out_path = base / "est.csv"
    assert run_cli("estimate", "--model", model, "--events", spaced, "--out", out_path) == 0
    assert len(read_estimates_csv(out_path)) == len(read_calibration_csv(cal).samples)


def test_estimate_rejects_unknown_header(tmp_path, capsys):
    bogus = tmp_path / "bogus.csv"
    bogus.write_text("alpha,beta\n1,2\n")
    model = tmp_path / "m.json"
    model.write_text(
        '{"kind": "linear", "degree": null, "coefficients": [0.0, 1.0],'
        ' "fit_method": "raw_ols", "trained_on": "x"}\n'
    )
    assert run_cli("estimate", "--model", model, "--events", bogus) == 1
    assert "error:" in capsys.readouterr().err
    bogus.write_bytes(b"deviation\xff,strength_mbps\n0.2,10.0\n")
    assert run_cli("estimate", "--model", model, "--events", bogus) == 1
    assert f"error: {bogus}:1: expected an events or calibration CSV header" in (
        capsys.readouterr().err
    )
    # a header cell past the csv field limit
    bogus.write_text("x" * 140_000 + ",strength_mbps\n0.2,10.0\n")
    assert run_cli("estimate", "--model", model, "--events", bogus) == 1
    assert f"error: {bogus}:1: field larger than field limit" in capsys.readouterr().err


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
    assert len(read_estimates_csv(est_csv)) == 19


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
    assert [e.window_index for e in read_estimates_csv(out)] == [1]
    assert "window 0 skipped: exponential model overflows" in caplog.text
    capsys.readouterr()
    data = tmp_path / "cal.csv"
    data.write_text("deviation,strength_mbps\n1.0,5.0\n0.5,3.0\n")
    assert run_cli("evaluate", "--model", model, "--data", data) == 1
    assert capsys.readouterr().err == (
        "error: exponential model overflows the float range at x=1.0\n"
    )
