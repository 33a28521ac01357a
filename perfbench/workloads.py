"""The four benchmark workloads.

Each workload has an untimed ``setup`` that makes its inputs from the
seed, a timed ``run_pass`` that does one job through floodgauge's public
API or CLI and writes its outputs into a fresh directory, a ``check`` of
those outputs that returns a list of problems (empty when correct), and
a ``corrupt`` that damages one output so the self-test can prove the
check trips. Calls go through module attributes (``pipeline.run_events``)
so that the tracer sees them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from floodgauge import (
    detector,
    entropy_core,
    pipeline,
    refdata,
    regression,
    traffic_sim,
)


def derived_seeds(seed: int, count: int) -> list[int]:
    """Independent child seeds, so one workload seed fixes every input."""
    state = np.random.SeedSequence(seed).generate_state(count, np.uint32)
    return [int(s) for s in state]


def clean_baseline(legit_clients: int, windows: int, seed: int) -> detector.Baseline:
    """Baseline learned from a separate attack-free run."""
    cfg = traffic_sim.ScenarioConfig(
        legit_clients=legit_clients, zombies=0, num_windows=windows, seed=seed
    )
    series = traffic_sim.simulate(cfg)
    windows = entropy_core.windowize(series.records, cfg.window_length_ms)
    return detector.build_baseline([entropy_core.compute_entropy(w) for w in windows])


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class CaptureDetect:
    """Offline analysis of one large capture.

    CSV parsing, windowize and compute_entropy do almost all the work;
    flagged and unflagged windows both occur; no simulation in a pass.
    """

    def __init__(self, tiny: bool) -> None:
        self.legit, self.zombies = (40, 10) if tiny else (400, 100)
        self.half_windows = 10 if tiny else 250
        self.training_windows = 10 if tiny else 50
        # 0.5 Mbps per zombie: 50 Mbps aggregate at full size
        self.rate_per_zombie = 0.5

    def setup(self, seed: int, workdir: Path) -> None:
        clean_seed, attack_seed, train_seed = derived_seeds(seed, 3)
        clean = traffic_sim.simulate(traffic_sim.ScenarioConfig(
            legit_clients=self.legit, zombies=0,
            num_windows=self.half_windows, seed=clean_seed))
        attack_cfg = traffic_sim.ScenarioConfig(
            legit_clients=self.legit, zombies=self.zombies,
            attack_rate_mbps_per_zombie=self.rate_per_zombie,
            num_windows=self.half_windows, seed=attack_seed)
        attack = traffic_sim.simulate(attack_cfg)
        shift = self.half_windows
        records = clean.records + tuple(
            entropy_core.FlowRecord(r.window_index + shift, r.flow_id, r.bytes)
            for r in attack.records
        )
        config = dict(clean.metadata["config"], num_windows=2 * shift)
        metadata = {"config": config, "segments": [clean.metadata, attack.metadata]}
        self.capture = workdir / "capture.csv"
        traffic_sim.write_series(self.capture, traffic_sim.FlowRecordSeries(records, metadata))
        self.expected_h = self._reference_entropies(records, 2 * shift)
        self.expected_flagged = set(range(shift, 2 * shift))
        self.baseline = clean_baseline(self.legit, self.training_windows, train_seed)
        self.model = regression.fit(
            refdata.reference_dataset(), regression.ModelKind("polynomial", 2))
        self.setup_files = [self.capture, self.capture.with_suffix(".meta.json")]

    @staticmethod
    def _reference_entropies(records, num_windows: int) -> np.ndarray:
        """Per-window entropy in bits, computed with numpy from the records."""
        window = np.fromiter((r.window_index for r in records), np.int64, len(records))
        nbytes = np.fromiter((r.bytes for r in records), np.float64, len(records))
        if len({(r.window_index, r.flow_id) for r in records}) != len(records):
            raise ValueError("generated capture repeats a (window, flow) pair")
        h = np.zeros(num_windows)
        bounds = np.searchsorted(window, np.arange(num_windows + 1))
        for w in range(num_windows):
            c = nbytes[bounds[w]:bounds[w + 1]]
            if len(c) > 1:
                p = c / c.sum()
                h[w] = -np.sum(p * np.log2(p))
        return h

    def run_pass(self, outdir: Path) -> None:
        series = traffic_sim.read_series(self.capture)
        events = pipeline.run_events(series, self.baseline)
        estimates = pipeline.estimate_strength(self.model, events)
        detector.write_events_csv(outdir / "events.csv", events)
        pipeline.write_estimates_csv(outdir / "estimates.csv", estimates)

    def check(self, outdir: Path) -> list[str]:
        problems = []
        rows = read_rows(outdir / "events.csv")[1:]
        if len(rows) != len(self.expected_h):
            return [f"events.csv has {len(rows)} windows, expected {len(self.expected_h)}"]
        h_c = np.array([float(r[1]) for r in rows])
        worst = float(np.max(np.abs(h_c - self.expected_h)))
        if worst > 1e-12:
            problems.append(f"h_c differs from the numpy entropy by {worst:.3g}")
        flagged = {int(r[0]) for r in rows if r[3] == "true"}
        if flagged != self.expected_flagged:
            problems.append(f"{len(flagged ^ self.expected_flagged)} windows flagged wrongly")
        estimated = {int(r[0]) for r in read_rows(outdir / "estimates.csv")[1:]}
        if estimated != flagged:
            problems.append("estimates do not cover exactly the flagged windows")
        return problems

    def corrupt(self, outdir: Path) -> None:
        path = outdir / "events.csv"
        path.write_text(path.read_text().replace("true", "false", 1))


class SweepCalibrate:
    """The calibration job, entirely in memory.

    simulate dominates and no flow CSV is read, so a simulator change
    shows here and a parser change does not.
    """

    def __init__(self, tiny: bool) -> None:
        self.legit, self.zombies = (40, 10) if tiny else (400, 100)
        self.windows = 5 if tiny else 50
        # 19 strengths on the rising side: 10..100 Mbps full size, where a
        # zombie never outpaces a legit client, so deviation stays monotone
        top = self.zombies * 1.0
        self.strengths = [top * k / 20 for k in range(2, 21)]

    def setup(self, seed: int, workdir: Path) -> None:
        sweep_seed, train_seed = derived_seeds(seed, 2)
        self.base = traffic_sim.ScenarioConfig(
            legit_clients=self.legit, zombies=self.zombies,
            num_windows=self.windows, seed=sweep_seed)
        self.baseline = clean_baseline(self.legit, self.windows, train_seed)
        self.setup_files = []

    def run_pass(self, outdir: Path) -> None:
        runs = traffic_sim.sweep(self.base, self.strengths)
        data = pipeline.calibrate(runs, self.baseline)
        report = pipeline.compare_models(data)
        regression.fit(data, report.best_model)
        pipeline.write_calibration_csv(outdir / "calibration.csv", data)

    def check(self, outdir: Path) -> list[str]:
        rows = [(float(d), float(s)) for d, s in read_rows(outdir / "calibration.csv")[1:]]
        if [s for _, s in rows] != self.strengths:
            return [f"calibration has strengths {[s for _, s in rows]}"]
        devs = [d for d, _ in rows]
        if any(b <= a for a, b in zip(devs, devs[1:])):
            return ["deviation is not strictly increasing in strength"]
        return []

    def corrupt(self, outdir: Path) -> None:
        path = outdir / "calibration.csv"
        lines = path.read_text().splitlines()
        first, second = lines[1].split(","), lines[2].split(",")
        lines[1], lines[2] = f"{second[0]},{first[1]}", f"{first[0]},{second[1]}"
        path.write_text("\n".join(lines) + "\n")


class ModelSelect:
    """Fitting and scoring with no traffic at all.

    regression, metrics and refdata take under 1% of the other workloads'
    pass time, so only this one measures them.
    """

    JITTER_SD = 0.005

    def __init__(self, tiny: bool) -> None:
        self.jitters = 2 if tiny else 30

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        base = np.array(refdata.REFERENCE_DEVIATIONS)
        self.datasets = [
            regression.CalibrationDataset.from_pairs(zip(
                base + rng.normal(0.0, self.JITTER_SD, base.shape),
                refdata.REFERENCE_STRENGTHS_MBPS))
            for _ in range(self.jitters)
        ]
        self.setup_files = []

    def run_pass(self, outdir: Path) -> None:
        self.fitted, self.loaded, self.residuals = [], [], []
        for j, data in enumerate(self.datasets):
            reports = [pipeline.compare_models(data, degree=d) for d in range(1, 7)]
            best = max(reports, key=lambda r: r.reports[r.best_model.tag].eta)
            model = best.fitted[best.best_model.tag]
            self.residuals.append(regression.residuals(model, data))
            path = outdir / f"model-{j:02d}.json"
            regression.save_model(path, model)
            self.fitted.append(model)
            self.loaded.append(regression.load_model(path))
        self.reproduction = refdata.check_reference_reproduction()

    def check(self, outdir: Path) -> list[str]:
        problems = []
        if not self.reproduction.ok:
            bad = [f"{c.family}.{c.metric}" for c in self.reproduction.checks if not c.ok]
            problems.append(f"reference reproduction failed: {bad or 'best family'}")
        for j, (model, loaded) in enumerate(zip(self.fitted, self.loaded)):
            stored = json.loads((outdir / f"model-{j:02d}.json").read_text())
            if (loaded.kind != model.kind or loaded.coefficients != model.coefficients
                    or tuple(stored["coefficients"]) != model.coefficients):
                problems.append(f"model-{j:02d}.json does not round-trip")
        for residuals in self.residuals:
            if len(residuals.values) != len(refdata.REFERENCE_DEVIATIONS):
                problems.append("residual series has the wrong length")
        return problems

    def corrupt(self, outdir: Path) -> None:
        path = outdir / "model-00.json"
        stored = json.loads(path.read_text())
        stored["coefficients"][0] += 1.0
        path.write_text(json.dumps(stored))


class ReadmeWorkflow:
    """The README quick start, one fresh CLI process per command.

    The only workload through the CLI, sidecars and JSON files; tiny
    inputs, so interpreter start-up and per-call overheads dominate.
    """

    def __init__(self, tiny: bool) -> None:
        self.commands: list[tuple[str, float, float, int, str]] = []

    def setup(self, seed: int, workdir: Path) -> None:
        clean, atk02, atk06, atk10 = (str(s) for s in derived_seeds(seed, 4))
        self.script = [
            ["simulate", "--out", "clean.csv", "--legit-clients", "60", "--zombies", "0",
             "--windows", "12", "--seed", clean],
            ["baseline", "--flows", "clean.csv", "--out", "baseline.json"],
            ["simulate", "--out", "atk02.csv", "--legit-clients", "60", "--zombies", "10",
             "--attack-rate", "0.2", "--seed", atk02],
            ["simulate", "--out", "atk06.csv", "--legit-clients", "60", "--zombies", "10",
             "--attack-rate", "0.6", "--seed", atk06],
            ["simulate", "--out", "atk10.csv", "--legit-clients", "60", "--zombies", "10",
             "--attack-rate", "1.0", "--seed", atk10],
            ["calibrate", "--baseline", "baseline.json", "--out", "cal.csv",
             "--run", "2=atk02.csv", "--run", "6=atk06.csv", "--run", "10=atk10.csv"],
            ["compare", "--data", "cal.csv", "--out-csv", "report.csv",
             "--out-json", "report.json"],
            ["fit", "--data", "cal.csv", "--model", "polynomial", "--degree", "2",
             "--out", "model.json"],
            ["evaluate", "--model", "model.json", "--data", "cal.csv",
             "--out-json", "evaluation.json"],
            ["estimate", "--model", "model.json", "--events", "cal.csv",
             "--out", "estimates.csv"],
            ["reproduce-table2"],
        ]
        self.setup_files = []

    def run_pass(self, outdir: Path) -> None:
        self.commands = []
        for argv in self.script:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "floodgauge.cli", *argv],
                cwd=outdir, capture_output=True, text=True, check=False)
            end = time.perf_counter()
            self.commands.append((argv[0], start, end, proc.returncode, proc.stdout))

    def check(self, outdir: Path) -> list[str]:
        problems = [f"{name} exited {code}" for name, _, _, code, _ in self.commands if code]
        if "reproduction: PASS" not in self.commands[-1][4]:
            problems.append("reproduce-table2 did not print PASS")
        calibration = read_rows(outdir / "cal.csv")[1:]
        if len(read_rows(outdir / "estimates.csv")[1:]) != len(calibration):
            problems.append("estimates.csv does not hold one row per calibration sample")
        return problems

    def corrupt(self, outdir: Path) -> None:
        path = outdir / "estimates.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))

    @staticmethod
    def import_seconds() -> float:
        """Fresh interpreter start until ``import floodgauge.cli`` finishes."""
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c",
             "import floodgauge.cli, time; print(repr(time.monotonic()))"],
            capture_output=True, text=True, check=True).stdout
        return float(out) - start


WORKLOADS = {
    "capture-detect": CaptureDetect,
    "sweep-calibrate": SweepCalibrate,
    "model-select": ModelSelect,
    "readme-workflow": ReadmeWorkflow,
}


def output_digest(files) -> dict[str, str]:
    """sha256 of each file, with a model's ``created_at`` stamp left out."""
    digests = {}
    for path in sorted(files):
        data = Path(path).read_bytes()
        if path.suffix == ".json" and b'"created_at"' in data:
            obj = json.loads(data)
            obj.pop("created_at")
            data = json.dumps(obj, sort_keys=True).encode()
        digests[Path(path).name] = hashlib.sha256(data).hexdigest()
    return digests
