"""Acceptance suite.

Each test covers one release criterion and prints a single pass/fail
line on the terminal regardless of pytest's capture mode, so a plain
``pytest -v`` run shows the verdict per criterion.
"""

import math
import random
import time

import mpmath
import numpy as np
import pytest
from scipy import stats

from floodgauge.detector import build_baseline
from floodgauge.entropy_core import WindowCounts, compute_entropy, windowize
from floodgauge.metrics import ResidualSeries, evaluate, residual_summary
from floodgauge.pipeline import calibrate, compare_models
from floodgauge.refdata import reference_dataset
from floodgauge.regression import (
    CalibrationDataset,
    ModelKind,
    fit,
    load_model,
    predict,
    residuals,
    save_model,
)
from floodgauge.traffic_sim import ScenarioConfig, simulate, sweep

# the bundled reference sweep, restated so the package data cannot drift
SWEEP_DEVIATIONS = (
    0.149, 0.169, 0.184, 0.192, 0.199, 0.197, 0.195, 0.195, 0.208, 0.212,
    0.233, 0.241, 0.244, 0.253, 0.279, 0.280, 0.299, 0.296, 0.319,
)
SWEEP_STRENGTHS = tuple(float(v) for v in range(10, 101, 5))

# published summary per family: r2, cc, sse, mse, rmse, nmse, eta, mae_index
PUBLISHED = {
    "linear": (0.95, 0.97, 708.13, 37.27, 6.10, 1.32, 0.95, 0.78),
    "polynomial": (0.96, 0.98, 566.31, 29.81, 5.46, 1.06, 0.96, 0.81),
    "logarithmic": (0.96, 0.98, 596.96, 31.42, 5.61, 1.12, 0.96, 0.80),
    "power": (0.89, 0.94, 2643.90, 139.15, 11.80, 4.95, 0.81, 0.59),
    "exponential": (0.84, 0.92, 3995.70, 210.30, 14.50, 7.47, 0.72, 0.51),
}
# wider eta band for the log-linearized fits, whose coefficients do not
# minimise squared error in the original units
ETA_TOL = {"linear": 0.01, "polynomial": 0.01, "logarithmic": 0.01,
           "power": 0.02, "exponential": 0.02}


def _report(capsys, number, name, ok, detail=""):
    line = f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line)


def _sweep_data():
    return CalibrationDataset.from_pairs(zip(SWEEP_DEVIATIONS, SWEEP_STRENGTHS))


def _check_family(report, family):
    r2, cc, sse, mse, rmse, nmse, eta, mae_index = PUBLISHED[family]
    checks = [
        ("sse", report.sse, sse, "rel", 0.05),
        ("mse", report.mse, mse, "rel", 0.05),
        ("rmse", report.rmse, rmse, "rel", 0.05),
        ("r_squared", report.r_squared, r2, "abs", 0.01),
        ("cc", report.cc, cc, "abs", 0.01),
        ("mae_index", report.mae_index, mae_index, "abs", 0.01),
        ("eta", report.eta, eta, "abs", ETA_TOL[family]),
        ("nmse_table2", report.nmse_table2, nmse, "abs", 0.05),
    ]
    failures = []
    for metric, got, want, kind, tol in checks:
        band = tol * abs(want) if kind == "rel" else tol
        if not abs(got - want) <= band:
            failures.append(f"{family}.{metric}: {got:.4f} vs {want} (±{band:.4g})")
    return failures


def test_criterion_1_reference_summary_reproduction(capsys):
    """Refit all five families to the bundled sweep; every published
    metric cell must land in tolerance and the eta ranking must pick
    the polynomial family."""
    detail = ""
    try:
        data = _sweep_data()
        assert reference_dataset().samples == data.samples

        failures = []
        for family in ("linear", "logarithmic", "power", "exponential"):
            model = fit(data, ModelKind(family))
            report = evaluate(data.y.values, [predict(model, x) for x in data.x.values])
            failures += _check_family(report, family)

        chosen_degree = None
        for degree in (2, 3):
            model = fit(data, ModelKind("polynomial", degree))
            report = evaluate(data.y.values, [predict(model, x) for x in data.x.values])
            if not _check_family(report, "polynomial"):
                chosen_degree = degree
                break
        assert chosen_degree is not None, "no polynomial degree in {2, 3} matches"
        assert not failures, "; ".join(failures)

        comparison = compare_models(data, degree=chosen_degree, criterion="eta")
        assert comparison.best_model.tag == "polynomial", comparison.best_model
        detail = f"polynomial degree {chosen_degree}"
    except BaseException:
        _report(capsys, 1, "reference summary reproduction", False)
        raise
    _report(capsys, 1, "reference summary reproduction", True, detail)


def test_criterion_2_metric_identities(capsys):
    """The eight metrics must satisfy their defining identities on 500
    random observation/prediction pairs."""
    try:
        rng = np.random.default_rng(220)
        for _ in range(500):
            n = int(rng.integers(2, 40))
            obs = rng.normal(50.0, 20.0, n)
            comp = obs + rng.normal(0.0, 10.0, n)
            if float(np.ptp(obs)) == 0.0 or float(np.ptp(comp)) == 0.0:
                continue
            r = evaluate(obs, comp)

            sse = float(np.sum((comp - obs) ** 2))
            sst = float(np.sum((obs - np.mean(obs)) ** 2))
            assert math.isclose(r.sse, sse, rel_tol=1e-9)
            assert math.isclose(r.mse, r.sse / n, rel_tol=1e-12)
            assert math.isclose(r.rmse, math.sqrt(r.mse), rel_tol=1e-12)
            assert math.isclose(r.eta, 1.0 - sse / sst, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(r.nmse_eq11, r.mse / float(np.var(obs)), rel_tol=1e-9)
            assert math.isclose(
                r.nmse_table2, r.mse / float(np.std(obs, ddof=1)), rel_tol=1e-9
            )
            assert math.isclose(r.r_squared, r.cc * r.cc, rel_tol=1e-12)
            expected_cc = float(np.corrcoef(comp, obs)[0, 1])
            assert math.isclose(r.cc, expected_cc, rel_tol=1e-9, abs_tol=1e-12)
            assert abs(r.cc) <= 1.0 + 1e-12
            assert math.isclose(
                r.mean_abs_error, float(np.mean(np.abs(comp - obs))), rel_tol=1e-9
            )
            assert r.sample_count == n
    except BaseException:
        _report(capsys, 2, "metric identities", False)
        raise
    _report(capsys, 2, "metric identities", True)


def test_criterion_3_entropy_against_high_precision_oracle(capsys):
    """Window entropy must match a 50-digit arbitrary-precision oracle
    to 1e-12 and stay inside [0, log2(flows)]."""
    try:
        mpmath.mp.dps = 50

        def oracle(values):
            total = mpmath.mpf(0)
            for v in values:
                total += v
            h = mpmath.mpf(0)
            for v in values:
                p = mpmath.mpf(v) / total
                h -= p * mpmath.log(p, 2)
            return float(h)

        def entropy_of(values):
            counts = {f"f{i}": v for i, v in enumerate(values)}
            return compute_entropy(WindowCounts.build(0, counts, 200.0))

        assert entropy_of([5, 5, 5, 5]).value == 2.0
        assert entropy_of([1, 1, 2]).value == 1.5
        assert entropy_of([9, 9]).value == 1.0
        assert entropy_of([7]).value == 0.0
        assert entropy_of([]).value == 0.0
        for n in (2, 3, 7, 16, 41):
            uniform = entropy_of([12345] * n)
            assert abs(uniform.value - math.log2(n)) <= 1e-12

        rng = random.Random(330)
        for i in range(1000):
            n = rng.randint(2, 64)
            if i % 5 == 0:
                # heavy skew: one dominant flow
                values = [rng.randint(1, 50) for _ in range(n - 1)]
                values.append(rng.randint(10**5, 10**6))
            else:
                values = [rng.randint(1, 10**6) for _ in range(n)]
            got = entropy_of(values)
            assert got.flow_count == n
            assert abs(got.value - oracle(values)) <= 1e-12
            assert 0.0 <= got.value <= math.log2(n)
            if i % 7 == 0:
                shuffled = values[:]
                rng.shuffle(shuffled)
                assert entropy_of(shuffled).value == got.value
                assert entropy_of([v * 3 for v in values]).value == got.value
    except BaseException:
        _report(capsys, 3, "entropy oracle", False)
        raise
    _report(capsys, 3, "entropy oracle", True)


def _fitted_space(model, data):
    """Parameter vector and SSE function in the space the family fits in."""
    xs, ys = data.x.values, data.y.values
    tag = model.kind.tag
    if tag in ("linear", "polynomial"):
        params = list(model.coefficients)

        def sse(p):
            total = 0.0
            for x, y in zip(xs, ys):
                acc = 0.0
                for coef in reversed(p):
                    acc = acc * x + coef
                total += (acc - y) ** 2
            return total

        return params, sse
    if tag == "logarithmic":
        params = list(model.coefficients)

        def sse(p):
            return sum((p[0] * math.log(x) + p[1] - y) ** 2 for x, y in zip(xs, ys))

        return params, sse
    if tag == "power":
        params = [math.log(model.coefficients[0]), model.coefficients[1]]

        def sse(p):
            return sum(
                (p[0] + p[1] * math.log(x) - math.log(y)) ** 2
                for x, y in zip(xs, ys)
            )

        return params, sse
    params = [math.log(model.coefficients[0]), model.coefficients[1]]

    def sse(p):
        return sum((p[0] + p[1] * x - math.log(y)) ** 2 for x, y in zip(xs, ys))

    return params, sse


def test_criterion_4_least_squares_optimality(capsys):
    """Fitted coefficients must sit at the squared-error minimum of
    their fitting space: nudging any coefficient, or scanning a grid
    around the pair, must never reduce the SSE."""
    try:
        rng = np.random.default_rng(440)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            xs = rng.uniform(0.05, 3.0, n)
            while len(set(xs.tolist())) < n:
                xs = rng.uniform(0.05, 3.0, n)
            ys = rng.uniform(0.5, 60.0, n)
            data = CalibrationDataset.from_pairs(zip(xs, ys))
            for family in ("linear", "polynomial", "logarithmic", "power", "exponential"):
                model = fit(data, ModelKind(family))
                params, sse = _fitted_space(model, data)
                base = sse(params)
                floor = base - (1e-6 + 1e-9 * base)
                for j in range(len(params)):
                    for sign in (1.0, -1.0):
                        probe = list(params)
                        if probe[j] == 0.0:
                            probe[j] = sign * 1e-3
                        else:
                            probe[j] = probe[j] * (1.0 + sign * 1e-3)
                        assert sse(probe) >= floor, (family, j, sign)
                if len(params) == 2:
                    spans = [abs(p) * 0.05 + 0.1 for p in params]
                    for da in np.linspace(-spans[0], spans[0], 11):
                        for db in np.linspace(-spans[1], spans[1], 11):
                            probe = [params[0] + da, params[1] + db]
                            assert sse(probe) >= floor, (family, da, db)
    except BaseException:
        _report(capsys, 4, "least-squares optimality", False)
        raise
    _report(capsys, 4, "least-squares optimality", True)


def test_criterion_5_end_to_end_sweep(capsys):
    """A fresh simulated sweep must calibrate into deviations that rank
    with strength (Spearman >= 0.9) and support holdout estimation
    within 10 Mbps mean absolute error, in under 30 seconds."""
    detail = ""
    try:
        started = time.monotonic()
        base = ScenarioConfig(num_windows=30, seed=20260819)
        clean = simulate(
            ScenarioConfig(zombies=0, num_windows=30, seed=base.seed + 1)
        )
        windows = windowize(clean.records, clean.window_length_ms)
        baseline = build_baseline([compute_entropy(w) for w in windows])

        runs = sweep(base, SWEEP_STRENGTHS)
        data = calibrate(runs, baseline)
        assert len(data.samples) == 19

        rho = stats.spearmanr(data.x.values, data.y.values)[0]
        assert rho >= 0.9, f"spearman {rho:.3f}"

        train = CalibrationDataset(data.samples[1::2])
        test = data.samples[0::2]
        model = fit(train, ModelKind("polynomial", 2))
        mae = sum(abs(predict(model, s.x) - s.y) for s in test) / len(test)
        assert mae <= 10.0, f"holdout MAE {mae:.2f} Mbps"

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"
        detail = f"spearman {rho:.3f}, holdout MAE {mae:.2f} Mbps, {elapsed:.1f}s"
    except BaseException:
        _report(capsys, 5, "end-to-end sweep", False)
        raise
    _report(capsys, 5, "end-to-end sweep", True, detail)


def test_criterion_6_residual_convention(capsys):
    """Residuals are predicted minus observed; sign counts must cover
    every sample and flip when the convention flips."""
    try:
        data = _sweep_data()
        model = fit(data, ModelKind("linear"))
        series = residuals(model, data)
        assert len(series.values) == 19
        assert series.positive_count + series.negative_count + series.zero_count == 19
        assert series.values[0] == predict(model, data.samples[0].x) - data.samples[0].y
        # a least-squares line must both over- and under-estimate
        assert series.positive_count > 0
        assert series.negative_count > 0

        flipped = ResidualSeries.from_values([-v for v in series.values])
        assert flipped.positive_count == series.negative_count
        assert flipped.negative_count == series.positive_count
        assert flipped.zero_count == series.zero_count

        pos, neg, max_abs = residual_summary(series)
        assert (pos, neg) == (series.positive_count, series.negative_count)
        assert max_abs == max(abs(v) for v in series.values)
    except BaseException:
        _report(capsys, 6, "residual convention", False)
        raise
    _report(capsys, 6, "residual convention", True)


def test_criterion_7_persistence_round_trip(capsys, tmp_path):
    """Saving and reloading a model must reproduce its predictions
    bit for bit."""
    try:
        data = _sweep_data()
        probes = list(SWEEP_DEVIATIONS) + [0.05, 0.125, 0.21, 0.333, 0.5]
        for family in ("linear", "polynomial", "logarithmic", "power", "exponential"):
            model = fit(data, ModelKind(family))
            path = tmp_path / f"{family}.json"
            save_model(path, model)
            loaded = load_model(path)
            assert loaded.coefficients == model.coefficients
            for x in probes:
                assert predict(loaded, x) == predict(model, x), (family, x)
    except BaseException:
        _report(capsys, 7, "persistence round trip", False)
        raise
    _report(capsys, 7, "persistence round trip", True)
