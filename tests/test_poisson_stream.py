"""traffic_sim's pure-Python copy of numpy's default stream, against the installed numpy.

SeedSequence, PCG64, next_double and random_poisson are each checked against numpy,
and a run small enough to draw without numpy against the same run drawn by numpy.
"""

import math
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodgauge import traffic_sim
from floodgauge.traffic_sim import (
    ScenarioConfig,
    _doubles,
    _generate_state,
    _pcg64_words,
    _poisson_draws,
    _poisson_ptrs,
    simulate,
    sweep,
    write_series,
)

seeds = st.integers(0, 2**64 - 1)
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
RANDOM_SEEDS = [random.Random(34 + i).getrandbits(64) for i in range(3)]


def numpy_child_seed(seed, i):
    """sweep's child seed as numpy derives it."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("seed", EDGE_SEEDS + RANDOM_SEEDS)
def test_sweep_child_seeds_are_numpys(seed):
    assert [_generate_state((seed, i), 1)[0] for i in range(1001)] == [
        numpy_child_seed(seed, i) for i in range(1001)]


def test_sweep_gives_each_run_numpys_child_seed():
    base = ScenarioConfig(legit_clients=2, zombies=1, num_windows=1, seed=2**64 - 1)
    runs = sweep(base, [1.0] * 12)
    assert [series.metadata["seed"] for _, series in runs] == [
        numpy_child_seed(2**64 - 1, i) for i in range(12)]


@settings(max_examples=60, database=None, deadline=None)
@given(entropy=st.lists(st.one_of(seeds, st.integers(0, 2**200)), min_size=1, max_size=6),
       n_words=st.integers(1, 9))
@example(entropy=[0], n_words=4)
def test_generate_state_is_seed_sequences(entropy, n_words):
    expected = np.random.SeedSequence(entropy).generate_state(n_words, np.uint64).tolist()
    assert _generate_state(entropy, n_words) == expected


@settings(max_examples=60, database=None, deadline=None)
@given(seed=seeds, n=st.integers(0, 50))
@example(seed=2**64 - 1, n=5)
def test_pcg64_words_and_doubles_are_numpys(seed, n):
    assert list(islice(_pcg64_words(seed), n)) == np.random.PCG64(seed).random_raw(n).tolist()
    assert list(islice(_doubles(seed), n)) == np.random.default_rng(seed).random(n).tolist()


lams = st.one_of(
    st.just(0.0),
    st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
    st.just(10.0),
    st.floats(10.0, 2.0**53),
)


@settings(max_examples=200, database=None, deadline=None)
@given(seed=seeds, lam=lams, n=st.integers(0, 60))
@example(seed=0, lam=0.0, n=5)
@example(seed=2**64 - 1, lam=math.nextafter(10.0, 0.0), n=40)
@example(seed=2**32, lam=10.0, n=40)
@example(seed=21, lam=25_000.0, n=60)  # the README runs' bytes per client and window
@example(seed=5, lam=2.0**53, n=40)
def test_poisson_draws_are_numpys(seed, lam, n):
    expected = np.random.default_rng(seed).poisson(lam, n).tolist()
    assert list(islice(_poisson_draws(seed, lam), n)) == expected


def test_ptrs_takes_doubles_numpys_c_takes_without_a_fault():
    # a first double of 0 gives u = -0.5: C's k is floor(-inf), negative, so the pair is refused
    assert next(_poisson_ptrs(iter([0.0, 0.3, 0.5, 0.5]).__next__, 100.0)) == 100
    # v = 0 past the quick accept: C's log(0) is -inf, so k is accepted
    assert next(_poisson_ptrs(iter([0.0, 0.3, 0.97, 0.0]).__next__, 100.0)) == 131


def run_view(series, path):
    """Everything a run shows, entropies by value hex; its files written at path."""
    write_series(path, series)
    return (
        list(series._per_window(summed=False)),
        [(e.value.hex(), e.flow_count) for e in series.entropies()],
        path.read_bytes(),
        path.with_suffix(".meta.json").read_bytes(),
        series.record_count,
        series.metadata,
    )


@settings(max_examples=60, database=None, deadline=None)
@given(
    legit=st.integers(0, 30),
    zombies=st.integers(0, 5),
    # 1e-5 Mbps is a quarter byte per window, so most draws are zero; 5e-4 Mbps is
    # about 12 bytes, just past the multiplication method
    legit_rate=st.sampled_from([0.0, 1e-5, 2e-4, 5e-4, 1.0]),
    attack_rate=st.sampled_from([0.0, 4e-5, 0.2]),
    windows=st.integers(1, 40),
    seed=seeds,
)
@example(legit=60, zombies=10, legit_rate=1.0, attack_rate=0.2, windows=50, seed=21)
def test_a_small_run_drawn_without_numpy_is_numpys_run(
    tmp_path_factory, legit, zombies, legit_rate, attack_rate, windows, seed
):
    cfg = ScenarioConfig(legit_clients=legit, zombies=zombies,
                         legit_mean_rate_mbps_per_client=legit_rate,
                         attack_rate_mbps_per_zombie=attack_rate, num_windows=windows, seed=seed)
    assert windows * (legit + zombies) <= traffic_sim._NUMPY_FREE_CELLS
    tmp = tmp_path_factory.mktemp("runs")
    pure = simulate(cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traffic_sim, "_NUMPY_FREE_CELLS", 0)
        drawn_by_numpy = simulate(cfg)
    assert pure._volumes is None
    assert drawn_by_numpy._volumes is not None or legit + zombies == 0
    assert run_view(pure, tmp / "pure.csv") == run_view(drawn_by_numpy, tmp / "numpy.csv")


def test_runs_past_the_threshold_keep_numpys_count_matrix():
    cells = traffic_sim._NUMPY_FREE_CELLS
    at = simulate(ScenarioConfig(legit_clients=cells // 50 - 1, zombies=1, num_windows=50))
    past = simulate(ScenarioConfig(legit_clients=cells // 50, zombies=1, num_windows=50))
    assert at._volumes is None and past._volumes is not None
