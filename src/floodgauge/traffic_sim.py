"""Synthetic flow traffic for a flooding scenario.

Legitimate clients send Poisson-distributed byte volumes per window;
zombies flood at a fixed deterministic rate. The generator is seeded so
every run is reproducible, and a sweep derives one run per attack
strength from a base configuration. numpy's default stream is also kept
here in pure Python, bit for bit, so that a small run needs no numpy.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import asdict, dataclass, fields, replace
from itertools import compress, cycle, islice, repeat
from operator import index

# read_series and write_series live beside the flow CSV codec; perfbench names them here
from .entropy_core import FlowRecordSeries, read_series, write_series
from .errors import ConfigError, brief_repr
from .fileio import json_number

GENERATOR_NAME = "numpy-pcg64"
LEGIT_PREFIX = "legit-"
ZOMBIE_PREFIX = "zombie-"

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
# beyond 2**53 byte counts lose integer precision in float draws
_MAX_BYTES_PER_WINDOW = 2**53
# a run of at most this many windows x flows draws from _poisson_draws, not numpy: in a
# fresh process the pure draws beat numpy's import past 40,000 cells, but in one that holds
# numpy already they cost about 1.5 us a cell more, so runs of 20,000 cells keep numpy's
_NUMPY_FREE_CELLS = 10_000


def _window_bytes(rate_mbps: float, window_length_ms: float) -> float:
    return rate_mbps * (window_length_ms / 1000.0) * 1e6 / 8.0


def _zombie_bytes(cfg: ScenarioConfig) -> int:
    """The bytes every zombie sends in each window: its rate's window volume, rounded."""
    return round(_window_bytes(cfg.attack_rate_mbps_per_zombie, cfg.window_length_ms))


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated run.

    Counts and the seed are kept as ``operator.index`` of what is given, and rates
    and the window length as floats, so numpy numbers become Python ones; a bool,
    or a number of the other kind, is refused.
    """

    legit_clients: int = 400
    zombies: int = 100
    attack_rate_mbps_per_zombie: float = 0.1
    legit_mean_rate_mbps_per_client: float = 1.0
    window_length_ms: float = 200.0
    num_windows: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            # a count or the seed has an int default, a rate or length a float one
            value, whole = getattr(self, field.name), isinstance(field.default, int)
            try:
                if isinstance(value, bool):
                    raise TypeError
                value = index(value) if whole else json_number(value)
            except (TypeError, ValueError, OverflowError):
                kind = "an integer" if whole else "a number"
                raise ConfigError(f"{field.name} must be {kind}, got {brief_repr(value)}") from None
            object.__setattr__(self, field.name, value)
        if self.legit_clients < 0:
            raise ConfigError(f"legit_clients must be >= 0, got {self.legit_clients}")
        if self.zombies < 0:
            raise ConfigError(f"zombies must be >= 0, got {self.zombies}")
        if not math.isfinite(self.window_length_ms) or self.window_length_ms <= 0:
            raise ConfigError(
                f"window_length_ms must be positive, got {self.window_length_ms}"
            )
        if self.num_windows < 1:
            raise ConfigError(f"num_windows must be >= 1, got {self.num_windows}")
        for name in ("attack_rate_mbps_per_zombie", "legit_mean_rate_mbps_per_client"):
            rate = getattr(self, name)
            if not math.isfinite(rate) or rate < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {rate}")
            per_window = _window_bytes(rate, self.window_length_ms)
            if per_window > _MAX_BYTES_PER_WINDOW:
                raise ConfigError(
                    f"{name} yields {per_window:.3g} bytes per window, "
                    f"beyond the exact-integer range"
                )
        per_zombie = _window_bytes(self.attack_rate_mbps_per_zombie, self.window_length_ms)
        if self.zombies > 0 and per_zombie > 0 and _zombie_bytes(self) == 0:
            raise ConfigError(f"attack_rate_mbps_per_zombie yields {per_zombie:.3g} bytes per "
                              f"window, which rounds to 0; a rate of 0 disables the attack")

    @property
    def attack_strength_mbps(self) -> float:
        """Aggregate attack rate over all zombies."""
        return self.zombies * self.attack_rate_mbps_per_zombie

    @property
    def peak_strength_mbps(self) -> float:
        """Aggregate attack rate at which window entropy peaks: zombies as fast as clients."""
        return self.zombies * self.legit_mean_rate_mbps_per_client


def expected_deviation(cfg: ScenarioConfig) -> float:
    """Closed-form mean deviation of a run's windows from a clean run's, in bits.

    Poisson noise aside, a window holds N legit flows of r bytes and Z zombie
    flows of a bytes, so its entropy is log2 T - (N r log2 r + Z a log2 a) / T
    with T = N r + Z a; a clean run's is log2 N.
    """
    r = _window_bytes(cfg.legit_mean_rate_mbps_per_client, cfg.window_length_ms)
    a = _zombie_bytes(cfg)

    def entropy(zombies: int) -> float:
        groups = [(cfg.legit_clients, r), (zombies, a)]
        t = math.fsum(n * b for n, b in groups)
        spread = math.fsum(n * b * math.log2(b) for n, b in groups if n * b)
        return math.log2(t) - spread / t if t else 0.0

    return entropy(cfg.zombies) - entropy(0)


@functools.lru_cache(maxsize=8)
def _flow_ids(legit_clients: int, zombies: int) -> tuple[str, ...]:
    """A run's flow ids, legit clients first."""
    legit = [f"{LEGIT_PREFIX}{i:04d}" for i in range(legit_clients)]
    return tuple(legit + [f"{ZOMBIE_PREFIX}{i:04d}" for i in range(zombies)])


# numpy's default stream, np.random.default_rng(seed), in pure Python and bit for bit:
# SeedSequence seeds PCG64, whose words give next_double, whose doubles random_poisson takes
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_LOGGAM_COEFFICIENTS = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e+00,
)


def _seed_hash(const: int, step: int) -> Callable[[int], int]:
    """SeedSequence's 32-bit hash: each call xors a word with the constant, steps the
    constant by ``step``, multiplies by it and folds the high half into the low."""
    def hashed(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * step & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashed


def _generate_state(entropy: Sequence[int], n_words: int) -> list[int]:
    """np.random.SeedSequence(entropy).generate_state(n_words, np.uint64), as ints.

    Each int >= 0 gives its 32-bit words, low first (0 gives one); the words are
    hashed into a pool of four and mixed, and the pool is hashed out again.
    """
    words = [n >> shift & _MASK32 for n in entropy
             for shift in range(0, max(n.bit_length(), 1), 32)]
    hashmix = _seed_hash(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = list(map(_seed_hash(0x8B51F9DD, 0x58F38DED), islice(cycle(pool), 2 * n_words)))
    return [low | high << 32 for low, high in zip(out[::2], out[1::2])]


def _pcg64_words(seed: int) -> Iterator[int]:
    """np.random.PCG64(seed)'s 64-bit words: the 128-bit state and increment seeded from
    SeedSequence(seed), then per word one LCG step and the XSL-RR output (O'Neill 2014)."""
    state_high, state_low, inc_high, inc_low = _generate_state((seed,), 4)
    inc = (inc_high << 64 | inc_low) << 1 & _MASK128 | 1
    state = (inc + (state_high << 64 | state_low)) * _PCG64_MULTIPLIER + inc & _MASK128
    while True:
        state = state * _PCG64_MULTIPLIER + inc & _MASK128
        word, rot = (state >> 64 ^ state) & _SEED_MASK, state >> 122
        yield (word >> rot | word << 64 - rot) & _SEED_MASK


def _doubles(seed: int) -> Iterator[float]:
    """numpy's next_double of each PCG64 word: its top 53 bits over 2**53, in [0, 1)."""
    return ((word >> 11) * 2.0**-53 for word in _pcg64_words(seed))


def _loggam(x: float) -> float:
    """numpy's random_loggam: log Gamma(x) by Stirling's series, shifted up to 7."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM_COEFFICIENTS[9]
    for coefficient in _LOGGAM_COEFFICIENTS[8::-1]:
        gl0 *= x2
        gl0 += coefficient
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


def _poisson_multiplication(double: Callable[[], float], lam: float) -> Iterator[int]:
    """numpy's draws below lam 10: count the doubles whose running product stays above e**-lam."""
    enlam = math.exp(-lam)
    while True:
        k, product = 0, double()
        while product > enlam:
            k += 1
            product *= double()
        yield k


def _poisson_ptrs(double: Callable[[], float], lam: float) -> Iterator[int]:
    """numpy's draws from lam 10: the transformed rejection method PTRS (Hörmann 1993)."""
    slam, loglam = math.sqrt(lam), math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_invalpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2)
    while True:
        u = double() - 0.5
        v = double()
        us = 0.5 - abs(u)
        if us == 0.0:  # numpy's k is floor(-inf) cast to int64, which is negative: refused
            continue
        k = math.floor((2 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            yield k
            continue
        if k < 0 or k >= 1 << 63 or (us < 0.013 and v > us):  # numpy's int64 k: past it, < 0
            continue
        # C's log(0) is -inf, so v = 0 accepts k
        if v == 0.0 or (math.log(v) + log_invalpha - math.log(a / (us * us) + b)
                        <= -lam + k * loglam - _loggam(k + 1)):
            yield k


def _poisson_draws(seed: int, lam: float) -> Iterator[int]:
    """np.random.default_rng(seed).poisson(lam, n)'s draws in order, for any n, bit for bit:
    numpy's random_poisson, 0 at lam 0 and one of two methods above it."""
    if lam == 0:
        return repeat(0)
    method = _poisson_ptrs if lam >= 10 else _poisson_multiplication
    return method(_doubles(seed).__next__, lam)


def _drawn_rows(
    cfg: ScenarioConfig, draws: Iterator[int], flow_ids: tuple[str, ...]
) -> Iterator[tuple[int, tuple[str, ...], tuple[int, ...]]]:
    """Each window's (window, flow ids, counts) row, its legit counts the next draws,
    legit clients first, zero counts and windows with no count dropped, as from_volumes
    drops them."""
    legit = flow_ids[:cfg.legit_clients]
    zombie_bytes = _zombie_bytes(cfg)
    zombies = flow_ids[cfg.legit_clients:] if zombie_bytes else ()
    attack = (zombie_bytes,) * len(zombies)
    for w in range(cfg.num_windows):
        counts = list(islice(draws, cfg.legit_clients))
        ids = tuple(compress(legit, counts)) + zombies
        if ids:
            yield w, ids, tuple(filter(None, counts)) + attack


def simulate(cfg: ScenarioConfig) -> FlowRecordSeries:
    """Generate one run of per-window flow byte counts.

    Legit client volumes are Poisson draws around the configured mean
    rate; every zombie sends the same rounded byte volume each window.
    Zero-byte draws produce no record. A run of at most _NUMPY_FREE_CELLS
    windows x flows draws the same numbers without numpy and is kept as
    per-window rows; a larger one keeps numpy's count matrix.
    """
    seed = cfg.seed & _SEED_MASK
    lam = _window_bytes(cfg.legit_mean_rate_mbps_per_client, cfg.window_length_ms)
    metadata = {
        "config": asdict(cfg),
        "generator": GENERATOR_NAME,
        "seed": seed,
        "flow_labels": {"legit": LEGIT_PREFIX, "zombie": ZOMBIE_PREFIX},
    }
    flow_ids = _flow_ids(cfg.legit_clients, cfg.zombies)
    if cfg.num_windows * len(flow_ids) <= _NUMPY_FREE_CELLS:
        rows = _drawn_rows(cfg, _poisson_draws(seed, lam), flow_ids)
        return FlowRecordSeries._from_window_rows(flow_ids, rows, metadata)
    import numpy as np  # here, not at module top: loading the package needs no numpy
    rng = np.random.default_rng(seed)
    # one column per flow, legit clients first
    volumes = np.hstack([
        rng.poisson(lam, size=(cfg.num_windows, cfg.legit_clients)),
        np.full((cfg.num_windows, cfg.zombies), _zombie_bytes(cfg), dtype=np.int64),
    ])
    return FlowRecordSeries.from_volumes(flow_ids, volumes, metadata)


class _SweepRuns(Sequence):
    """A sweep's ``(strength, series)`` runs; each read simulates its run anew."""

    def __init__(self, configs: tuple[tuple[float, ScenarioConfig], ...]) -> None:
        self._configs = configs

    def __len__(self) -> int:
        return len(self._configs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _SweepRuns(self._configs[index])
        strength, cfg = self._configs[index]
        return strength, simulate(cfg)


def sweep(
    base: ScenarioConfig, strengths_mbps: Sequence[float]
) -> Sequence[tuple[float, FlowRecordSeries]]:
    """One run per aggregate attack strength, simulated each time it is read.

    Each run keeps the base scenario but divides the requested aggregate
    strength evenly across the zombies. Child runs get independent seeds
    derived from the base seed and the run's position. Every strength is
    checked here, but no run is kept: hold ``list(runs)`` to reuse them.
    """
    if base.zombies <= 0:
        raise ConfigError("sweep needs a scenario with zombies > 0")
    configs = []
    for i, strength in enumerate(strengths_mbps):
        if not math.isfinite(strength) or strength <= 0:
            raise ConfigError(f"sweep strengths must be positive, got {strength}")
        child_seed, = _generate_state((base.seed & _SEED_MASK, i), 1)
        try:
            cfg = replace(
                base, attack_rate_mbps_per_zombie=strength / base.zombies, seed=child_seed
            )
        except ConfigError as exc:
            raise ConfigError(
                f"sweep strength {strength} Mbps over {base.zombies} zombies: {exc}"
            ) from None
        configs.append((float(strength), cfg))
    return _SweepRuns(tuple(configs))
