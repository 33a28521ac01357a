"""Synthetic flow traffic for a flooding scenario.

Legitimate clients send Poisson-distributed byte volumes per window;
zombies flood at a fixed deterministic rate. The generator is seeded so
every run is reproducible, and a sweep derives one run per attack
strength from a base configuration.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, fields, replace
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


def simulate(cfg: ScenarioConfig) -> FlowRecordSeries:
    """Generate one run of per-window flow byte counts.

    Legit client volumes are Poisson draws around the configured mean
    rate; every zombie sends the same rounded byte volume each window.
    Zero-byte draws produce no record.
    """
    import numpy as np  # here, not at module top: loading the package needs no numpy
    seed = cfg.seed & _SEED_MASK
    rng = np.random.default_rng(seed)
    lam = _window_bytes(cfg.legit_mean_rate_mbps_per_client, cfg.window_length_ms)
    # one column per flow, legit clients first
    volumes = np.hstack([
        rng.poisson(lam, size=(cfg.num_windows, cfg.legit_clients)),
        np.full((cfg.num_windows, cfg.zombies), _zombie_bytes(cfg), dtype=np.int64),
    ])
    metadata = {
        "config": asdict(cfg),
        "generator": GENERATOR_NAME,
        "seed": seed,
        "flow_labels": {"legit": LEGIT_PREFIX, "zombie": ZOMBIE_PREFIX},
    }
    flow_ids = _flow_ids(cfg.legit_clients, cfg.zombies)
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
    import numpy as np  # here, not at module top: loading the package needs no numpy
    if base.zombies <= 0:
        raise ConfigError("sweep needs a scenario with zombies > 0")
    configs = []
    for i, strength in enumerate(strengths_mbps):
        if not math.isfinite(strength) or strength <= 0:
            raise ConfigError(f"sweep strengths must be positive, got {strength}")
        sequence = np.random.SeedSequence([base.seed & _SEED_MASK, i])
        child_seed = int(sequence.generate_state(1, np.uint64)[0])
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
