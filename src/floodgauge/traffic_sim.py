"""Synthetic flow traffic for a flooding scenario.

Legitimate clients send Poisson-distributed byte volumes per window;
zombies flood at a fixed deterministic rate. The generator is seeded so
every run is reproducible, and a sweep derives one run per attack
strength from a base configuration.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

from .entropy_core import FlowRecordSeries, flow_csv_chunks, read_flow_windows, run_config
from .errors import ConfigError, InputError
from .fileio import atomic_write, read_json, write_json

GENERATOR_NAME = "numpy-pcg64"
LEGIT_PREFIX = "legit-"
ZOMBIE_PREFIX = "zombie-"

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
# beyond 2**53 byte counts lose integer precision in float draws
_MAX_BYTES_PER_WINDOW = 2**53


def _bytes_per_window(rate_mbps: float, window_length_ms: float) -> float:
    return rate_mbps * (window_length_ms / 1000.0) * 1e6 / 8.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated run."""

    legit_clients: int = 400
    zombies: int = 100
    attack_rate_mbps_per_zombie: float = 0.1
    legit_mean_rate_mbps_per_client: float = 1.0
    window_length_ms: float = 200.0
    num_windows: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
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
            per_window = _bytes_per_window(rate, self.window_length_ms)
            if per_window > _MAX_BYTES_PER_WINDOW:
                raise ConfigError(
                    f"{name} yields {per_window:.3g} bytes per window, "
                    f"beyond the exact-integer range"
                )

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
    r = _bytes_per_window(cfg.legit_mean_rate_mbps_per_client, cfg.window_length_ms)
    a = round(_bytes_per_window(cfg.attack_rate_mbps_per_zombie, cfg.window_length_ms))

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
    lam = _bytes_per_window(cfg.legit_mean_rate_mbps_per_client, cfg.window_length_ms)
    zombie_bytes = round(
        _bytes_per_window(cfg.attack_rate_mbps_per_zombie, cfg.window_length_ms)
    )
    # one column per flow, legit clients first
    volumes = np.hstack([
        rng.poisson(lam, size=(cfg.num_windows, cfg.legit_clients)),
        np.full((cfg.num_windows, cfg.zombies), zombie_bytes, dtype=np.int64),
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
        cfg = replace(
            base, attack_rate_mbps_per_zombie=strength / base.zombies, seed=child_seed
        )
        configs.append((float(strength), cfg))
    return _SweepRuns(tuple(configs))


def _sidecar_path(csv_path) -> str:
    """The metadata sidecar beside a flow CSV: ``run.csv`` -> ``run.meta.json``."""
    root, _ = os.path.splitext(os.fspath(csv_path))
    return root + ".meta.json"


def write_series(csv_path, series: FlowRecordSeries) -> None:
    """Write records as flow CSV, a window at a time with no copy of the file held,
    then a metadata sidecar JSON."""
    atomic_write(csv_path, flow_csv_chunks(series))
    write_json(_sidecar_path(csv_path), series.metadata)


def _checked_metadata(metadata: dict) -> dict:
    """A sidecar's metadata, once run_config finds its window length and count valid."""
    run_config(metadata)
    return metadata


def read_series(csv_path, window_length_ms: float | None = None) -> FlowRecordSeries:
    """Read a run's flow CSV into a series; errors name the CSV line or the sidecar.

    Without ``window_length_ms`` the metadata sidecar must exist, and is
    checked before the CSV is read; it gives the window length and count.
    With it the sidecar is not read and the run ends at its last record.
    """
    meta_path = _sidecar_path(csv_path)
    if window_length_ms is not None:
        metadata, origin = {"config": {"window_length_ms": window_length_ms}}, csv_path
    else:
        if not os.path.exists(meta_path):
            open(csv_path, "rb").close()  # a missing CSV is reported under its own name
            raise InputError(f"{meta_path}: metadata sidecar not found; pass --window-ms")
        metadata, origin = read_json(meta_path, _checked_metadata), meta_path
    rows = read_flow_windows(csv_path)
    try:
        return FlowRecordSeries.from_rows(rows, metadata)
    except InputError as exc:
        raise InputError(f"{origin}: {exc}") from exc
