"""Synthetic flow traffic for a flooding scenario.

Legitimate clients send Poisson-distributed byte volumes per window;
zombies flood at a fixed deterministic rate. The generator is seeded so
every run is reproducible, and a sweep derives one run per attack
strength from a base configuration.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import asdict, dataclass, replace
from typing import Sequence

from .entropy_core import (
    FlowColumns,
    FlowRecord,
    WindowCounts,
    flow_columns,
    flow_csv_text,
    group_windows,
    read_flow_columns,
)
from .errors import ConfigError, InputError
from .fileio import atomic_write_text, read_json, write_json

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


class FlowRecordSeries:
    """Flow records of one run, held as columns, plus the metadata to replay it.

    ``records`` are FlowRecord objects, or FlowColumns whose rows pass their
    checks, ordered by window. ``metadata["config"]`` gives the window length
    and count; without a count the run ends at its last record.
    """

    def __init__(self, records: Sequence[FlowRecord] | FlowColumns, metadata: dict) -> None:
        columns = flow_columns(records)
        windows = columns.window_index
        if any(map(operator.gt, windows, windows[1:])):
            raise InputError("records must be ordered by window_index")
        last = windows[-1] if windows else -1
        try:
            config = metadata["config"]
            length = float(config["window_length_ms"])
            count = config.get("num_windows")
            count = None if count is None else int(count)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(
                f"metadata lacks a valid config.window_length_ms or num_windows: {exc!r}"
            ) from exc
        if not math.isfinite(length) or length <= 0:
            raise InputError("window_length_ms must be finite and positive")
        if count is not None and count <= last:
            raise InputError(f"num_windows={count} but records reach window {last}")
        self.columns = FlowColumns(*map(tuple, columns))
        self.metadata = metadata
        self.window_length_ms = length
        self.num_windows = count

    @property
    def records(self) -> tuple[FlowRecord, ...]:
        """The run's records, built anew on each access: hold it to use it twice."""
        return tuple(map(FlowRecord, *self.columns))

    def windows(self) -> list[WindowCounts]:
        """The run's per-window byte totals, trailing empty windows included."""
        return group_windows(self.columns, self.window_length_ms, self.num_windows)


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
    # one column per flow, legit clients first; row-major nonzero keeps
    # records in window order, then flow order, and skips zero volumes
    volumes = np.hstack([
        rng.poisson(lam, size=(cfg.num_windows, cfg.legit_clients)),
        np.full((cfg.num_windows, cfg.zombies), zombie_bytes, dtype=np.int64),
    ])
    windows, flows = np.nonzero(volumes)
    flow_ids = np.concatenate([
        np.char.mod(LEGIT_PREFIX + "%04d", np.arange(cfg.legit_clients)),
        np.char.mod(ZOMBIE_PREFIX + "%04d", np.arange(cfg.zombies)),
    ]).astype(object)
    # draws and zombie volumes are never negative, so only the ids need checks
    for fid in flow_ids:
        FlowRecord(0, fid, 0)
    columns = FlowColumns(
        windows.tolist(), flow_ids[flows].tolist(), volumes[windows, flows].tolist()
    )

    metadata = {
        "config": asdict(cfg),
        "generator": GENERATOR_NAME,
        "seed": seed,
        "flow_labels": {"legit": LEGIT_PREFIX, "zombie": ZOMBIE_PREFIX},
    }
    return FlowRecordSeries(columns, metadata)


def sweep(
    base: ScenarioConfig, strengths_mbps: Sequence[float]
) -> list[tuple[float, FlowRecordSeries]]:
    """Simulate one run per aggregate attack strength.

    Each run keeps the base scenario but divides the requested aggregate
    strength evenly across the zombies. Child runs get independent seeds
    derived from the base seed and the run's position.
    """
    import numpy as np  # here, not at module top: loading the package needs no numpy
    if base.zombies <= 0:
        raise ConfigError("sweep needs a scenario with zombies > 0")
    runs: list[tuple[float, FlowRecordSeries]] = []
    for i, strength in enumerate(strengths_mbps):
        if not math.isfinite(strength) or strength <= 0:
            raise ConfigError(f"sweep strengths must be positive, got {strength}")
        sequence = np.random.SeedSequence([base.seed & _SEED_MASK, i])
        child_seed = int(sequence.generate_state(1, np.uint64)[0])
        cfg = replace(
            base, attack_rate_mbps_per_zombie=strength / base.zombies, seed=child_seed
        )
        runs.append((float(strength), simulate(cfg)))
    return runs


def _sidecar_path(csv_path) -> str:
    """The metadata sidecar beside a flow CSV: ``run.csv`` -> ``run.meta.json``."""
    root, _ = os.path.splitext(os.fspath(csv_path))
    return root + ".meta.json"


def write_series(csv_path, series: FlowRecordSeries) -> None:
    """Write records as flow CSV plus a metadata sidecar JSON."""
    atomic_write_text(csv_path, flow_csv_text(series.columns))
    write_json(_sidecar_path(csv_path), series.metadata)


def read_series(csv_path, window_length_ms: float | None = None) -> FlowRecordSeries:
    """Read a run's flow CSV into a series; errors name the CSV line or the sidecar.

    Without ``window_length_ms`` the metadata sidecar must exist, and is
    checked before the CSV is read; it gives the window length and count.
    With it the sidecar is not read and the run ends at its last record.
    """
    meta_path = _sidecar_path(csv_path)
    # a missing CSV is left for its own open to report, under its own name
    if window_length_ms is None and os.path.exists(csv_path) and not os.path.exists(meta_path):
        raise InputError(f"{meta_path}: metadata sidecar not found; pass --window-ms")
    columns = read_flow_columns(csv_path)
    if window_length_ms is None:
        return read_json(meta_path, lambda metadata: FlowRecordSeries(columns, metadata))
    try:
        return FlowRecordSeries(columns, {"config": {"window_length_ms": window_length_ms}})
    except InputError as exc:
        raise InputError(f"{csv_path}: {exc}") from exc
