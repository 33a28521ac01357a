"""Threshold detector for entropy deviation from a clean-traffic baseline.

A baseline entropy is learned as the mean over attack-free training
windows. Live windows are flagged when their entropy deviates from the
baseline by more than a fixed threshold in bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .entropy_core import EntropyValue
from .errors import InputError, InsufficientBaselineError
from .fileio import (
    Table,
    atomic_write_text,
    format_flag,
    format_float,
    json_number,
    parse_flag,
    read_json,
    read_table,
    table_text,
    write_json,
)

DEFAULT_THRESHOLD = 0.1
MIN_TRAINING_WINDOWS = 5


@dataclass(frozen=True)
class Baseline:
    """Mean training entropy h_n plus the detection threshold."""

    h_n: float
    threshold: float
    training_windows: int

    def __post_init__(self) -> None:
        if self.training_windows < MIN_TRAINING_WINDOWS:
            raise InsufficientBaselineError(
                f"baseline needs >= {MIN_TRAINING_WINDOWS} training windows, "
                f"got {self.training_windows}"
            )
        if not math.isfinite(self.h_n) or self.h_n < 0:
            raise InputError(f"baseline entropy must be finite and >= 0, got {self.h_n}")
        if not math.isfinite(self.threshold) or self.threshold < 0:
            raise InputError(f"threshold must be >= 0, got {self.threshold}")


@dataclass(frozen=True)
class DetectionEvent:
    """Outcome of checking one window against the baseline."""

    window_index: int
    h_c: float
    deviation: float
    attack_flag: bool


def build_baseline(
    entropies: Sequence[EntropyValue], threshold: float = DEFAULT_THRESHOLD
) -> Baseline:
    """Average training-window entropies into a baseline."""
    n = len(entropies)
    h_n = math.fsum(e.value for e in entropies) / n if n else 0.0
    return Baseline(h_n, threshold, n)


def evaluate_window(
    h_c: EntropyValue, baseline: Baseline, window_index: int = 0
) -> DetectionEvent:
    """Compare one window's entropy against the baseline.

    The deviation is h_c - h_n and the flag is raised only when the
    deviation strictly exceeds the threshold: a window exactly at the
    threshold stays clean.
    """
    deviation = h_c.value - baseline.h_n
    return DetectionEvent(window_index, h_c.value, deviation, deviation > baseline.threshold)


def evaluate_windows(
    entropies: Sequence[EntropyValue], baseline: Baseline
) -> list[DetectionEvent]:
    return [evaluate_window(e, baseline, i) for i, e in enumerate(entropies)]


def save_baseline(path, baseline: Baseline) -> None:
    write_json(path, asdict(baseline))


def load_baseline(path) -> Baseline:
    return read_json(path, lambda obj: Baseline(
        json_number(obj["h_n"]),
        json_number(obj["threshold"]),
        json_number(obj["training_windows"], whole=True),
    ))


EVENTS_TABLE = Table(
    ("window_index", "h_c", "deviation", "attack_flag"),
    lambda row: DetectionEvent(
        int(row[0]), float(row[1]), float(row[2]), parse_flag(row[3], "attack_flag")
    ),
    lambda e: f"{e.window_index},{format_float(e.h_c)},{format_float(e.deviation)},"
    f"{format_flag(e.attack_flag)}",
)


def write_events_csv(path, events: Sequence[DetectionEvent]) -> None:
    atomic_write_text(path, table_text(EVENTS_TABLE, events))


def read_events_csv(path) -> list[DetectionEvent]:
    return read_table(path, EVENTS_TABLE)
