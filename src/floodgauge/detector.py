"""Threshold detector for entropy deviation from a clean-traffic baseline.

A baseline entropy is learned as the mean over attack-free training
windows. Live windows are flagged when their entropy deviates from the
baseline by more than a fixed threshold in bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import partial
from typing import TYPE_CHECKING, Sequence

from .errors import InputError, InsufficientBaselineError, brief_repr
from .fileio import (
    Table,
    atomic_write_text,
    format_flag,
    format_float,
    json_field,
    json_number,
    parse_finite,
    parse_flag,
    parse_index,
    read_json,
    table_text,
    write_json,
)

if TYPE_CHECKING:
    from .entropy_core import EntropyValue

DEFAULT_THRESHOLD = 0.1
MIN_TRAINING_WINDOWS = 5


@dataclass(frozen=True)
class Baseline:
    """Mean training entropy h_n plus the detection threshold.

    Each field is taken by load_baseline's rule, a JSON number, and kept as a Python
    float or, for training_windows, a whole number as an int.
    """

    h_n: float
    threshold: float
    training_windows: int

    def __post_init__(self) -> None:
        for name, parse in (("h_n", json_number), ("threshold", json_number),
                            ("training_windows", partial(json_number, whole=True))):
            object.__setattr__(self, name, json_field(vars(self), name, parse))
        if self.training_windows < MIN_TRAINING_WINDOWS:
            raise InsufficientBaselineError(
                f"baseline needs >= {MIN_TRAINING_WINDOWS} training windows, "
                f"got {brief_repr(self.training_windows)}"
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
    """Average the entropies of the training windows that hold traffic into a baseline.

    An empty window's entropy of 0 says nothing about clean traffic, so it
    is left out of h_n; training_windows still counts every window.
    """
    busy = [e.value for e in entropies if e.flow_count > 0]
    if len(busy) < MIN_TRAINING_WINDOWS:
        empty = len(entropies) - len(busy)
        raise InsufficientBaselineError(
            f"baseline needs >= {MIN_TRAINING_WINDOWS} training windows, got {len(busy)}"
            + (f" with traffic and {empty} empty" if empty else "")
        )
    return Baseline(math.fsum(busy) / len(busy), threshold, len(entropies))


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
    # Baseline names a missing or ill-typed field itself, in field order
    return read_json(path, lambda obj: Baseline(
        obj.get("h_n"), obj.get("threshold"), obj.get("training_windows")))


EVENTS_TABLE = Table(
    ("window_index", "h_c", "deviation", "attack_flag"),
    lambda row: DetectionEvent(
        parse_index(row[0], "window_index"), parse_finite(row[1], "h_c"),
        parse_finite(row[2], "deviation"),
        parse_flag(row[3], "attack_flag"),
    ),
    lambda e: f"{e.window_index},{format_float(e.h_c)},{format_float(e.deviation)},"
    f"{format_flag(e.attack_flag)}",
)


def write_events_csv(path, events: Sequence[DetectionEvent]) -> None:
    atomic_write_text(path, table_text(EVENTS_TABLE, events))
