"""Sample entropy of per-flow byte counts in fixed time windows.

Traffic is summarised per tumbling window as a byte count per flow. The
entropy of that distribution measures how dispersed or concentrated the
window's traffic is across flows, in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InputError
from .fileio import Table, read_table, table_text


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """Byte count observed for one flow in one window."""

    window_index: int
    flow_id: str
    bytes: int

    def __post_init__(self) -> None:
        if self.window_index < 0:
            raise InputError(f"window_index must be >= 0, got {self.window_index}")
        if not self.flow_id:
            raise InputError("flow_id must be non-empty")
        # the flow CSV writes ids unquoted, so these would not read back
        if "," in self.flow_id or "\n" in self.flow_id or "\r" in self.flow_id:
            raise InputError(f"flow_id {self.flow_id!r} must not contain commas or newlines")
        if self.flow_id.startswith('"'):
            raise InputError(f"flow_id {self.flow_id!r} must not start with a double quote")
        if self.bytes < 0:
            raise InputError(
                f"negative byte count {self.bytes} for flow {self.flow_id!r}"
            )


@dataclass(frozen=True)
class WindowCounts:
    """Per-flow byte totals for one window.

    Flows with zero bytes are absent from ``counts``; ``total`` is the sum
    of all counts. An empty window (no flows) is valid.
    """

    window_index: int
    counts: Mapping[str, int]
    total: int
    window_length_ms: float

    def __post_init__(self) -> None:
        if self.window_index < 0:
            raise InputError(f"window_index must be >= 0, got {self.window_index}")
        if not math.isfinite(self.window_length_ms) or self.window_length_ms <= 0:
            raise InputError("window_length_ms must be finite and positive")
        if any(c <= 0 for c in self.counts.values()):
            raise InputError("window counts must all be positive")
        if self.total != sum(self.counts.values()):
            raise InputError("total does not match the sum of counts")

    @property
    def flow_count(self) -> int:
        return len(self.counts)

    @classmethod
    def build(
        cls, window_index: int, counts: Mapping[str, int], window_length_ms: float
    ) -> "WindowCounts":
        """Construct from raw per-flow sums, dropping zero-byte flows."""
        kept = {fid: c for fid, c in counts.items() if c > 0}
        return cls(window_index, kept, sum(kept.values()), window_length_ms)


@dataclass(frozen=True)
class EntropyValue:
    """Entropy of one window in bits, with the flow count it was taken over."""

    value: float
    flow_count: int


def compute_entropy(w: WindowCounts) -> EntropyValue:
    """Entropy of the window's flow-share distribution, in bits.

    Returns -sum(p_i * log2(p_i)) with p_i the flow's share of the window's
    bytes. Empty and single-flow windows return 0.
    """
    n = w.flow_count
    if n <= 1:
        return EntropyValue(0.0, n)
    s = float(w.total)
    value = -math.fsum((c / s) * math.log2(c / s) for c in w.counts.values())
    # clip float residue so 0 <= value <= log2(n) holds exactly
    value = min(max(value, 0.0), math.log2(n))
    return EntropyValue(value, n)


def windowize(
    records: Sequence[FlowRecord],
    window_length_ms: float,
    num_windows: int | None = None,
) -> list[WindowCounts]:
    """Group flow records into per-window byte totals.

    Bytes for the same (window, flow) pair are summed. The result covers
    window 0 through the highest index seen (or ``num_windows`` when given),
    with gaps present as empty windows, in ascending order.
    """
    if not math.isfinite(window_length_ms) or window_length_ms <= 0:
        raise InputError("window_length_ms must be finite and positive")
    sums: dict[int, dict[str, int]] = {}
    max_index = -1
    for rec in records:
        per_flow = sums.setdefault(rec.window_index, {})
        per_flow[rec.flow_id] = per_flow.get(rec.flow_id, 0) + rec.bytes
        if rec.window_index > max_index:
            max_index = rec.window_index
    if num_windows is None:
        num_windows = max_index + 1
    elif num_windows <= max_index:
        raise InputError(
            f"num_windows={num_windows} but records reach window {max_index}"
        )
    return [
        WindowCounts.build(w, sums.get(w, {}), window_length_ms)
        for w in range(num_windows)
    ]


FLOW_TABLE = Table(
    ("window_index", "flow_id", "bytes"),
    lambda row: FlowRecord(int(row[0]), row[1], int(row[2])),
    lambda r: f"{r.window_index},{r.flow_id},{r.bytes}",
)


def read_flow_csv(path) -> list[FlowRecord]:
    """Read flow records from CSV with header window_index,flow_id,bytes."""
    return read_table(path, FLOW_TABLE)


def flow_csv_text(records: Sequence[FlowRecord]) -> str:
    """Render records as CSV text (header included)."""
    return table_text(FLOW_TABLE, records)
