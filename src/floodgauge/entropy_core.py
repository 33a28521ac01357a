"""Sample entropy of per-flow byte counts in fixed time windows.

Traffic is summarised per tumbling window as a byte count per flow. The
entropy of that distribution measures how dispersed or concentrated the
window's traffic is across flows, in bits.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice, repeat
from operator import attrgetter, gt, mul, truediv
from typing import Mapping, NamedTuple, Sequence

from .errors import InputError
from .fileio import header_cells, json_number, table_rows


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


class FlowColumns(NamedTuple):
    """Flow records as three parallel columns, one entry per record."""

    window_index: Sequence[int]
    flow_id: Sequence[str]
    bytes: Sequence[int]


def flow_columns(records: Sequence[FlowRecord] | FlowColumns) -> FlowColumns:
    """The records as columns; FlowColumns come back unchanged."""
    if isinstance(records, FlowColumns):
        return records
    return FlowColumns(*(tuple(map(attrgetter(f), records)) for f in FlowColumns._fields))


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
        if min(self.counts.values(), default=1) <= 0:
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
        if min(counts.values(), default=1) <= 0:
            counts = {fid: c for fid, c in counts.items() if c > 0}
        return cls(window_index, dict(counts), sum(counts.values()), window_length_ms)


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
    shares = list(map(truediv, w.counts.values(), repeat(s)))
    value = -math.fsum(map(mul, shares, map(math.log2, shares)))
    # clip float residue so 0 <= value <= log2(n) holds exactly
    value = min(max(value, 0.0), math.log2(n))
    return EntropyValue(value, n)


class FlowRecordSeries:
    """Flow records of one run, held as columns, plus the metadata to replay it.

    ``records`` are FlowRecord objects, or FlowColumns whose rows pass their
    checks, ordered by window. ``metadata["config"]`` gives the window length
    and count; without a count the run ends at its last record.
    """

    def __init__(self, records: Sequence[FlowRecord] | FlowColumns, metadata: dict) -> None:
        columns = flow_columns(records)
        windows = columns.window_index
        if any(map(gt, windows, windows[1:])):
            raise InputError("records must be ordered by window_index")
        last = windows[-1] if windows else -1
        try:
            config = metadata["config"]
            length = json_number(config["window_length_ms"])
            count = config.get("num_windows")
            count = None if count is None else json_number(count, whole=True)
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
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
        """The run's per-window byte totals, trailing empty windows included.

        Bytes for the same (window, flow) pair are summed, and windows with
        no record are present as empty windows, in ascending order.
        """
        windows, flows, nbytes = self.columns
        count = self.num_windows
        if count is None:
            count = windows[-1] + 1 if windows else 0
        result = []
        start = 0
        for w in range(count):
            end = bisect_right(windows, w, start)
            counts = dict(zip(flows[start:end], nbytes[start:end]))
            if len(counts) < end - start:
                # a flow repeats within the window: sum its bytes
                counts = {}
                for fid, b in zip(flows[start:end], nbytes[start:end]):
                    counts[fid] = counts.get(fid, 0) + b
            result.append(WindowCounts.build(w, counts, self.window_length_ms))
            start = end
        return result


def windowize(
    records: Sequence[FlowRecord], window_length_ms: float, num_windows: int | None = None
) -> list[WindowCounts]:
    """Group flow records, in any order, into per-window byte totals."""
    ordered = sorted(records, key=attrgetter("window_index"))
    config = {"window_length_ms": window_length_ms, "num_windows": num_windows}
    return FlowRecordSeries(ordered, {"config": config}).windows()


FLOW_HEADER = ("window_index", "flow_id", "bytes")


def read_flow_csv(path) -> list[FlowRecord]:
    """read_flow_columns as records; kept only because perfbench/tracing.TARGETS
    and tests/test_benchmark_contract.py name it."""
    return list(map(FlowRecord, *read_flow_columns(path)))


def read_flow_columns(path) -> FlowColumns:
    """Read a run's flow CSV, ordered by window, into columns; errors name file and line.

    The file is parsed a block of lines and a column at a time; a file the
    blocks cannot prove plain and valid (csv quoting, CRLF, a blank or bad
    line) goes to the row loop, which reads the csv dialect or names the line.
    A flow's rows share one id string.
    """
    try:
        return _read_flow_blocks(path)
    except (ValueError, InputError):
        return _read_flow_rows(path)


def _read_flow_blocks(path) -> FlowColumns:
    """The flow CSV split on commas and newlines; ValueError where csv.reader might differ."""
    windows, flows, nbytes = [], [], []
    ids: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if header_cells(fh.readline().split(",")) != FLOW_HEADER:
            raise ValueError("not the flow CSV header")
        while text := fh.read(1 << 16) + fh.readline():
            text = text if text.endswith("\n") else text + "\n"
            # every "\n" starts a field; with none in an id or byte field,
            # the count leaves each line three fields, the first its window
            fields = text.replace("\n", ",\n").split(",")
            id_col, byte_col = fields[1::3], fields[2::3]
            if len(fields) != 3 * text.count("\n") + 1 or "\n" in "".join(id_col + byte_col):
                raise ValueError("a line without three fields")
            if '"' in text or "\r" in text or "\0" in text or len(text) > csv.field_size_limit():
                raise ValueError("csv quoting, a CR, a NUL or a field past the csv limit")
            w, b = list(map(int, fields[0:-1:3])), list(map(int, byte_col))
            if w[0] < (windows[-1] if windows else 0) or any(map(gt, w, w[1:])) or min(b) < 0:
                raise ValueError("a window out of order or a negative number")
            known = len(ids)
            flows += map(ids.setdefault, id_col, id_col)
            for fid in islice(ids, known, None):
                FlowRecord(0, fid, 0)
            windows += w
            nbytes += b
    return FlowColumns(windows, flows, nbytes)


def _read_flow_rows(path) -> FlowColumns:
    """csv.reader rows; FlowRecord checks a row with a new id or a number out of order or < 0."""
    windows, flows, nbytes = [], [], []
    ids: dict[str, str] = {}
    last = 0
    for line, (w, fid, b) in table_rows(path, FLOW_HEADER):
        try:
            w, b = int(w), int(b)
            if w < last or b < 0 or fid not in ids:
                ids[fid] = FlowRecord(w, fid, b).flow_id
                if w < last:
                    raise InputError("records must be ordered by window_index")
        except (ValueError, InputError) as exc:
            raise InputError(f"{path}:{line}: {exc}") from exc
        last = w
        windows.append(w)
        flows.append(ids[fid])
        nbytes.append(b)
    return FlowColumns(windows, flows, nbytes)


def flow_csv_text(records: Sequence[FlowRecord] | FlowColumns) -> str:
    """Render records, or their columns, as CSV text (header included)."""
    lines = [",".join(FLOW_HEADER)]
    lines.extend(map("%s,%s,%s".__mod__, zip(*flow_columns(records))))
    return "\n".join(lines) + "\n"
