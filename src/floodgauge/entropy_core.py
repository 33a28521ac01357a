"""Sample entropy of per-flow byte counts in fixed time windows.

Traffic is summarised per tumbling window as a byte count per flow. The
entropy of that distribution measures how dispersed or concentrated the
window's traffic is across flows, in bits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, compress, groupby, repeat
from operator import attrgetter, mul, truediv
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

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
    return _entropy(w.counts.values(), w.total)


def _entropy(counts: Collection[int], total: int) -> EntropyValue:
    """compute_entropy of positive byte counts summing to total, in any order.

    fsum is correctly rounded, so the order of the counts cannot move a bit.
    """
    n = len(counts)
    if n <= 1:
        return EntropyValue(0.0, n)
    s = float(total)
    shares = list(map(truediv, counts, repeat(s)))
    value = -math.fsum(map(mul, shares, map(math.log2, shares)))
    # clip float residue so 0 <= value <= log2(n) holds exactly
    value = min(max(value, 0.0), math.log2(n))
    return EntropyValue(value, n)


def _positive_totals(row: tuple) -> tuple:
    """A window's (flows, counts) summed per flow, what is not positive dropped as in
    WindowCounts.build; the row itself when no flow repeats and every count is positive."""
    fids, counts = row
    if len(set(fids)) == len(fids) and min(counts, default=1) > 0:
        return row
    summed: dict[str, int] = {}
    for fid, b in zip(fids, counts):
        summed[fid] = summed.get(fid, 0) + b
    summed = {fid: c for fid, c in summed.items() if c > 0}
    return tuple(summed), tuple(summed.values())


class FlowRecordSeries:
    """Flow records of one run, held per window, plus the metadata to replay it.

    ``records`` are FlowRecord objects, or FlowColumns whose rows pass their
    checks, ordered by window. ``metadata["config"]`` gives the window length
    and count; without a count the run ends at its last record. Each window
    keeps its rows as given, in input order, and its per-flow positive totals.
    """

    def __init__(self, records: Sequence[FlowRecord] | FlowColumns, metadata: dict) -> None:
        self._check(metadata)
        windows, flows, nbytes = flow_columns(records)
        rows, end = [], 0
        for w, run in groupby(windows):
            start, end = end, end + len(list(run))
            self._add(rows, w, flows[start:end], nbytes[start:end])
        self._keep(rows, summed=False)

    @classmethod
    def from_volumes(
        cls, flow_ids: Sequence[str], rows: Iterable[Sequence[int]], metadata: dict
    ) -> "FlowRecordSeries":
        """A run from each window's count per flow, ids distinct and valid; 0 is no record."""
        series = cls.__new__(cls)
        series._check(metadata)
        ids = tuple(flow_ids)
        if len(set(ids)) < len(ids):
            raise InputError("flow ids must be distinct")
        windows = []
        for w, counts in enumerate(rows):
            if len(counts) != len(ids) or min(counts, default=0) < 0:
                raise InputError(f"window {w} needs one count >= 0 per flow")
            if ids and all(counts):  # every flow sent: the windows share one id tuple
                series._add(windows, w, ids, tuple(counts))
            elif any(counts):
                series._add(windows, w, tuple(compress(ids, counts)), tuple(filter(None, counts)))
        series._keep(windows, summed=True)
        return series

    def _check(self, metadata: dict) -> None:
        """Keep the metadata, refusing a bad window length or count."""
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
        self.metadata = metadata
        self.window_length_ms = length
        self.num_windows = count

    def _add(self, rows: list, w: int, flows: Sequence[str], counts: Sequence[int]) -> None:
        """Append window w after empty ones; refuse a step down or a window past the count."""
        if w < len(rows):  # a step down, or a negative first window
            raise InputError("records must be ordered by window_index" if rows
                             else f"window_index must be >= 0, got {w}")
        if self.num_windows is not None and w >= self.num_windows:
            raise InputError(f"num_windows={self.num_windows} but records reach window {w}")
        rows += repeat(((), ()), w - len(rows))
        rows.append((flows, counts))

    def _keep(self, rows: list, summed: bool) -> None:
        """Keep the rows, padded with empty windows to the count, and their positive totals."""
        rows += repeat(((), ()), (self.num_windows or 0) - len(rows))
        self._rows = rows
        self._totals = rows if summed else list(map(_positive_totals, rows))

    @property
    def columns(self) -> FlowColumns:
        """The run's rows as columns, built anew on each access: hold it to use it twice."""
        rows = self._rows
        return FlowColumns(
            tuple(chain.from_iterable(repeat(w, len(f)) for w, (f, _) in enumerate(rows))),
            tuple(chain.from_iterable(f for f, _ in rows)),
            tuple(chain.from_iterable(c for _, c in rows)),
        )

    @property
    def record_count(self) -> int:
        """Number of rows in the run, counted without building them."""
        return sum(len(f) for f, _ in self._rows)

    @property
    def records(self) -> tuple[FlowRecord, ...]:
        """The run's records, built anew on each access: hold it to use it twice."""
        return tuple(map(FlowRecord, *self.columns))

    def windows(self) -> list[WindowCounts]:
        """The run's per-window byte totals, trailing empty windows included.

        Bytes for the same (window, flow) pair are summed, and windows with
        no record are present as empty windows, in ascending order.
        """
        length = self.window_length_ms
        return [
            WindowCounts(w, dict(zip(fids, counts)), sum(counts), length)
            for w, (fids, counts) in enumerate(self._totals)
        ]

    def entropies(self) -> list[EntropyValue]:
        """compute_entropy of each of windows(), bit for bit, without building them."""
        return [_entropy(counts, sum(counts)) for _, counts in self._totals]


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


class _FlowIds(dict):
    """Flow id bytes to one checked str: a new id is decoded and checked once."""

    def __missing__(self, key: bytes) -> str:
        fid = self[key] = FlowRecord(0, key.decode("utf-8"), 0).flow_id
        return fid


def _read_flow_blocks(path) -> FlowColumns:
    """The flow CSV split on commas and newlines; ValueError where csv.reader might differ."""
    windows, flows, nbytes = [], [], []
    ids = _FlowIds()
    last = 0
    with open(path, "rb") as fh:
        if header_cells(fh.readline().decode("utf-8").split(",")) != FLOW_HEADER:
            raise ValueError("not the flow CSV header")
        while data := fh.read(1 << 16) + fh.readline():
            data = data if data.endswith(b"\n") else data + b"\n"
            # every b"\n" starts a field, so a field holds at most one; with
            # one in each line-start field, each line has three fields
            fields = data.replace(b"\n", b",\n").split(b",")
            lines = data.count(b"\n")
            if len(fields) != 3 * lines + 1 or b"".join(fields[3::3]).count(b"\n") != lines:
                raise ValueError("a line without three fields")
            if b'"' in data or b"\r" in data or b"\0" in data or len(data) > csv.field_size_limit():
                raise ValueError("csv quoting, a CR, a NUL or a field past the csv limit")
            # rows come ordered by window: parse and order-check each run once
            for field, run in groupby(fields[0:-1:3]):
                w = int(field)
                if w < last:
                    raise ValueError("a window out of order or negative")
                last = w
                windows += repeat(w, len(list(run)))
            b = list(map(int, fields[2::3]))
            if min(b) < 0:
                raise ValueError("a negative byte count")
            flows += map(ids.__getitem__, fields[1::3])
            nbytes += b
    return FlowColumns(windows, flows, nbytes)


def _read_flow_rows(path) -> FlowColumns:
    """csv.reader rows; FlowRecord checks a row with a new id or a number out of order or < 0."""
    windows, flows, nbytes = [], [], []
    ids: dict[str, str] = {}
    last = 0
    for line, _, (w, fid, b) in table_rows(path, FLOW_HEADER):
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
