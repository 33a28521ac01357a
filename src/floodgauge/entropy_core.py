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
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

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


# one window's (window_index, flow ids, counts), its records in input order
WindowRow = tuple[int, Sequence[str], Sequence[int]]


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
    """compute_entropy of positive byte counts summing to total, in any order."""
    return _share_entropy(list(map(truediv, counts, repeat(float(total)))))


def _share_entropy(shares: list[float]) -> EntropyValue:
    """Entropy of a window's positive byte shares, in any order.

    fsum is correctly rounded, so the order of the shares cannot move a bit.
    """
    n = len(shares)
    if n <= 1:
        return EntropyValue(0.0, n)
    value = -math.fsum(map(mul, shares, map(math.log2, shares)))
    # clip float residue so 0 <= value <= log2(n) holds exactly
    value = min(max(value, 0.0), math.log2(n))
    return EntropyValue(value, n)


def _volume_entropies(volumes) -> list[EntropyValue]:
    """_entropy of each row of a count matrix, with one numpy division for every share.

    numpy's int64 / float64 is the same correctly rounded division as int / float,
    and the row totals become floats once, as float(sum(counts)) does.
    """
    import numpy as np
    if int(volumes.max(initial=0)) * volumes.shape[1] < 1 << 63:  # no int64 row sum wraps
        totals = volumes.sum(axis=1).astype(np.float64)
    else:
        totals = np.array([float(sum(row)) for row in volumes.tolist()])
    # an empty window divides its zeros by 1, not by 0
    shares = volumes / np.maximum(totals, 1.0)[:, None]
    full = volumes.all(axis=1).tolist()  # rows with no zero count to drop
    return [_share_entropy(row if every else list(filter(None, row)))
            for row, every in zip(shares.tolist(), full)]


def _count_matrix(rows, width: int):
    """rows as an int64 matrix, one row per window; InputError names the first window
    whose row is not ``width`` counts >= 0, and refuses what int64 cannot hold exactly."""
    import numpy as np
    if isinstance(rows, np.ndarray):
        bad = len(rows) if rows.ndim == 2 and rows.shape[1] == width else 0
    else:
        rows = list(rows)
        bad = next((w for w, counts in enumerate(rows) if len(counts) != width), len(rows))
    try:
        matrix = np.array(rows[:bad]).reshape(bad, width)
    except (TypeError, ValueError) as exc:
        raise InputError(f"window counts must be integers: {exc}") from exc
    if matrix.size and (matrix.dtype.kind not in "iu" or int(matrix.max()) >= 1 << 63):
        raise InputError(f"window counts must be integers that int64 holds, got {matrix.dtype}")
    if matrix.size and matrix.min() < 0:  # the first window with a negative count
        bad = int((matrix < 0).any(axis=1).argmax())
    if bad < len(rows):
        raise InputError(f"window {bad} needs one count >= 0 per flow")
    return matrix.astype(np.int64, copy=False)


def run_config(metadata: dict) -> tuple[float, int | None]:
    """``metadata["config"]``'s window length and count, None if it has none."""
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
    return length, count


def _summed_positive(fids: Sequence[str], counts: Sequence[int]) -> tuple:
    """A window's (flows, counts) summed per flow, what is not positive dropped as in
    WindowCounts.build."""
    summed: dict[str, int] = {}
    for fid, b in zip(fids, counts):
        summed[fid] = summed.get(fid, 0) + b
    summed = {fid: c for fid, c in summed.items() if c > 0}
    return tuple(summed), tuple(summed.values())


def _window_rows(columns: FlowColumns) -> Iterator[WindowRow]:
    """Each run of equal window_index in the columns as one (window, flow ids, counts) row."""
    windows, flows, nbytes = columns
    end = 0
    for w, run in groupby(windows):
        start, end = end, end + len(list(run))
        yield w, flows[start:end], nbytes[start:end]


class FlowRecordSeries:
    """Flow records of one run, held per window, plus the metadata to replay it.

    ``records`` are FlowRecord objects, or FlowColumns whose rows pass their
    checks, ordered by window. ``metadata["config"]`` gives the window length
    and count; without a count the run ends at its last record. Each window
    keeps its rows as given, in input order, and its per-flow positive totals.
    ``from_rows`` takes the windows ready split, and a run from
    ``from_volumes`` keeps its count matrix instead.
    """

    _volumes = None  # from_volumes' int64 counts, one row per window and one column per flow

    def __init__(self, records: Sequence[FlowRecord] | FlowColumns, metadata: dict) -> None:
        self._take_rows(_window_rows(flow_columns(records)), metadata)

    @classmethod
    def from_rows(cls, rows: Iterable[WindowRow], metadata: dict) -> "FlowRecordSeries":
        """A run from one ``(window_index, flow_ids, counts)`` row per window with records.

        Rows come in window order, ids valid and counts >= 0, as ``read_flow_windows``
        gives them; a row that reuses the previous row's id tuple is not checked for a
        repeated id again.
        """
        series = cls.__new__(cls)
        series._take_rows(rows, metadata)
        return series

    def _take_rows(self, rows: Iterable[WindowRow], metadata: dict) -> None:
        """Keep each window's row and its positive totals; a gap in the windows, and the
        windows after the last row up to the count, are empty."""
        self._check(metadata)
        kept, totals = [], []
        distinct = None  # the last id tuple found to hold no id twice
        for w, fids, counts in rows:
            if w < len(kept):  # a step down, or a negative first window
                raise InputError("records must be ordered by window_index" if kept
                                 else f"window_index must be >= 0, got {w}")
            self._within_count(w)
            gap = [((), ())] * (w - len(kept))
            kept += gap
            totals += gap
            row = (fids, counts)
            kept.append(row)
            if fids is not distinct and len(set(fids)) == len(fids):
                distinct = fids
            positive = fids is distinct and min(counts, default=1) > 0
            totals.append(row if positive else _summed_positive(fids, counts))
        gap = [((), ())] * ((self.num_windows or 0) - len(kept))
        self._rows = kept + gap
        self._totals = totals + gap

    @classmethod
    def from_volumes(
        cls, flow_ids: Sequence[str], rows: Iterable[Sequence[int]], metadata: dict
    ) -> "FlowRecordSeries":
        """A run from each window's count per flow, ids distinct and valid; 0 is no record.

        ``rows`` are sequences of counts or a 2-D integer array; the run keeps
        them as an int64 matrix and builds no per-window rows.
        """
        import numpy as np  # here, not at module top: reading a run needs no numpy
        series = cls.__new__(cls)
        series._check(metadata)
        ids = tuple(flow_ids)
        if len(set(ids)) < len(ids):
            raise InputError("flow ids must be distinct")
        volumes = _count_matrix(rows, len(ids))
        sent = np.flatnonzero(volumes.any(axis=1))
        last = int(sent[-1]) if len(sent) else -1
        series._within_count(last)
        count = last + 1 if series.num_windows is None else series.num_windows
        if len(volumes) != count:  # drop trailing empty windows, or pad to the count
            volumes = np.pad(volumes[:count], ((0, max(count - len(volumes), 0)), (0, 0)))
        series._ids, series._volumes = ids, volumes
        return series

    def _check(self, metadata: dict) -> None:
        """Keep the metadata, refusing a bad window length or count."""
        self.window_length_ms, self.num_windows = run_config(metadata)
        self.metadata = metadata

    def _within_count(self, w: int) -> None:
        """Refuse a record in window w past the window count."""
        if self.num_windows is not None and w >= self.num_windows:
            raise InputError(f"num_windows={self.num_windows} but records reach window {w}")

    def _per_window(self, summed: bool) -> Iterable[tuple[Sequence[str], Sequence[int]]]:
        """Each window's (flow ids, counts): its rows as given, or its per-flow positive
        totals; a count matrix's rows are both, built one window at a time on each call."""
        if self._volumes is None:
            return self._totals if summed else self._rows
        ids = self._ids
        rows = (row.tolist() for row in self._volumes)  # a window at a time, not the whole matrix
        return ((tuple(compress(ids, c)), tuple(filter(None, c))) for c in rows)

    @property
    def columns(self) -> FlowColumns:
        """The run's rows as columns, built anew on each access: hold it to use it twice."""
        rows = list(self._per_window(summed=False))
        return FlowColumns(
            tuple(chain.from_iterable(repeat(w, len(f)) for w, (f, _) in enumerate(rows))),
            tuple(chain.from_iterable(f for f, _ in rows)),
            tuple(chain.from_iterable(c for _, c in rows)),
        )

    @property
    def record_count(self) -> int:
        """Number of rows in the run, counted without building them."""
        if self._volumes is not None:
            import numpy as np
            return int(np.count_nonzero(self._volumes))
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
            for w, (fids, counts) in enumerate(self._per_window(summed=True))
        ]

    def entropies(self) -> list[EntropyValue]:
        """compute_entropy of each of windows(), bit for bit, without building them."""
        if self._volumes is not None:
            return _volume_entropies(self._volumes)
        return [_entropy(counts, sum(counts)) for _, counts in self._totals]


def windowize(
    records: Sequence[FlowRecord], window_length_ms: float, num_windows: int | None = None
) -> list[WindowCounts]:
    """Group flow records, in any order, into per-window byte totals."""
    ordered = sorted(records, key=attrgetter("window_index"))
    config = {"window_length_ms": window_length_ms, "num_windows": num_windows}
    return FlowRecordSeries(ordered, {"config": config}).windows()


FLOW_HEADER = ("window_index", "flow_id", "bytes")
FLOW_LINE = "%s,%s,%s"  # one row of the flow CSV, in FLOW_HEADER's order


def read_flow_csv(path) -> list[FlowRecord]:
    """read_flow_windows as one FlowRecord per row of the file; kept only because
    perfbench/tracing.TARGETS and tests/test_benchmark_contract.py name it."""
    return [FlowRecord(w, fid, b)
            for w, fids, counts in read_flow_windows(path) for fid, b in zip(fids, counts)]


def read_flow_windows(path) -> list[WindowRow]:
    """Read a run's flow CSV, ordered by window, into one (window, flow ids, counts)
    row per window with records; errors name file and line.

    The file is parsed a block of lines and a column at a time; a file the
    blocks cannot prove plain and valid (csv quoting, CRLF, a blank or bad
    line) goes to the row loop, which reads the csv dialect or names the line.
    A flow's rows share one id string.
    """
    try:
        return _read_flow_blocks(path)
    except (ValueError, InputError):
        return list(_window_rows(_read_flow_rows(path)))


class _FlowIds(dict):
    """Flow id bytes to one checked str: a new id is decoded and checked once."""

    def __missing__(self, key: bytes) -> str:
        fid = self[key] = FlowRecord(0, key.decode("utf-8"), 0).flow_id
        return fid


def _read_flow_blocks(path) -> list[tuple[int, tuple[str, ...], list[int]]]:
    """_block_windows with each window's ids decoded and checked, as one tuple of the
    flow's shared id strings; a window listing the previous window's id bytes reuses
    its tuple."""
    rows = []
    ids = _FlowIds()
    last_keys, fids = None, ()
    for w, keys, counts in _block_windows(path):
        if keys != last_keys:
            last_keys, fids = keys, tuple(map(ids.__getitem__, keys))
        rows.append((w, fids, counts))
    return rows


def _block_windows(path) -> Iterator[tuple[int, list[bytes], list[int]]]:
    """The flow CSV split on commas and newlines into (window, id bytes, counts), one per
    window with rows; ValueError where csv.reader might differ."""
    window, keys, counts = 0, [], []  # the window being read, which may go on past a block
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
            flows, nbytes = fields[1::3], list(map(int, fields[2::3]))
            if min(nbytes) < 0:
                raise ValueError("a negative byte count")
            # rows come ordered by window: parse and order-check each run once
            end = 0
            for field, run in groupby(fields[0:-1:3]):
                start, end = end, end + len(list(run))
                w = int(field)
                if w != window:
                    if w < window:
                        raise ValueError("a window out of order or negative")
                    if keys:
                        yield window, keys, counts
                    window, keys, counts = w, [], []
                keys += flows[start:end]
                counts += nbytes[start:end]
    if keys:
        yield window, keys, counts


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
    lines.extend(map(FLOW_LINE.__mod__, zip(*flow_columns(records))))
    return "\n".join(lines) + "\n"


def flow_csv_chunks(series: FlowRecordSeries) -> Iterator[str]:
    """flow_csv_text(series.columns) as the header line, then one chunk per window with
    records, each built from the run's own storage when it is asked for."""
    yield ",".join(FLOW_HEADER) + "\n"
    for w, (fids, counts) in enumerate(series._per_window(summed=False)):
        if fids:
            yield "\n".join(map(FLOW_LINE.__mod__, zip(repeat(w), fids, counts))) + "\n"
