"""Sample entropy of per-flow byte counts in fixed time windows, and a run's files.

Traffic is summarised per tumbling window as a byte count per flow; the entropy of
that distribution measures how dispersed the window's traffic is across flows, in
bits. A run's files, a flow CSV and its metadata sidecar, are read and written here.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from itertools import chain, compress, groupby, repeat
from operator import attrgetter, index, itemgetter, mul, truediv
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, brief_repr, naming
from .fileio import (atomic_write, atomic_write_text, header_cells, json_field, json_number,
                     json_text, read_json, table_rows)

# the most empty windows a run may hold in a row, before its first record, between two or
# after its last up to its window count; a run stores none of them
MAX_GAP_WINDOWS = 100_000


def _checked_flow_id(fid) -> str:
    """fid, if the flow CSV can write it unquoted and read it back as itself."""
    if not isinstance(fid, str):
        raise InputError(f"flow_id must be a str, got {type(fid).__name__}")
    if not fid:
        raise InputError("flow_id must be non-empty")
    if "," in fid or "\n" in fid or "\r" in fid:
        raise InputError(f"flow_id {brief_repr(fid)} must not contain commas or newlines")
    if fid[0] == '"':
        raise InputError(f"flow_id {brief_repr(fid)} must not start with a double quote")
    return fid


def _check_flow_ids(ids: Sequence[str]) -> None:
    """_checked_flow_id of each id, by one pass over the ids joined.

    A character _checked_flow_id refuses inside an id it also refuses inside their
    join; only an empty id and a quote opening an id are hidden there. So an empty id,
    a quote anywhere or a join the rule refuses sends the ids to the rule one by one,
    which names the first bad id."""
    try:
        if all(ids) and '"' not in _checked_flow_id("".join(ids)):
            return
    except (TypeError, InputError):  # TypeError: an id that is not a str
        pass
    for fid in ids:
        _checked_flow_id(fid)


def _distinct_flow_ids(flow_ids: Iterable[str]) -> tuple[str, ...]:
    """The ids as a tuple, once _check_flow_ids takes them and none is repeated."""
    ids = tuple(flow_ids)
    _check_flow_ids(ids)
    if len(set(ids)) < len(ids):
        raise InputError("flow ids must be distinct")
    return ids


@dataclass(frozen=True, slots=True, init=False)
class FlowRecord:
    """Byte count observed for one flow in one window.

    The window index and byte count are kept as ``operator.index`` of what
    is given, so numpy integers become ints and other numbers are refused.
    """

    window_index: int
    flow_id: str
    bytes: int

    def __init__(self, window_index: int, flow_id: str, bytes: int) -> None:
        try:
            window_index = index(window_index)
        except TypeError:
            raise InputError(
                f"window_index must be an integer, got {brief_repr(window_index)}") from None
        if window_index < 0:
            raise InputError(f"window_index must be >= 0, got {brief_repr(window_index)}")
        _checked_flow_id(flow_id)
        try:
            bytes = index(bytes)
        except TypeError:
            raise InputError(f"bytes must be an integer, got {brief_repr(bytes)}") from None
        if bytes < 0:
            raise InputError(
                f"negative byte count {brief_repr(bytes)} for flow {brief_repr(flow_id)}")
        _set_window_index(self, window_index)
        _set_flow_id(self, flow_id)
        _set_bytes(self, bytes)


# each field's slot, written past the frozen __setattr__
_set_window_index = FlowRecord.window_index.__set__
_set_flow_id = FlowRecord.flow_id.__set__
_set_bytes = FlowRecord.bytes.__set__
_new = object.__new__


def _checked_record(window_index: int, flow_id: str, nbytes: int) -> FlowRecord:
    """FlowRecord(window_index, flow_id, nbytes), without the checks, of fields already
    found valid: an int window >= 0, a flow id _checked_flow_id took and an int count >= 0."""
    record = _new(FlowRecord)
    _set_window_index(record, window_index)
    _set_flow_id(record, flow_id)
    _set_bytes(record, nbytes)
    return record


# one window's (window_index, flow ids, counts), its records in input order
WindowRow = tuple[int, Sequence[str], Sequence[int]]


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
    try:
        return _share_entropy(list(map(truediv, counts, repeat(float(total)))))
    except OverflowError:  # a total past the float range: int division; a 0 share adds 0 bits
        shares = list(filter(None, map(truediv, counts, repeat(total))))
        return EntropyValue(_share_entropy(shares).value, len(counts))


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
    length = json_field(metadata, "config.window_length_ms", json_number)
    count = json_field(metadata, "config.num_windows", lambda v: json_number(v, whole=True),
                       optional=True)
    if not math.isfinite(length) or length <= 0:
        raise InputError("window_length_ms must be finite and positive")
    if count is not None and count < 0:
        raise InputError(f"num_windows must be >= 0, got {brief_repr(count)}")
    return length, count


def _positive_totals(rows: Iterable[tuple]) -> Iterator[tuple]:
    """Each window's (flows, counts >= 0) summed per flow, zero totals dropped as in
    WindowCounts.build; a row of distinct flows and no zero count is its own total."""
    distinct = None  # the last id tuple found to hold no id twice
    for fids, counts in rows:
        if fids is not distinct and len(set(fids)) == len(fids):
            distinct = fids
        if fids is not distinct or 0 in counts:
            summed: dict[str, int] = {}
            for fid, b in zip(fids, counts):
                summed[fid] = summed.get(fid, 0) + b
            summed = {fid: c for fid, c in summed.items() if c}
            fids, counts = tuple(summed), tuple(summed.values())
        yield fids, counts


def _rows_by_window(rows: Iterable[tuple[int, str, int]]) -> Iterator[WindowRow]:
    """Each run of checked (window, flow id, count) rows in one window as one WindowRow."""
    for w, run in groupby(rows, itemgetter(0)):
        _, fids, counts = zip(*run)
        yield w, fids, counts


class FlowRecordSeries:
    """Flow records of one run, held per window, plus the metadata to replay it.

    ``records`` are ordered by window; one that is not a FlowRecord is made one,
    so every row the run stores was checked once, when the run was made.
    ``metadata["config"]`` gives the window length and count; without a count the
    run ends at its last record. The run keeps only its windows with records, each
    as one row of its records' flow ids and counts in input order, keyed by window
    index; an empty window is made when it is read. A run from ``from_volumes``
    keeps its count matrix instead.
    """

    _volumes = None  # from_volumes' int64 counts, one row per window and one column per flow
    _NO_ROW = ((), ())  # an empty window's (flow ids, counts)

    def __init__(self, records: Iterable[FlowRecord], metadata: dict) -> None:
        self._check(metadata)
        records = (r if type(r) is FlowRecord else FlowRecord(r.window_index, r.flow_id, r.bytes)
                   for r in records)
        self._take_rows(_rows_by_window(map(attrgetter("window_index", "flow_id", "bytes"),
                                            records)))

    def _take_rows(self, rows: Iterable[WindowRow]) -> None:
        """Keep each window's row, checked already, keyed by its window index."""
        rows = list(rows)
        self._count = self._window_count(w for w, _, _ in rows)
        self._rows = {w: (fids, counts) for w, fids, counts in rows}

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
        ids = _distinct_flow_ids(flow_ids)
        volumes = _count_matrix(rows, len(ids))
        series._count = series._window_count(np.flatnonzero(volumes.any(axis=1)).tolist())
        series._ids, series._volumes = ids, volumes[:series._count]
        return series

    @classmethod
    def _from_window_rows(
        cls, flow_ids: Sequence[str], rows: Iterable[WindowRow], metadata: dict
    ) -> "FlowRecordSeries":
        """A run from each window with records as one (window, flow ids, counts) row, every
        id one of ``flow_ids`` and every count > 0; the ids are checked as from_volumes
        checks them, and the run keeps the rows as read_series keeps a capture's."""
        series = cls.__new__(cls)
        series._check(metadata)
        _distinct_flow_ids(flow_ids)
        series._take_rows(rows)
        return series

    def _check(self, metadata: dict) -> None:
        """Keep the metadata, refusing a bad window length or count."""
        self.window_length_ms, self.num_windows = run_config(metadata)
        self.metadata = metadata

    def _window_count(self, windows: Iterable[int]) -> int:
        """The run's window count, once the indices of its windows with records, in the
        order given, ascend from 0, stay below num_windows and leave no gap of more than
        MAX_GAP_WINDOWS before the first, between two or after the last up to the count."""
        last = -1
        for w in windows:
            if w <= last:
                raise InputError("records must be ordered by window_index")
            if self.num_windows is not None and w >= self.num_windows:
                raise InputError(f"num_windows={brief_repr(self.num_windows)} but records "
                                 f"reach window {brief_repr(w)}")
            self._check_gap(w - last - 1, "window {} follows", w)
            last = w
        count = last + 1 if self.num_windows is None else self.num_windows
        self._check_gap(count - last - 1, "num_windows={} ends in", count)
        return count

    def _check_gap(self, empty: int, where: str, number: int) -> None:
        """Refuse a gap of more than MAX_GAP_WINDOWS empty windows, quoting ``number`` in
        ``where`` only then."""
        if empty > MAX_GAP_WINDOWS:
            run = "a run" if self.num_windows is not None else "a run with no window count"
            raise InputError(f"{where.format(brief_repr(number))} {brief_repr(empty)} empty "
                             f"windows; {run} may skip at most {MAX_GAP_WINDOWS}")

    def _per_window(self, summed: bool) -> Iterable[tuple[Sequence[str], Sequence[int]]]:
        """Each window's (flow ids, counts), an empty window made when it is reached: its
        rows as given, or its per-flow positive totals; a count matrix's rows are both,
        built one window at a time on each call."""
        if self._volumes is None:
            rows = map(self._rows.get, range(self._count), repeat(self._NO_ROW))
            return _positive_totals(rows) if summed else rows
        ids = self._ids
        rows = (row.tolist() for row in self._volumes)  # a window at a time, not the whole matrix
        built = ((tuple(compress(ids, c)), tuple(filter(None, c))) for c in rows)
        return chain(built, repeat(self._NO_ROW, self._count - len(self._volumes)))

    @property
    def record_count(self) -> int:
        """Number of rows in the run, counted a window at a time without building records."""
        return sum(len(f) for f, _ in self._per_window(summed=False))

    @property
    def records(self) -> tuple[FlowRecord, ...]:
        """The run's records, built anew on each access: hold it to use it twice."""
        rows = enumerate(self._per_window(summed=False))
        return tuple(chain.from_iterable(
            map(_checked_record, repeat(w), f, c) for w, (f, c) in rows))

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
            empty = self._count - len(self._volumes)
            return _volume_entropies(self._volumes) + [EntropyValue(0.0, 0)] * empty
        return [_entropy(counts, sum(counts)) for _, counts in self._per_window(summed=True)]


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
    return [_checked_record(w, fid, b)
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
        return list(_read_flow_blocks(path))
    except (ValueError, InputError):
        return list(_rows_by_window(_read_flow_rows(path)))


class _FlowIds(dict):
    """Flow id bytes to one checked str: a new id is decoded and checked once."""

    def __missing__(self, key: bytes) -> str:
        fid = self[key] = _checked_flow_id(key.decode("utf-8"))
        return fid


def _read_flow_blocks(path) -> Iterator[tuple[int, tuple[str, ...], list[int]]]:
    """The flow CSV split on commas and newlines into one (window, flow ids, counts) row per
    window with rows, yielded as it closes; ValueError where csv.reader might differ."""
    ids, last_keys, last_ids = _FlowIds(), None, ()  # the last window's id bytes and ids
    window, keys, counts = 0, [], []  # the window being read, which may go on past a block
    def ids_of(id_bytes: list) -> tuple[str, ...]:  # the last window's ids if its bytes match
        nonlocal last_keys, last_ids
        if id_bytes != last_keys:
            last_keys, last_ids = id_bytes, tuple(map(ids.__getitem__, id_bytes))
        return last_ids
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
            end = 0  # rows come ordered by window: parse and order-check each run once
            for field, run in groupby(fields[0:-1:3]):
                start, end = end, end + len(list(run))
                w = int(field)
                if w != window:
                    if w < window:
                        raise ValueError("a window out of order or negative")
                    if keys:
                        yield window, ids_of(keys), counts
                    window, keys, counts = w, [], []
                keys += flows[start:end]
                counts += nbytes[start:end]
    if keys:
        yield window, ids_of(keys), counts


def _read_flow_rows(path) -> Iterator[tuple[int, str, int]]:
    """csv.reader rows as checked (window, flow id, count) rows, a flow's rows sharing one
    id string; FlowRecord checks a row with a new id or a number out of order or < 0."""
    ids, last = {}, 0
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
        yield w, ids[fid], b


def _flow_csv_chunks(series: FlowRecordSeries) -> Iterator[str]:
    """The run's flow CSV: the header line, then one chunk per window with records,
    each built from the run's own storage when it is asked for."""
    yield ",".join(FLOW_HEADER) + "\n"
    for w, (fids, counts) in enumerate(series._per_window(summed=False)):
        if fids:
            yield "\n".join(map(FLOW_LINE.__mod__, zip(repeat(w), fids, counts))) + "\n"


def _sidecar_path(csv_path) -> str:
    """The metadata sidecar beside a flow CSV: ``run.csv`` -> ``run.meta.json``."""
    root, _ = os.path.splitext(os.fspath(csv_path))
    return root + ".meta.json"


def write_series(csv_path, series: FlowRecordSeries) -> None:
    """Write records as flow CSV, a window at a time with no copy of the file held,
    then a metadata sidecar JSON; metadata JSON cannot hold fails before either is written."""
    sidecar = json_text(series.metadata)
    atomic_write(csv_path, _flow_csv_chunks(series))
    atomic_write_text(_sidecar_path(csv_path), sidecar)


def read_series(csv_path, window_length_ms: float | None = None) -> FlowRecordSeries:
    """Read a run's flow CSV into a series; errors name the CSV line or the sidecar.

    Without ``window_length_ms`` the metadata sidecar must exist, and gives the
    window length and count; with it the sidecar is not read and the run ends at
    its last record. Either is checked before the CSV is read.
    """
    meta_path = _sidecar_path(csv_path)
    if window_length_ms is not None:
        metadata, origin = {"config": {"window_length_ms": window_length_ms}}, csv_path
    elif os.path.exists(meta_path):
        metadata, origin = read_json(meta_path, dict), meta_path
    else:
        open(csv_path, "rb").close()  # a missing CSV is reported under its own name
        raise InputError(f"{meta_path}: metadata sidecar not found; pass --window-ms")
    series = FlowRecordSeries.__new__(FlowRecordSeries)
    with naming(origin):
        series._check(metadata)  # a bad window length or count is refused before the CSV is read
    rows = read_flow_windows(csv_path)
    with naming(origin):
        series._take_rows(rows)
    return series
