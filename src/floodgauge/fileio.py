"""Atomic file writing, CSV tables and small serialization helpers."""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import FloodgaugeError, InputError


def format_float(value: float) -> str:
    """Shortest decimal string that parses back to the identical double."""
    return repr(float(value))


def format_flag(value: bool) -> str:
    return "true" if value else "false"


def parse_flag(text: str, name: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"{name} must be true or false")
    return text == "true"


def parse_index(text: str, name: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class Table:
    """One CSV format: its header, a row parser and a row formatter.

    ``parse`` turns the fields of one row into an object and raises
    ValueError or InputError on a bad field; ``format`` renders an object
    as one CSV line without the newline.
    """

    header: tuple[str, ...]
    parse: Callable[[list[str]], Any]
    format: Callable[[Any], str]


def header_cells(row: Iterable[str]) -> tuple[str, ...]:
    """A CSV header row as the readers match it: each cell stripped of spaces."""
    return tuple(cell.strip() for cell in row)


def table_rows(path: str | Path, *headers: tuple) -> Iterator[tuple[int, tuple, list[str]]]:
    """Yield ``(line, header, fields)`` for every non-blank row after the header.

    ``header`` is the one of ``headers`` that the file starts with. Any other
    header, a wrong field count, a field past the csv size limit, or text that
    is not UTF-8, is an InputError that names file and line.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = header_cells(next(reader, ()))
            if header not in headers:
                expected = " or ".join(map(",".join, headers))
                raise InputError(f"{path}:1: expected header {expected}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise InputError(f"{path}:{reader.line_num}: expected {len(header)} fields")
                yield reader.line_num, header, row
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    except UnicodeDecodeError:
        # the reader decodes ahead in chunks, so find the bad byte's line anew
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise InputError(f"{path}:{line}: not UTF-8 text: {exc.reason}") from exc
        raise


def read_table(path: str | Path, *tables: Table) -> list:
    """Parse each row with the table whose header the file has; errors name file and line."""
    parsers = {table.header: table.parse for table in tables}
    rows = []
    for line, header, row in table_rows(path, *parsers):
        try:
            rows.append(parsers[header](row))
        except (ValueError, InputError) as exc:
            raise InputError(f"{path}:{line}: {exc}") from exc
    return rows


def table_text(table: Table, rows: Iterable) -> str:
    """Render rows as CSV text, header line first."""
    lines = [",".join(table.header)]
    lines.extend(map(table.format, rows))
    return "\n".join(lines) + "\n"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to a temp file in the target directory, then rename over path."""
    atomic_write(path, (text,))


def atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    """Write text chunks in order to a temp file in the target directory, then rename
    over path; a chunk is written before the next is asked for. If any step fails,
    path is left as it was and the temp file is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def json_number(value: Any, whole: bool = False) -> float | int:
    """A JSON number as float, or as int when ``whole``.

    A bool, a string or, when ``whole``, a fraction is a ValueError, not coerced.
    """
    if isinstance(value, (bool, str)) or (whole and value != int(value)):
        raise ValueError(f"expected a {'whole ' if whole else ''}number, got {value!r}")
    return int(value) if whole else float(value)


def write_json(path: str | Path, obj: object) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path, parse: Callable[[Any], Any]) -> Any:
    """Build an object from a JSON file with ``parse``; every error names the file.

    A missing or ill-typed field becomes InputError; a FloodgaugeError keeps its class.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise InputError(f"{path}: missing or ill-typed field: {exc!r}") from exc
    except FloodgaugeError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
