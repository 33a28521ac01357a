"""Atomic file writing, CSV tables and small serialization helpers."""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import InputError, brief_repr, naming


def format_float(value: float) -> str:
    """Shortest decimal string that parses back to the identical double."""
    return repr(float(value))


def format_flag(value: bool) -> str:
    return "true" if value else "false"


def parse_flag(text: str, name: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"{name} must be true or false")
    return text == "true"


def parse_finite(text: str, name: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


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
            message = str(exc)
            for field in row:  # float() quotes a bad field whole: cut it as brief_repr does
                message = message.replace(repr(field), brief_repr(field))
            raise InputError(f"{path}:{line}: {message}") from exc
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
    path is left as it was and the temp file is removed. The file gets the mode
    that ``open()`` gives a new file: 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = _new_temp_file(path)
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


# mkstemp's flags, write-only
_TEMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL
               | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_BINARY", 0))


def _new_temp_file(path: Path) -> tuple[int, Path]:
    """Create ``<name>.<random>.tmp`` beside path and open it for writing.

    The kernel applies the umask to the 0o666 asked for here, as it does for
    ``open()``; tempfile.mkstemp would ask for 0o600 instead.
    """
    while True:
        tmp = path.parent / f"{path.name}.{os.urandom(6).hex()}.tmp"
        try:
            return os.open(tmp, _TEMP_FLAGS, 0o666), tmp
        except FileExistsError:
            continue


def json_number(value: Any, whole: bool = False) -> float | int:
    """A JSON number as float, or as int when ``whole``.

    A non-number (a bool too) or, when ``whole``, a fraction is a ValueError, not coerced.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            whole and not isinstance(value, int) and not float(value).is_integer()):
        raise ValueError(f"expected a {'whole ' if whole else ''}number, got {brief_repr(value)}")
    return int(value) if whole else float(value)


def _json_object(value: Any) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"expected a JSON object, got {type(value).__name__}")
    return value


def json_field(obj: dict, key: str, parse: Callable[[Any], Any] | None = None,
               optional: bool = False) -> Any:
    """``obj[key]`` through ``parse``; None if the key is absent or null and ``optional``. A
    dotted key such as ``config.num_windows`` reads within the object at ``config``, if any.
    A missing or ill-typed field is an InputError that names the field."""
    value = obj
    try:
        for name in key.split("."):
            value = None if value is None else _json_object(value).get(name)
        if value is None and not optional:
            raise ValueError("missing")
        return value if value is None or parse is None else parse(value)
    except (InputError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"missing or ill-typed field: {key}: {exc}") from exc


def json_text(obj: object) -> str:
    """obj as the text of a JSON file; a value JSON cannot hold is a TypeError."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, obj: object) -> None:
    atomic_write_text(path, json_text(obj))


def read_json(path: str | Path, parse: Callable[[dict], Any]) -> Any:
    """Build an object from a JSON file's top-level object with ``parse``; every error
    names the file, and a number past the integer-digit limit is invalid JSON."""
    with open(path, "r", encoding="utf-8") as fh, naming(path):
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        return parse(_json_object(obj))
