"""Atomic file writing, CSV tables and small serialization helpers."""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from .errors import InputError


def format_float(value: float) -> str:
    """Shortest decimal string that parses back to the identical double."""
    return repr(float(value))


def format_flag(value: bool) -> str:
    return "true" if value else "false"


def parse_flag(text: str, name: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"{name} must be true or false")
    return text == "true"


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


def read_table(path: str | Path, table: Table) -> list:
    """Parse every non-blank row after the header; errors name file and line."""
    rows = []
    parse = table.parse
    width = len(table.header)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != table.header:
                raise InputError(f"{path}:1: expected header {','.join(table.header)}")
            for row in reader:
                if not row:
                    continue
                if len(row) != width:
                    raise InputError(f"{path}:{reader.line_num}: expected {width} fields")
                try:
                    rows.append(parse(row))
                except (ValueError, InputError) as exc:
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
    return rows


def table_text(table: Table, rows: Iterable) -> str:
    """Render rows as CSV text, header line first."""
    lines = [",".join(table.header)]
    lines.extend(map(table.format, rows))
    return "\n".join(lines) + "\n"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to a temp file in the target directory, then rename over path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str | Path, obj: object) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from exc
