"""Report emitters shared by the experiment harnesses and the CLI."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping, Sequence
from dataclasses import asdict, fields, is_dataclass
from operator import attrgetter

__all__ = ["rows_to_csv", "rows_to_json", "format_columns"]


def _as_dict(row) -> dict:
    if is_dataclass(row) and not isinstance(row, type):
        return asdict(row)
    if isinstance(row, Mapping):
        return dict(row)
    raise TypeError(f"cannot serialize row of type {type(row).__name__}")


def _record(row) -> Mapping:
    """A dataclass row's fields (read off the row, not deep-copied like
    ``asdict`` does), or a mapping row itself."""
    if is_dataclass(row) and not isinstance(row, type):
        return {field.name: getattr(row, field.name) for field in fields(row)}
    if isinstance(row, Mapping):
        return row
    raise TypeError(f"cannot serialize row of type {type(row).__name__}")


def _in_header_order(record: Mapping, header: tuple[str, ...]) -> list:
    """``csv.DictWriter``'s rules: a field the header lacks raises, a
    header field the record lacks is written as ``""``."""
    extra = record.keys() - header
    if extra:
        raise ValueError(
            "dict contains fields not in fieldnames: "
            + ", ".join(repr(name) for name in extra)
        )
    return [record.get(name, "") for name in header]


def rows_to_csv(rows: Sequence, path: str | None = None) -> str:
    """Serialize dataclass/mapping rows to CSV text (optionally to a file).

    The header is the first row's field names (a dataclass's fields in
    order, a mapping's keys); rows follow ``csv.DictWriter``'s rules for
    missing and extra fields.  A field holding a dataclass is written as
    that dataclass's ``str``: rows are flat records.
    """
    rows = list(rows)
    buffer = io.StringIO()
    if rows:
        header = tuple(_record(rows[0]))
        writer = csv.writer(buffer)
        writer.writerow(header)
        # Rows of the first row's dataclass type — every row, in practice —
        # are read with one attrgetter call each.
        first = type(rows[0])
        fast = (
            attrgetter(*header)
            if len(header) > 1 and not isinstance(rows[0], Mapping)
            else None
        )
        writer.writerows(
            fast(row)
            if fast is not None and type(row) is first
            else _in_header_order(_record(row), header)
            for row in rows
        )
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text


def rows_to_json(rows: Sequence, path: str | None = None) -> str:
    """Serialize dataclass/mapping rows to a JSON array (optionally to a file)."""
    text = json.dumps([_as_dict(row) for row in rows], indent=2, default=str)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def format_columns(
    header: Sequence[str], rows: Sequence[Sequence], min_width: int = 6
) -> str:
    """Simple aligned-column ASCII table."""
    table = [list(map(str, header))] + [list(map(str, row)) for row in rows]
    widths = [
        max(min_width, max(len(row[i]) for row in table))
        for i in range(len(header))
    ]
    lines = []
    for row_number, row in enumerate(table):
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
        if row_number == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    return "\n".join(lines)
