"""Report emitters shared by the experiment harnesses and the CLI."""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Mapping, Sequence
from dataclasses import asdict, fields, is_dataclass

__all__ = ["rows_to_csv", "rows_to_json"]


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


def rows_to_csv(
    rows: Sequence, path: str | None = None, header: Sequence[str] | None = None
) -> str:
    """Serialize dataclass/mapping rows to CSV text (optionally to a file).

    The header is the first row's field names (a dataclass's fields in
    order, a mapping's keys); rows follow ``csv.DictWriter``'s rules for
    missing and extra fields.  A field holding a dataclass is written as
    that dataclass's ``str``: rows are flat records.  Given a ``header``,
    the rows are value tuples in its order — a report's
    :meth:`~repro.core.analysis.CircuitSERReport.ranked_records` — and
    are written as they are.  No rows write no header either.
    """
    rows = list(rows)
    buffer = io.StringIO()
    if rows:
        if header is None:
            header = tuple(_record(rows[0]))
            rows = [_in_header_order(_record(row), header) for row in rows]
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
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

