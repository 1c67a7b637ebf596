"""The one CSV reader: every input table of the package is read here.

:func:`read_rows` hands each data row of a UTF-8 CSV table to the caller's
parser and names where a fault is: ``file:line: reason`` for a bad row or a
fault of the file itself, ``file: reason`` for a fault of the whole table.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from pathlib import Path

from .errors import IngestError, StatecastError

#: Faults of malformed input, raised by parsing or by the library types.
INPUT_ERRORS = (ValueError, KeyError, TypeError, StatecastError)


def named(name, fn):
    """``fn()``, with an input fault re-raised naming ``name``."""
    try:
        return fn()
    except INPUT_ERRORS as exc:
        raise IngestError(f"{name}: {exc}") from exc


def read_rows(source, columns, parse_row, finish, skipped=None):
    """Call ``parse_row(row, line)`` on each data row of the CSV ``source``
    (a path or a text stream), ``row`` keyed by the header, which must hold
    ``columns``, and ``line`` its physical line; then return ``finish()``.

    A row that ``parse_row`` rejects or that has too few fields stops the
    read, unless ``skipped`` is a list: then ``(line, reason)`` is appended
    to it and reading goes on.  A fault of the file itself always stops it.
    """
    is_path = isinstance(source, (str, Path))
    name = source if is_path else getattr(source, "name", "<stream>")
    try:
        stream = open(source, encoding="utf-8", newline="") if is_path else nullcontext(source)
    except OSError as exc:
        raise IngestError(f"{name}: cannot read: {exc.strerror}") from exc
    with stream as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"missing column(s) {', '.join(missing)}")
            for row in filter(None, reader):  # blank lines hold no row
                try:
                    if len(row) < len(header):
                        raise ValueError("too few fields")
                    parse_row(dict(zip(header, row)), reader.line_num)
                except INPUT_ERRORS as exc:
                    if skipped is None:
                        raise
                    skipped.append((reader.line_num, str(exc)))
        except UnicodeDecodeError as exc:
            line = _undecodable_line(source) if is_path else "?"
            raise IngestError(f"{name}:{line}: not UTF-8: {exc.reason}") from exc
        except (csv.Error, *INPUT_ERRORS) as exc:
            raise IngestError(f"{name}:{max(reader.line_num, 1)}: {exc}") from exc
    return named(name, finish)


def _undecodable_line(path) -> int:
    """The line of ``path`` holding its first byte that is not UTF-8.  The
    text reader decodes ahead of its rows, so the bytes are read again, on
    this error path only, each as one Latin-1 character so that lines end
    where the CSV reader ends them; no UTF-8 sequence spans a line end."""
    with open(path, encoding="latin-1", newline="") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                line.encode("latin-1").decode("utf-8")
            except UnicodeDecodeError:
                return lineno
