"""The one CSV reader: every input table of the package is read here.

:func:`read_rows` hands the caller's parser a tuple of each data row's
cells, under the columns the table names (or names by a function of the
header), and names where a fault is: ``file:line: reason`` for a bad row or
a fault of the file itself, ``file: reason`` for a fault of the whole table.
"""

from __future__ import annotations

import csv
from contextlib import nullcontext
from datetime import date
from operator import itemgetter
from pathlib import Path

from .errors import IngestError, StatecastError

#: Faults of malformed input, raised by parsing or by the library types.
INPUT_ERRORS = (ValueError, KeyError, TypeError, StatecastError)
_UNCLOSED = "a quoted field is still open at the end of the file"


def named(name, fn):
    """``fn()``, with an input fault re-raised naming ``name``."""
    try:
        return fn()
    except INPUT_ERRORS as exc:
        raise IngestError(f"{name}: {exc}") from exc


def read_rows(source, columns, parse_row, finish, skipped=None):
    """Call ``parse_row(cells, line)`` on each data row of the CSV ``source``
    (a path or a text stream), ``cells`` the tuple of the row's cells under
    ``columns``, in that order, and ``line`` its physical line; then return
    ``finish()``.  The header must hold each column once.  ``columns`` may
    be a function of the header that returns them.

    A row that ``parse_row`` rejects or that has too few fields stops the
    read, unless ``skipped`` is a list: then ``(line, reason)`` is appended
    to it and reading goes on; else a table with no row stops it too.  A
    fault of the file itself always stops it.  Quoting follows the csv
    module's strict rule: bad CSV syntax, such as a quoted field still open
    at the end of the file or text after a closing quote, is named at the
    first line of its row.
    """
    is_path = isinstance(source, (str, Path))
    name = source if is_path else getattr(source, "name", "<stream>")
    try:
        stream = open(source, encoding="utf-8", newline="") if is_path else nullcontext(source)
    except OSError as exc:
        raise IngestError(f"{name}: cannot read: {exc.strerror}") from exc
    with stream as fh:
        reader = csv.reader(fh, strict=True)
        start = 1  # the line the record in hand starts on
        try:
            header = next(reader, [])
            start = reader.line_num + 1
            columns = columns(header) if callable(columns) else columns
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"missing column(s) {', '.join(missing)}")
            repeated = [c for c in dict.fromkeys(columns) if header.count(c) > 1]
            if repeated:
                raise ValueError(f"repeated column(s) {', '.join(repeated)}")
            at = [header.index(c) for c in columns]
            cells = itemgetter(*at) if len(at) > 1 else lambda row: (row[at[0]],)
            row = None
            for record in reader:
                if record:  # blank lines hold no row
                    row = record
                    try:
                        if len(row) < len(header):
                            raise ValueError("too few fields")
                        parse_row(cells(row), reader.line_num)
                    except INPUT_ERRORS as exc:
                        if skipped is None:
                            raise
                        skipped.append((reader.line_num, str(exc)))
                start = reader.line_num + 1
        except UnicodeDecodeError as exc:
            line = _undecodable_line(source) if is_path else "?"
            raise IngestError(f"{name}:{line}: not UTF-8: {exc.reason}") from exc
        except csv.Error as exc:
            reason = _UNCLOSED if str(exc) == "unexpected end of data" else exc
            raise IngestError(f"{name}:{start}: {reason}") from exc
        except INPUT_ERRORS as exc:
            raise IngestError(f"{name}:{max(reader.line_num, 1)}: {exc}") from exc
    if row is None and skipped is None:
        raise IngestError(f"{name}: no rows")
    return named(name, finish)


def iso_date(text: str) -> date:
    """A ``YYYY-MM-DD`` day; forms only some Pythons read, such as
    ``20161108``, are refused with the message of those that refuse them."""
    text = text.strip()
    if len(text) != 10 or text[4] != "-" or text[7] != "-" or not text.isascii():
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


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
