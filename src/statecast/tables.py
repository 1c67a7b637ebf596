"""The one CSV reader: every input table of the package is read here.

:func:`read_rows` yields the cells tuple of each data row of a table, under
the columns it names, to a plain ``for`` loop in its ``with`` block, and
names where a fault is: ``file:line: reason`` for a bad row or a fault of
the file itself, ``file: reason`` for a fault of the whole table.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager, nullcontext
from datetime import date
from itertools import chain
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


def table_name(source) -> str:
    """How a message names a table: by its path, or by its stream's name."""
    return source if isinstance(source, (str, Path)) else getattr(source, "name", "<stream>")


@contextmanager
def read_rows(source, columns, skipped=None):
    """Open the CSV ``source`` (a path or a text stream), check that its
    header holds each of ``columns`` (or ``columns(header)``) once, and yield
    an iterator over each data row's cells tuple, in ``columns`` order, and
    the csv reader, whose ``line_num`` is the line the row in hand ends on.
    An input fault raised in the block, or a short row, stops the read there,
    unless ``skipped`` is a list: then short rows go on it as ``(line,
    reason)``, as the caller's own faults do.  No row in a strict table, a
    fault of the file and bad CSV syntax (named at its row's first line)
    stop it too."""
    is_path, name = isinstance(source, (str, Path)), table_name(source)
    try:
        stream = open(source, encoding="utf-8", newline="") if is_path else nullcontext(source)
    except OSError as exc:
        raise IngestError(f"{name}: cannot read: {exc.strerror}") from exc
    with stream as fh:
        lines = iter(fh)
        reader = csv.reader(chain(_unmarked(lines), lines), strict=True)
        cells = _cells(reader, columns, skipped, name, source if is_path else None)
        try:
            next(cells)  # the header, checked
            yield cells, reader
        except IngestError:  # named already
            raise
        except INPUT_ERRORS as exc:
            raise IngestError(f"{name}:{max(reader.line_num, 1)}: {exc}") from exc


def _unmarked(lines):
    """The first of ``lines`` without a leading UTF-8 byte-order mark, which
    spreadsheet programs write before a "CSV UTF-8" header; taken off before
    the csv reader sees the line, it is never part of the first cell, quoted
    or not.  The line is read at the reader's first step, so a fault of it
    is named as any other."""
    for line in lines:
        yield line.removeprefix("\ufeff")
        return


def _cells(reader, columns, skipped, name, path):
    """Checks the header, yields None, then each data row's cells; its state
    is these locals, so a row costs no call or store but the loop's own."""
    start = 1  # the line the record in hand starts on
    try:
        header = next(reader, [])
        start = reader.line_num + 1
        columns = columns(header) if callable(columns) else columns
        for why, bad in (("missing", [c for c in columns if c not in header]),
                         ("repeated", [c for c in dict.fromkeys(columns) if header.count(c) > 1])):
            if bad:
                raise ValueError(f"{why} column(s) {', '.join(bad)}")
        at, width, row = [header.index(c) for c in columns], len(header), None
        cells = itemgetter(*at) if len(at) > 1 else lambda row: (row[at[0]],)
        yield
        for record in reader:
            if len(record) >= width:
                row = record
                yield cells(record)
            elif record:  # blank lines hold no row
                if skipped is None:
                    raise ValueError("too few fields")
                skipped.append((reader.line_num, "too few fields"))
            start = reader.line_num + 1
    except UnicodeDecodeError as exc:
        line = _undecodable_line(path) if path is not None else "?"
        raise IngestError(f"{name}:{line}: not UTF-8: {exc.reason}") from exc
    except csv.Error as exc:
        reason = _UNCLOSED if str(exc) == "unexpected end of data" else exc
        raise IngestError(f"{name}:{start}: {reason}") from exc
    if row is None and skipped is None:
        raise IngestError(f"{name}: no rows")


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
