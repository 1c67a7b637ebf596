"""Poll and historical-result ingestion, spread computation, kernel smoothing.

Input files are UTF-8 CSVs with a header row, read by :mod:`.tables`.
Polls parse into one :class:`Polls` table of columns, in file order: state,
days-to-election, the two major-candidate percentages and the sample size.
The modeled quantity everywhere downstream is their *spread* (candidate-1
percent minus candidate-2 percent).  Time is measured in days-to-election,
so t = 0 is election day and larger t is earlier in the campaign.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import CalibrationError
from .states import state_code
from .tables import iso_date, read_rows


#: Accepted ``sample_type`` spellings (lower case, ``_`` read as a space):
#: registered voters, likely voters, or all adults.
_SAMPLE_TYPES = frozenset({"registeredvoters", "registered voters", "rv",
                          "likelyvoters", "likely voters", "lv", "all", "a"})

#: Columns every poll CSV must provide, in any order.
POLL_COLUMNS = ("pollster", "state", "date", "sample_size", "sample_type",
                "pct_c1", "pct_c2")

HISTORICAL_COLUMNS = ("year", "state", "state_spread", "national_spread")

FIRST_HISTORICAL_YEAR = 1976


class KernelUnderflowWarning(RuntimeWarning):
    """Every kernel weight underflowed at some grid points, so the smoother
    used the nearest observation there."""


@dataclass(eq=False)
class Polls:
    """Polls as columns, one entry per poll in file order: state code,
    days-to-election ``t`` (from the poll date), the two major-candidate
    percentages and the sample size (a float).  A poll's pollster, date and
    sample type are checked when it is parsed, not kept.
    """

    state: np.ndarray
    t: np.ndarray
    pct_c1: np.ndarray
    pct_c2: np.ndarray
    sample_size: np.ndarray

    def __post_init__(self):
        self.state = np.asarray(self.state, dtype=str)
        for name in ("t", "pct_c1", "pct_c2", "sample_size"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        columns = (self.state, self.t, self.pct_c1, self.pct_c2, self.sample_size)
        if any(col.ndim != 1 or len(col) != len(self.t) for col in columns):
            raise ValueError("poll columns must be 1-D and the same length")

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class ParseResult:
    """Parsed rows plus a report of rows that were skipped or flagged.

    ``records`` is a :class:`Polls` table for polls and, for historical
    results, ``{state: (national_spread, state_spread)}`` float arrays in
    file order.  ``skipped`` and ``flagged`` hold (line number, reason)
    pairs; flagged rows were kept.
    """

    records: Polls | dict[str, tuple[np.ndarray, np.ndarray]]
    skipped: list[tuple[int, str]] = field(default_factory=list)
    flagged: list[tuple[int, str]] = field(default_factory=list)

    @property
    def n_skipped(self) -> int:
        return len(self.skipped)


@dataclass
class SmoothedSeries:
    """Gaussian-kernel regression of national spread on days-to-election.

    ``grid`` is strictly ascending in days-to-election, so index 0 is the
    point nearest election day.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-D and the same length")
        if not self.grid.size:
            raise ValueError("grid must not be empty")
        if not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly ascending")

    def values_at(self, ts) -> np.ndarray:
        """Smoothed value at the grid point nearest each requested time; a
        time halfway between two points takes the lower one."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        idx = np.searchsorted(self.grid, ts)
        left = np.maximum(idx - 1, 0)
        right = np.minimum(idx, len(self.grid) - 1)
        use_left = np.abs(ts - self.grid[left]) <= np.abs(self.grid[right] - ts)
        return self.values[np.where(use_left, left, right)]


def parse_polls(source, election_date: date) -> ParseResult:
    """Parse a poll CSV (a path or a text stream) into a :class:`Polls`
    table.

    Required columns are ``pollster,state,date,sample_size,sample_type,
    pct_c1,pct_c2`` (``YYYY-MM-DD`` dates); any extra columns are ignored.  Rows
    with missing or invalid required fields are skipped and reported in the
    result with their line, never raised.
    """
    rows, skipped = [], []

    def parse(cells, line):
        rows.append(_parse_poll_row(cells, election_date))

    def finish():
        return ParseResult(records=Polls(*(list(zip(*rows)) or [()] * 5)), skipped=skipped)

    return read_rows(source, POLL_COLUMNS, parse, finish, skipped=skipped)


def _require(cell, key, kind=str):
    """The non-empty ``cell`` of the column ``key``, parsed by ``kind``; an
    empty cell is ``missing <key>``, one ``kind`` refuses is ``bad <key>``."""
    value = cell.strip()
    if not value:
        raise ValueError(f"missing {key}")
    try:
        return kind(value)
    except ValueError as exc:
        raise ValueError(f"bad {key}: {exc}") from exc


def _parse_poll_row(cells, election_date: date) -> tuple:
    # Cells in POLL_COLUMNS order; the checks run in a fixed order, so a row
    # with several faults is always reported by one.  Returns the row's Polls
    # columns, in field order.
    pollster, state, poll_date, sample_size, sample_type, pct_c1, pct_c2 = cells
    state = state_code(_require(state, "state"), national=True)
    poll_date = _require(poll_date, "date", iso_date)
    if poll_date > election_date:
        raise ValueError("poll dated after the election")
    sample_size = _require(sample_size, "sample_size", int)
    pct_c1 = _require(pct_c1, "pct_c1", float)
    pct_c2 = _require(pct_c2, "pct_c2", float)
    if sample_size < 1:
        raise ValueError(f"sample_size {sample_size} < 1")
    if sample_size > sys.float_info.max:  # Polls holds it as a float
        raise ValueError("sample_size is too large")
    if not (0.0 <= pct_c1 <= 100.0 and 0.0 <= pct_c2 <= 100.0):
        raise ValueError("percentage outside [0, 100]")
    if pct_c1 + pct_c2 > 100.0:
        raise ValueError("pct_c1 + pct_c2 exceeds 100")
    sample_type = _require(sample_type, "sample_type")
    if sample_type.replace("_", " ").lower() not in _SAMPLE_TYPES:
        raise ValueError(f"unknown sample_type {sample_type!r}")
    _require(pollster, "pollster")
    return state, float((election_date - poll_date).days), pct_c1, pct_c2, sample_size


def to_spreads(polls: Polls) -> np.ndarray:
    """The spread column, ``pct_c1 - pct_c2``, in the table's order."""
    return polls.pct_c1 - polls.pct_c2


def smooth_national(t, spreads, bandwidth: float = 5.0, grid=None) -> SmoothedSeries:
    """Nadaraya-Watson estimate of the national spread on a daily grid.

    ``t`` and ``spreads`` are the national polls' days-to-election and
    spreads.  value(g) = sum_k K((g - t_k)/h) * spread_k / sum_k K((g -
    t_k)/h) with K(u) = exp(-u^2 / 2).  The default grid is every whole day
    from the earliest to the latest poll.  If every kernel weight underflows
    to zero at some grid point, that point falls back to the nearest poll's
    spread and a :class:`KernelUnderflowWarning` reports how many points did
    so.
    """
    t_obs = np.asarray(t, dtype=float)
    spreads = np.asarray(spreads, dtype=float)
    if t_obs.ndim != 1 or t_obs.shape != spreads.shape:
        raise ValueError("t and spreads must be 1-D and the same length")
    if not t_obs.size:
        raise CalibrationError("cannot smooth an empty observation list")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if grid is None:
        grid = np.arange(math.floor(t_obs.min()), math.ceil(t_obs.max()) + 1, dtype=float)
    grid = np.asarray(grid, dtype=float)

    # A u^2 that overflows is +inf, and exp(-inf) = 0 is the weight it stands for.
    with np.errstate(over="ignore"):
        u = (grid[:, None] - t_obs[None, :]) / bandwidth
        weights = np.exp(-0.5 * u * u)
    wsum = weights.sum(axis=1)

    values = np.empty_like(grid)
    ok = wsum > 0.0
    values[ok] = (weights[ok] @ spreads) / wsum[ok]
    n_fallback = int(np.count_nonzero(~ok))
    if n_fallback:
        for i in np.nonzero(~ok)[0]:
            values[i] = spreads[np.argmin(np.abs(t_obs - grid[i]))]
        warnings.warn(
            f"kernel weights underflowed at {n_fallback} grid point(s); "
            "used nearest observation there",
            KernelUnderflowWarning,
            stacklevel=2,
        )
    return SmoothedSeries(grid=grid, values=values)


def load_historical(source) -> ParseResult:
    """Parse a ``year,state,state_spread,national_spread`` CSV (a path or a
    text stream) into each state's ``(national_spread, state_spread)``
    arrays, its rows in file order.

    Malformed rows are skipped and reported with their line.  Rows before
    1976 are kept but flagged; the year is checked, not kept.  Duplicate
    (year, state) rows are all kept.
    """
    rows: dict[str, tuple[list[float], list[float]]] = {}
    result = ParseResult(records={})

    def parse(cells, line):
        year, state, state_spread, national_spread = cells
        state = state_code(_require(state, "state"))
        year = _require(year, "year", int)
        state_spread = _require(state_spread, "state_spread", float)
        national_spread = _require(national_spread, "national_spread", float)
        if not (math.isfinite(state_spread) and math.isfinite(national_spread)):
            raise ValueError("non-finite spread")
        if year < FIRST_HISTORICAL_YEAR:
            result.flagged.append((line, f"year {year} precedes {FIRST_HISTORICAL_YEAR}"))
        national, spreads = rows.setdefault(state, ([], []))
        national.append(national_spread)
        spreads.append(state_spread)

    def finish():
        result.records = {state: (np.array(national), np.array(spreads))
                          for state, (national, spreads) in rows.items()}
        return result

    return read_rows(source, HISTORICAL_COLUMNS, parse, finish, skipped=result.skipped)
