"""Poll and historical-result ingestion, spread computation, kernel smoothing.

Input files are UTF-8 CSVs with a header row, read by :mod:`.tables`.
Polls carry two major-candidate percentages; the modeled quantity everywhere
downstream is their *spread* (candidate-1 percent minus candidate-2 percent).
Time is measured in days-to-election, so t = 0 is election day and larger t
is earlier in the campaign.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from .errors import CalibrationError
from .states import NATIONAL, is_state
from .tables import read_rows


class SampleType(enum.Enum):
    REGISTERED_VOTERS = "RegisteredVoters"
    LIKELY_VOTERS = "LikelyVoters"
    ALL = "All"


_SAMPLE_TYPE_ALIASES = {
    "registeredvoters": SampleType.REGISTERED_VOTERS,
    "registered voters": SampleType.REGISTERED_VOTERS,
    "rv": SampleType.REGISTERED_VOTERS,
    "likelyvoters": SampleType.LIKELY_VOTERS,
    "likely voters": SampleType.LIKELY_VOTERS,
    "lv": SampleType.LIKELY_VOTERS,
    "all": SampleType.ALL,
    "a": SampleType.ALL,
}

#: Columns every poll CSV must provide, in any order.
POLL_COLUMNS = ("pollster", "state", "date", "sample_size", "sample_type",
                "pct_c1", "pct_c2")

HISTORICAL_COLUMNS = ("year", "state", "state_spread", "national_spread")

FIRST_HISTORICAL_YEAR = 1976


@dataclass(frozen=True)
class PollRecord:
    """One poll: who asked, where, when, and the two major-candidate shares.

    ``days_to_election`` is derived from the poll date at parse time.
    """

    pollster: str
    state: str
    date: date
    sample_size: int
    sample_type: SampleType
    pct_c1: float
    pct_c2: float
    days_to_election: float


@dataclass(frozen=True)
class SpreadObservation:
    """A poll reduced to (state, days-to-election, c1-minus-c2 spread)."""

    state: str
    t: float
    spread: float
    sample_size: int


@dataclass(frozen=True)
class HistoricalResult:
    """A past election's state and national popular-vote spreads."""

    year: int
    state: str
    state_spread: float
    national_spread: float


@dataclass
class ParseResult:
    """Parsed rows plus a report of rows that were skipped or flagged.

    ``skipped`` and ``flagged`` hold (line number, reason) pairs; flagged rows
    were kept.
    """

    records: list
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
    bandwidth: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-D and the same length")
        if self.grid.size and not np.all(np.diff(self.grid) > 0):
            raise ValueError("grid must be strictly ascending")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

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
    """Parse a poll CSV (a path or a text stream) into :class:`PollRecord`
    rows.

    Required columns are ``pollster,state,date,sample_size,sample_type,
    pct_c1,pct_c2`` (ISO-8601 dates); any extra columns are ignored.  Rows
    with missing or invalid required fields are skipped and reported in the
    result with their line, never raised.
    """
    result = ParseResult(records=[])

    def parse(cells, line):
        result.records.append(_parse_poll_row(cells, election_date))

    return read_rows(source, POLL_COLUMNS, parse, lambda: result, skipped=result.skipped)


def _cell_fault(key, text, exc=None) -> ValueError:
    """The fault of the required cell ``key``: empty, or ``text`` that did
    not parse (``exc``)."""
    return ValueError(f"bad {key}: {exc}" if text else f"missing {key}")


def _require(cell, key, kind=str):
    """The non-empty ``cell`` of the column ``key``, parsed by ``kind``."""
    value = cell.strip()
    if not value:
        raise _cell_fault(key, value)
    try:
        return kind(value)
    except ValueError as exc:
        raise _cell_fault(key, value, exc) from exc


def _parse_poll_row(cells, election_date: date) -> PollRecord:
    # Cells in POLL_COLUMNS order, each stripped once; the checks run in a
    # fixed order, so a row with several faults is always reported by one.
    pollster, state, text, sample_size, raw_type, pct_c1, pct_c2 = cells
    state = state.strip().upper()
    if not state:
        raise _cell_fault("state", state)
    if state != NATIONAL and not is_state(state):
        raise ValueError(f"unknown state code {state!r}")
    text = text.strip()
    try:
        poll_date = date.fromisoformat(text)
    except ValueError as exc:
        raise _cell_fault("date", text, exc) from exc
    if poll_date > election_date:
        raise ValueError("poll dated after the election")
    try:
        key, text = "sample_size", sample_size.strip()
        sample_size = int(text)
        key, text = "pct_c1", pct_c1.strip()
        pct_c1 = float(text)
        key, text = "pct_c2", pct_c2.strip()
        pct_c2 = float(text)
    except ValueError as exc:
        raise _cell_fault(key, text, exc) from exc
    if sample_size < 1:
        raise ValueError(f"sample_size {sample_size} < 1")
    if not (0.0 <= pct_c1 <= 100.0 and 0.0 <= pct_c2 <= 100.0):
        raise ValueError("percentage outside [0, 100]")
    if pct_c1 + pct_c2 > 100.0:
        raise ValueError("pct_c1 + pct_c2 exceeds 100")
    raw_type = raw_type.strip()
    if not raw_type:
        raise _cell_fault("sample_type", raw_type)
    sample_type = _SAMPLE_TYPE_ALIASES.get(raw_type.replace("_", " ").lower())
    if sample_type is None:
        raise ValueError(f"unknown sample_type {raw_type!r}")
    pollster = pollster.strip()
    if not pollster:
        raise _cell_fault("pollster", pollster)

    return PollRecord(
        pollster=pollster,
        state=state,
        date=poll_date,
        sample_size=sample_size,
        sample_type=sample_type,
        pct_c1=pct_c1,
        pct_c2=pct_c2,
        days_to_election=float((election_date - poll_date).days),
    )


def to_spreads(polls) -> list[SpreadObservation]:
    """Turn poll records into spread observations, preserving order."""
    return [
        SpreadObservation(
            state=rec.state,
            t=rec.days_to_election,
            spread=rec.pct_c1 - rec.pct_c2,
            sample_size=rec.sample_size,
        )
        for rec in polls
    ]


def default_grid(obs) -> np.ndarray:
    """Daily grid (integer days-to-election) spanning the observations."""
    ts = [o.t for o in obs]
    if not ts:
        raise CalibrationError("no observations to build a grid from")
    lo = math.floor(min(ts))
    hi = math.ceil(max(ts))
    return np.arange(lo, hi + 1, dtype=float)


def smooth_national(obs, bandwidth: float = 5.0, grid=None) -> SmoothedSeries:
    """Nadaraya-Watson estimate of the national spread on a daily grid.

    value(t) = sum_k K((t - t_k)/h) * spread_k / sum_k K((t - t_k)/h) with
    K(u) = exp(-u^2 / 2).  If every kernel weight underflows to zero at some
    grid point, that point falls back to the nearest observation's spread and
    a warning reports how many points did so.
    """
    obs = list(obs)
    if not obs:
        raise CalibrationError("cannot smooth an empty observation list")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if grid is None:
        grid = default_grid(obs)
    grid = np.asarray(grid, dtype=float)

    t_obs = np.array([o.t for o in obs], dtype=float)
    spreads = np.array([o.spread for o in obs], dtype=float)

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
            RuntimeWarning,
            stacklevel=2,
        )
    return SmoothedSeries(grid=grid, values=values, bandwidth=bandwidth)


def load_historical(source) -> ParseResult:
    """Parse a ``year,state,state_spread,national_spread`` CSV (a path or a
    text stream).

    Malformed rows are skipped and reported with their line.  Rows before
    1976 are kept but flagged.  Duplicate (year, state) rows are all kept;
    deduplication is the calibrator's concern.
    """
    result = ParseResult(records=[])

    def parse(cells, line):
        year, state, state_spread, national_spread = cells
        state = _require(state, "state").upper()
        if not is_state(state):
            raise ValueError(f"unknown state code {state!r}")
        year = _require(year, "year", int)
        state_spread = _require(state_spread, "state_spread", float)
        national_spread = _require(national_spread, "national_spread", float)
        if not (math.isfinite(state_spread) and math.isfinite(national_spread)):
            raise ValueError("non-finite spread")
        if year < FIRST_HISTORICAL_YEAR:
            result.flagged.append((line, f"year {year} precedes {FIRST_HISTORICAL_YEAR}"))
        result.records.append(HistoricalResult(year=year, state=state,
                                               state_spread=state_spread,
                                               national_spread=national_spread))

    return read_rows(source, HISTORICAL_COLUMNS, parse, lambda: result,
                     skipped=result.skipped)
