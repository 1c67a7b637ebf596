"""Mark-to-market trading score for probability forecasters.

A forecaster's daily position is their probability minus a reference price
(a betting market, or the mean of a forecaster pair), entered at that price.
The position is re-struck each day: yesterday's holding is closed at today's
reference, so the day's P&L increment is position * price change.  At the
end the final position settles at the realized 0/1 outcome (or at the final
market price when no realization is supplied).  The running cumulative P&L
ranks forecasters at any date, before the event resolves; the settled total
is a strictly proper score in pair mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AlignmentError, StatecastError
from .scoring import BinaryForecastSeries

KIND_MARKET = "market"
KIND_PAIR_MEAN = "pairmean"


@dataclass
class ReferenceSeries:
    """Dated reference prices in [0, 1] that positions are struck against."""

    times: np.ndarray
    values: np.ndarray
    kind: str = KIND_MARKET

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be 1-D and the same length")
        if self.times.size > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if self.values.size and not (self.values.min() >= 0.0 and self.values.max() <= 1.0):
            raise ValueError("reference prices must lie in [0, 1]")


@dataclass
class PositionSeries:
    """Signed position per date (forecast minus reference at that date)."""

    times: np.ndarray
    values: np.ndarray


@dataclass
class PnLSeries:
    """Daily increments and running total, settled or not.

    ``last_position``, ``last_price``, and ``last_time`` carry what is needed
    to settle; ``cumulative`` at any index is the ex-ante score as of that
    date.
    """

    forecaster: str
    times: np.ndarray
    increments: np.ndarray
    cumulative: np.ndarray
    settled: bool
    last_position: float
    last_price: float
    last_time: float

    @property
    def total(self) -> float:
        return float(self.cumulative[-1]) if len(self.cumulative) else 0.0


def _align(times_a: np.ndarray, times_b: np.ndarray):
    common, ia, ib = np.intersect1d(times_a, times_b,
                                    assume_unique=True, return_indices=True)
    if common.size == 0:
        raise AlignmentError("series share no common dates")
    return common, ia, ib


def positions(forecast: BinaryForecastSeries, ref: ReferenceSeries) -> PositionSeries:
    """Daily positions forecast - reference on the common dates (inner join)."""
    common, i_f, i_r = _align(forecast.times, ref.times)
    return PositionSeries(times=common, values=forecast.probs[i_f] - ref.values[i_r])


def mark_to_market(pos: PositionSeries, ref: ReferenceSeries,
                   forecaster: str = "") -> PnLSeries:
    """Re-value the held position at every reference date.

    The increment at date t[k+1] is the position held since the previous
    reference date times the price change; positions update after the mark.
    Refining the reference with intermediate dates leaves the cumulative
    total unchanged (the price changes telescope).
    """
    if pos.times.size == 0:
        raise AlignmentError("no positions to mark")
    if not np.all(np.isin(pos.times, ref.times)):
        raise AlignmentError("every position date must be a reference date")
    start = int(np.searchsorted(ref.times, pos.times[0]))
    # The position held on each reference date: the latest one struck on or
    # before it.
    held = pos.values[np.searchsorted(pos.times, ref.times[start:], side="right") - 1]
    increments = held[:-1] * np.diff(ref.values[start:])
    return PnLSeries(
        forecaster=forecaster,
        times=ref.times[start + 1:].copy(),
        increments=increments,
        cumulative=np.cumsum(increments),
        settled=False,
        last_position=float(held[-1]),
        last_price=float(ref.values[-1]),
        last_time=float(ref.times[-1]),
    )


def settle(pnl: PnLSeries, omega: float | None = None) -> PnLSeries:
    """Append the settlement increment last_position * (omega - last price).

    With no realization the position settles at the final reference price
    (a market that has converged), i.e. a zero increment.  Settling twice is
    an error.
    """
    if pnl.settled:
        raise StatecastError(f"{pnl.forecaster or 'series'} already settled")
    settle_price = pnl.last_price if omega is None else float(omega)
    increment = pnl.last_position * (settle_price - pnl.last_price)
    times = np.append(pnl.times, pnl.last_time)
    increments = np.append(pnl.increments, increment)
    return replace(
        pnl,
        times=times,
        increments=increments,
        cumulative=np.cumsum(increments),
        settled=True,
    )


def trading_score(forecast: BinaryForecastSeries, ref: ReferenceSeries,
                  omega: float | None = None) -> float:
    """Settled cumulative P&L of trading the forecast against the reference."""
    pos = positions(forecast, ref)
    pnl = mark_to_market(pos, ref, forecaster=forecast.forecaster)
    return settle(pnl, omega=omega).total


def pair_mean_reference(a: BinaryForecastSeries,
                        b: BinaryForecastSeries) -> ReferenceSeries:
    """Reference at the mean of two forecasters on their common dates."""
    common, ia, ib = _align(a.times, b.times)
    return ReferenceSeries(times=common,
                           values=(a.probs[ia] + b.probs[ib]) / 2.0,
                           kind=KIND_PAIR_MEAN)


def pair_positions(a: BinaryForecastSeries,
                   b: BinaryForecastSeries) -> tuple[PositionSeries, PositionSeries]:
    """Positions of two forecasters against their own mean, computed jointly
    as +/-(a - b)/2 so the two are exactly opposite in floating point."""
    common, ia, ib = _align(a.times, b.times)
    half_gap = (a.probs[ia] - b.probs[ib]) / 2.0
    return (PositionSeries(common, half_gap),
            PositionSeries(common.copy(), -half_gap))


def pair_trading_scores(a: BinaryForecastSeries, b: BinaryForecastSeries,
                        omega: float | None = None) -> tuple[PnLSeries, PnLSeries]:
    """Settled P&L of two forecasters trading against their own mean.

    Because the joint positions cancel exactly, the game is zero-sum bit for
    bit: the two settled totals always sum to 0.0.
    """
    pos_a, pos_b = pair_positions(a, b)
    ref = pair_mean_reference(a, b)
    pnl_a = mark_to_market(pos_a, ref, a.forecaster)
    pnl_b = mark_to_market(pos_b, ref, b.forecaster)
    return settle(pnl_a, omega=omega), settle(pnl_b, omega=omega)
