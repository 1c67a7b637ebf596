"""Mark-to-market trading score for probability forecasters.

A forecaster's daily position is their probability minus a reference price,
entered at that price.  A reference is a :class:`BinaryForecastSeries` of
prices: a betting market, named ``"market"``, or the mean of a forecaster
pair, named ``"pairmean"``.  The position is re-struck each day: yesterday's
holding is closed at today's reference, so the day's P&L increment is
position * price change.  At the end the final position settles at the
realized 0/1 outcome (or at the final reference price when no realization is
supplied).  The running cumulative P&L ranks forecasters at any date, before
the event resolves; the settled total is a strictly proper score in pair
mode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import AlignmentError, StatecastError
from .scoring import BinaryForecastSeries


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


def positions(forecast: BinaryForecastSeries, ref: BinaryForecastSeries) -> PositionSeries:
    """Daily positions forecast - reference on the common dates (inner join)."""
    common, i_f, i_r = _align(forecast.times, ref.times)
    return PositionSeries(times=common, values=forecast.probs[i_f] - ref.probs[i_r])


def mark_to_market(pos: PositionSeries, ref: BinaryForecastSeries,
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
    increments = held[:-1] * np.diff(ref.probs[start:])
    return PnLSeries(
        forecaster=forecaster,
        times=ref.times[start + 1:].copy(),
        increments=increments,
        cumulative=np.cumsum(increments),
        settled=False,
        last_position=float(held[-1]),
        last_price=float(ref.probs[-1]),
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


def pair_trading_scores(a: BinaryForecastSeries, b: BinaryForecastSeries,
                        omega: float | None = None) -> tuple[PnLSeries, PnLSeries]:
    """Settled P&L of two forecasters trading against their own mean.

    The positions are +/-(a - b)/2 from one subtraction, so they cancel
    exactly and the game is zero-sum bit for bit: the two settled totals
    always sum to 0.0.
    """
    common, ia, ib = _align(a.times, b.times)
    ref = BinaryForecastSeries("pairmean", common, (a.probs[ia] + b.probs[ib]) / 2.0)
    half_gap = (a.probs[ia] - b.probs[ib]) / 2.0
    pnl_a = mark_to_market(PositionSeries(common, half_gap), ref, a.forecaster)
    pnl_b = mark_to_market(PositionSeries(common, -half_gap), ref, b.forecaster)
    return settle(pnl_a, omega=omega), settle(pnl_b, omega=omega)
