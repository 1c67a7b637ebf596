"""Per-state regression calibration and market-volatility estimation.

Each state's spread is regressed (OLS, in levels) on the kernel-smoothed
national spread evaluated at the nearest grid point to each of its polls,
its rows of the poll table in file order.  States with too few polls are
calibrated instead from historical election results: state spread on
national spread across past cycles.  The market side estimates a
per-sqrt(day) diffusion volatility from one-day changes of the smoothed
series plus a sampling-error component from national poll sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import (
    CalibrationError,
    ConfigurationError,
    DegenerateDesignError,
    InsufficientDataError,
)
from .ingest import Polls, SmoothedSeries, to_spreads
from .states import NATIONAL, state_code

#: Fewer state polls than this is considered uninformative.
MIN_POLLS = 4

SOURCE_POLLS = "polls"
SOURCE_HISTORICAL = "historical"


def _check_finite(obj, names) -> None:
    """Store each named field of the frozen ``obj`` as a finite Python float."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(f"{name} must be a finite number, got an integer too large "
                             "for a float") from None
        if not math.isfinite(number):
            raise ValueError(f"{name} must be a finite number, got {value!r}")
        object.__setattr__(obj, name, number)


@dataclass(frozen=True)
class StateCalibration:
    """Fitted line spread_state = alpha + beta * spread_national + noise."""

    state: str
    alpha: float
    beta: float
    sigma_eps: float
    n_obs: int
    source: str

    def __post_init__(self):
        _check_finite(self, ("alpha", "beta", "sigma_eps"))
        if self.sigma_eps < 0:
            raise ValueError("sigma_eps must be nonnegative")
        if isinstance(self.n_obs, bool) or not isinstance(self.n_obs, Integral) or self.n_obs < 0:
            raise ValueError(f"n_obs must be a count, got {self.n_obs!r}")
        if self.source not in (SOURCE_POLLS, SOURCE_HISTORICAL):
            raise ValueError(f"unknown calibration source {self.source!r}")


@dataclass(frozen=True)
class MarketCalibration:
    """National diffusion inputs: volatilities, current level, horizon."""

    sigma_samp: float
    sigma_m: float
    m_current: float
    horizon: float

    def __post_init__(self):
        _check_finite(self, ("sigma_samp", "sigma_m", "m_current", "horizon"))
        if self.sigma_samp < 0 or self.sigma_m < 0:
            raise ValueError("volatilities must be nonnegative")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")

    @property
    def sigma_total(self) -> float:
        return self.sigma_samp + self.sigma_m


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Slope/intercept/residual-sigma of y on x, from at least two points.

    sigma uses the n-2 divisor (two fitted parameters); with exactly two
    points the residuals are identically zero, so sigma is 0.
    """
    n = len(x)
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0.0:
        raise DegenerateDesignError("regressor is constant; slope unidentifiable")
    beta = float(np.sum((x - xbar) * (y - ybar))) / sxx
    alpha = float(ybar - beta * xbar)
    if n == 2:
        return alpha, beta, 0.0
    resid = y - (alpha + beta * x)
    sigma = math.sqrt(float(np.sum(resid**2)) / (n - 2))
    return alpha, beta, sigma


def calibrate_state(
    state: str,
    t,
    spreads,
    national: SmoothedSeries,
) -> StateCalibration:
    """OLS of one state's poll spreads on the smoothed national spread.

    ``t`` and ``spreads`` are the state's polls' days-to-election and
    spreads; each poll is matched to the national value at the grid point
    nearest its ``t``.  Raises :class:`InsufficientDataError` when fewer
    than ``MIN_POLLS`` polls exist, so callers fall back to history,
    and :class:`DegenerateDesignError` when the matched national values are
    constant.
    """
    n = len(t)
    if len(spreads) != n:
        raise ValueError("t and spreads must be the same length")
    if n < MIN_POLLS:
        raise InsufficientDataError(f"{state}: {n} poll(s) < MIN_POLLS={MIN_POLLS}")
    m = national.values_at(t)
    alpha, beta, sigma = _ols(m, np.asarray(spreads, dtype=float))
    return StateCalibration(state=state, alpha=alpha, beta=beta,
                            sigma_eps=sigma, n_obs=n, source=SOURCE_POLLS)


def calibrate_from_historical(state: str, national_spread, state_spread) -> StateCalibration:
    """OLS of a state's past spreads on the national spread, one entry per past election."""
    x, y = np.asarray(national_spread, dtype=float), np.asarray(state_spread, dtype=float)
    if x.shape != y.shape:
        raise ValueError("national_spread and state_spread must be the same length")
    if len(x) < 2:
        raise InsufficientDataError(f"{state}: {len(x)} historical row(s), need at least 2")
    alpha, beta, sigma = _ols(x, y)
    return StateCalibration(state=state, alpha=alpha, beta=beta,
                            sigma_eps=sigma, n_obs=len(x), source=SOURCE_HISTORICAL)


def calibrate_market(national: SmoothedSeries, polls: Polls) -> MarketCalibration:
    """Estimate the diffusion inputs from the smoothed national series.

    sigma_m is the sample standard deviation of the smoothed series'
    increments scaled to one day (increment / sqrt(dt)).  sigma_samp is the
    mean binomial standard error of the spread over the national rows of
    ``polls`` with a two-party share (0 when the table has none),
    2 * sqrt(p(1-p)/n) with p the two-party candidate-1 share, in
    percentage points.  The current level and horizon come from the grid
    point nearest election day.
    """
    if len(national.grid) < 2:
        raise InsufficientDataError("need at least 2 grid points for sigma_m")
    dt = np.diff(national.grid)
    increments = np.diff(national.values) / np.sqrt(dt)
    sigma_m = float(np.std(increments, ddof=1)) if len(increments) > 1 else 0.0

    two_party = polls.pct_c1 + polls.pct_c2
    rows = (polls.state == NATIONAL) & (two_party > 0)
    p = polls.pct_c1[rows] / two_party[rows]
    ses = 2.0 * np.sqrt(p * (1.0 - p) / polls.sample_size[rows]) * 100.0
    sigma_samp = float(np.mean(ses)) if ses.size else 0.0

    return MarketCalibration(
        sigma_samp=sigma_samp,
        sigma_m=sigma_m,
        m_current=float(national.values[0]),
        horizon=float(national.grid[0]),
    )


def calibrate_states(
    polls: Polls,
    national: SmoothedSeries,
    historical,
    states,
) -> dict[str, StateCalibration]:
    """Calibrate every requested state, falling back to historical data.

    Each state is fitted on its rows of ``polls``, in file order.  A state
    routes to :func:`calibrate_from_historical` on its ``historical[state]``
    ``(national_spread, state_spread)`` arrays when it has fewer than
    ``MIN_POLLS`` polls or its poll design is degenerate.  A state with no
    viable route raises :class:`CalibrationError` naming it and the reason
    each route failed.
    """
    spreads = to_spreads(polls)
    out: dict[str, StateCalibration] = {}
    for state in sorted(states):
        rows = polls.state == state
        try:
            out[state] = calibrate_state(state, polls.t[rows], spreads[rows], national)
            continue
        except (InsufficientDataError, DegenerateDesignError) as exc:
            no_fit = exc
        try:
            out[state] = calibrate_from_historical(state, *historical.get(state, ((), ())))
        except CalibrationError as exc:
            raise CalibrationError(
                f"state {state} cannot be calibrated: no poll fit ({no_fit}) and no "
                f"historical fallback ({exc})"
            ) from exc
    return out


def calibration_to_dict(cals: dict[str, StateCalibration], market: MarketCalibration) -> dict:
    """JSON-ready document: states keyed by code, plus the market block."""
    return {"states": {k: asdict(cals[k]) for k in sorted(cals)}, "market": asdict(market)}


def _from_fields(cls, entry, where: str):
    """``cls(**entry)`` with every key checked; faults name ``where``."""
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{where}: expected an object, got {entry!r}")
    expected = {f.name for f in fields(cls)}
    missing, unknown = sorted(expected - entry.keys()), sorted(entry.keys() - expected)
    if missing or unknown:
        raise ConfigurationError(f"{where}: missing key(s) {missing}, unknown key(s) {unknown}")
    try:
        return cls(**entry)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def calibration_from_dict(doc: dict) -> tuple[dict[str, StateCalibration], MarketCalibration]:
    """Inverse of :func:`calibration_to_dict`; a missing, unknown or invalid
    field raises :class:`ConfigurationError` naming its state (or the market),
    and so does a document with no market block.  Each state is keyed by one
    of the 51 codes, once, and its ``state`` field is that code."""
    if not isinstance(doc, dict) or not isinstance(doc.get("states"), dict):
        raise ConfigurationError("calibration document has no states object")
    cals: dict[str, StateCalibration] = {}
    for key, entry in doc["states"].items():
        try:
            code = state_code(key)
        except ValueError as exc:
            raise ConfigurationError(f"states: {exc}") from exc
        cal = _from_fields(StateCalibration, entry, f"state {code}")
        if cal.state != code:
            raise ConfigurationError(f"state {code}: its state field is {cal.state!r}")
        if code in cals:
            raise ConfigurationError(f"state {code} is listed twice")
        cals[code] = cal
    if "market" not in doc:
        raise ConfigurationError("calibration document has no market block; cannot simulate")
    return cals, _from_fields(MarketCalibration, doc["market"], "market")
