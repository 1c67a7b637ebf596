"""Per-state regression calibration and market-volatility estimation.

Each state's spread is regressed (OLS, in levels) on the kernel-smoothed
national spread evaluated at the nearest grid point to each poll.  States
with too few polls are calibrated instead from historical election results:
state spread on national spread across past cycles.  The market side
estimates a per-sqrt(day) diffusion volatility from one-day changes of the
smoothed series plus a sampling-error component from poll sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from .errors import (
    CalibrationError,
    ConfigurationError,
    DegenerateDesignError,
    InsufficientDataError,
)
from .ingest import PollRecord, SmoothedSeries, SpreadObservation
from .states import NATIONAL

#: Fewer state polls than this is considered uninformative.
MIN_POLLS = 4

SOURCE_POLLS = "polls"
SOURCE_HISTORICAL = "historical"


def _check_finite(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


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
    """Slope/intercept/residual-sigma of y on x.

    sigma uses the n-2 divisor (two fitted parameters); with exactly two
    points the residuals are identically zero, so sigma is 0.
    """
    n = len(x)
    if n < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {n}")
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
    state_obs: list[SpreadObservation],
    national: SmoothedSeries,
    min_polls: int = MIN_POLLS,
) -> StateCalibration:
    """OLS of a state's poll spreads on the smoothed national spread.

    Each poll is matched to the national value at the nearest grid point to
    its days-to-election.  Raises :class:`InsufficientDataError` when fewer
    than ``min_polls`` observations exist (callers fall back to history) and
    :class:`DegenerateDesignError` when the matched national values are
    constant.
    """
    state_obs = list(state_obs)
    if not state_obs:
        raise InsufficientDataError("no poll observations for state")
    codes = {o.state for o in state_obs}
    if len(codes) != 1:
        raise ValueError(f"observations mix states: {sorted(codes)}")
    state = state_obs[0].state
    n = len(state_obs)
    if n < min_polls:
        raise InsufficientDataError(
            f"{state}: {n} poll(s) < min_polls={min_polls}"
        )
    m = national.values_at([o.t for o in state_obs])
    s = np.array([o.spread for o in state_obs], dtype=float)
    alpha, beta, sigma = _ols(m, s)
    return StateCalibration(state=state, alpha=alpha, beta=beta,
                            sigma_eps=sigma, n_obs=n, source=SOURCE_POLLS)


def calibrate_from_historical(state: str, rows) -> StateCalibration:
    """OLS of a state's past spreads on the national spread across elections."""
    rows = [r for r in rows if r.state == state]
    if len(rows) < 2:
        raise InsufficientDataError(
            f"{state}: {len(rows)} historical row(s), need at least 2"
        )
    x = np.array([r.national_spread for r in rows], dtype=float)
    y = np.array([r.state_spread for r in rows], dtype=float)
    alpha, beta, sigma = _ols(x, y)
    return StateCalibration(state=state, alpha=alpha, beta=beta,
                            sigma_eps=sigma, n_obs=len(rows),
                            source=SOURCE_HISTORICAL)


def calibrate_market(
    national: SmoothedSeries,
    us_polls: list[PollRecord] | None = None,
    sigma_samp: float | None = None,
) -> MarketCalibration:
    """Estimate the diffusion inputs from the smoothed national series.

    sigma_m is the sample standard deviation of the smoothed series'
    increments scaled to one day (increment / sqrt(dt)).  sigma_samp is the
    mean binomial standard error of the spread implied by poll sample sizes,
    2 * sqrt(p(1-p)/n) with p the two-party candidate-1 share, in percentage
    points; pass ``sigma_samp`` to override it.  The current level and the
    horizon come from the grid point nearest election day.
    """
    if len(national.grid) < 2:
        raise InsufficientDataError("need at least 2 grid points for sigma_m")
    dt = np.diff(national.grid)
    increments = np.diff(national.values) / np.sqrt(dt)
    sigma_m = float(np.std(increments, ddof=1)) if len(increments) > 1 else 0.0

    if sigma_samp is None:
        if us_polls:
            ses = []
            for rec in us_polls:
                if rec.state != NATIONAL:
                    continue
                two_party = rec.pct_c1 + rec.pct_c2
                if two_party <= 0:
                    continue
                p = rec.pct_c1 / two_party
                ses.append(2.0 * math.sqrt(p * (1.0 - p) / rec.sample_size) * 100.0)
            sigma_samp = float(np.mean(ses)) if ses else 0.0
        else:
            sigma_samp = 0.0

    return MarketCalibration(
        sigma_samp=sigma_samp,
        sigma_m=sigma_m,
        m_current=float(national.values[0]),
        horizon=float(national.grid[0]),
    )


def group_by_state(obs) -> dict[str, list[SpreadObservation]]:
    """Split spread observations by state code, national excluded."""
    grouped: dict[str, list[SpreadObservation]] = {}
    for o in obs:
        if o.state == NATIONAL:
            continue
        grouped.setdefault(o.state, []).append(o)
    return grouped


def calibrate_states(
    obs,
    national: SmoothedSeries,
    historical_rows,
    states,
    min_polls: int = MIN_POLLS,
) -> dict[str, StateCalibration]:
    """Calibrate every requested state, falling back to historical data.

    A state routes to :func:`calibrate_from_historical` when it has fewer
    than ``min_polls`` polls or its poll design is degenerate.  A state with
    no viable route raises :class:`CalibrationError` naming it.
    """
    grouped = group_by_state(obs)
    historical_rows = list(historical_rows)
    out: dict[str, StateCalibration] = {}
    for state in sorted(states):
        try:
            out[state] = calibrate_state(grouped.get(state, []), national, min_polls)
            continue
        except (InsufficientDataError, DegenerateDesignError):
            pass
        try:
            out[state] = calibrate_from_historical(state, historical_rows)
        except CalibrationError as exc:
            raise CalibrationError(
                f"state {state} cannot be calibrated: too few polls and no "
                f"historical fallback ({exc})"
            ) from exc
    return out


def calibration_to_dict(
    cals: dict[str, StateCalibration],
    market: MarketCalibration | None = None,
) -> dict:
    """JSON-ready document: states keyed by code, plus the market block."""
    doc: dict = {
        "states": {
            c.state: {
                "state": c.state,
                "alpha": c.alpha,
                "beta": c.beta,
                "sigma_eps": c.sigma_eps,
                "n_obs": c.n_obs,
                "source": c.source,
            }
            for c in (cals[k] for k in sorted(cals))
        }
    }
    if market is not None:
        doc["market"] = {
            "sigma_samp": market.sigma_samp,
            "sigma_m": market.sigma_m,
            "m_current": market.m_current,
            "horizon": market.horizon,
        }
    return doc


def _from_fields(cls, entry, where: str):
    """``cls(**entry)`` with every key checked; faults name ``where``."""
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{where}: expected an object, got {entry!r}")
    expected = {f.name for f in fields(cls)}
    missing, unknown = sorted(expected - set(entry)), sorted(set(entry) - expected)
    if missing or unknown:
        raise ConfigurationError(f"{where}: missing key(s) {missing}, unknown key(s) {unknown}")
    try:
        return cls(**entry)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def calibration_from_dict(doc: dict) -> tuple[dict[str, StateCalibration], MarketCalibration | None]:
    """Inverse of :func:`calibration_to_dict`; a missing, unknown or invalid
    field raises :class:`ConfigurationError` naming its state (or the market)."""
    if not isinstance(doc, dict) or not isinstance(doc.get("states"), dict):
        raise ConfigurationError("calibration document has no states object")
    cals = {
        code: _from_fields(StateCalibration, entry, f"state {code}")
        for code, entry in doc["states"].items()
    }
    market = _from_fields(MarketCalibration, doc["market"], "market") if "market" in doc else None
    return cals, market
