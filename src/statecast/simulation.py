"""Monte Carlo election simulation.

The national spread diffuses with constant volatility and no drift, so only
its terminal law matters: each path's terminal spread is Gaussian around the
current smoothed level with variance (sigma_samp + sigma_m)^2 * horizon.
Per path, each state gets an independent noise draw around its fitted line
(Gaussian residuals by default, or a Student-T predictive variant that also
resamples the line's parameters), states are settled winner-take-all, and
electoral votes are summed to 0..538.

No draw depends on the day; only the market's level and horizon do.  So
the market and each state are drawn once, and every day of a run is settled
from those same draws: a many-day time series and a one-day forecast run
the same code, and each day matches a one-day run bit for bit.  Settling
walks each state's days x paths in fixed tiles of ``_TILE`` elements
through buffers that each worker allocates once, sized by the tile and not
by the number of paths; a state's win share is its win count over n.

Randomness uses counter-based Philox substreams: the market and each state
own a stream keyed by (seed, stream index), and a path's draw sits at its
path index within that stream.  Results are therefore bitwise identical no
matter how work is scheduled across worker threads (workers parallelize over
states).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .calibration import MarketCalibration, StateCalibration
from .errors import ConfigurationError
from .states import WIN_ELECTORAL_VOTES, TOTAL_ELECTORAL_VOTES

_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class GaussianNoise:
    """State spread = alpha + beta * m + sigma_eps * Z."""


@dataclass(frozen=True)
class StudentTNoise:
    """Predictive draw with parameter uncertainty and Student-T residuals.

    Per path: alpha~ ~ N(alpha, sigma_alpha), beta~ ~ N(beta, sigma_beta),
    scale~ = |N(0, sigma_eps)|, and the spread is alpha~ + beta~ * m plus a
    StudentT(nu) sample times scale~.
    """

    sigma_alpha: float = 0.01
    sigma_beta: float = 1.0
    nu: int = 3

    def __post_init__(self):
        if self.nu < 1:
            raise ValueError("nu must be >= 1")


NoiseModel = GaussianNoise | StudentTNoise


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for one forecast run; the seed is mandatory.

    ``workers`` > 1 spreads state draws and settling over threads without
    changing any output bit.
    """

    seed: int
    n_paths: int = 10000
    noise_model: NoiseModel = field(default_factory=GaussianNoise)
    win_threshold: float = 0.0
    workers: int = 1

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral):
            raise TypeError(f"seed must be an integer, got {self.seed!r}")
        if not (0 <= self.seed <= _U64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class PathOutcomes:
    """Per-day results over one set of paths: candidate 1's electoral votes
    on each path (days x paths) and each state's win share (days x states)."""

    states: tuple[str, ...]
    ev_c1: np.ndarray
    p_state: np.ndarray


@dataclass
class ForecastDistribution:
    """Win probabilities and the electoral-vote histogram for one run."""

    p_state: dict[str, float]
    p_national: float
    ev_histogram: np.ndarray
    n_paths: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_paths": self.n_paths,
            "p_national": self.p_national,
            "p_state": dict(sorted(self.p_state.items())),
            "ev_histogram": [float(x) for x in self.ev_histogram],
        }


_MARKET_STREAM = 0
_TILE = 1 << 16  # elements in one settle tile of days x paths


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for one (seed, stream) pair; path index = counter."""
    key = np.array([seed & _U64, stream_id & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_market_terminals(
    markets: list[MarketCalibration], cfg: SimulationConfig
) -> np.ndarray:
    """Terminal national spreads, one row per market, all from one draw of
    the market stream: m + (sigma_samp + sigma_m) * sqrt(T) * Z."""
    z = _stream(cfg.seed, _MARKET_STREAM).standard_normal(cfg.n_paths)
    m = np.empty((len(markets), cfg.n_paths))
    for d, mkt in enumerate(markets):
        m[d] = mkt.m_current + mkt.sigma_total * np.sqrt(mkt.horizon) * z
    return m


def sample_state_noise(
    cal: StateCalibration,
    n_paths: int,
    model: NoiseModel,
    rng: np.random.Generator,
) -> tuple:
    """One state's draws as ``(intercept, slope, noise)``.

    The state's spread on a path with terminal market m is
    ``intercept + slope * m + noise``.  Gaussian: the fitted line (scalars)
    plus sigma_eps * Z; Student-T: a per-path line plus scale * t.
    """
    if isinstance(model, GaussianNoise):
        return cal.alpha, cal.beta, cal.sigma_eps * rng.standard_normal(n_paths)
    if isinstance(model, StudentTNoise):
        alpha = rng.normal(cal.alpha, model.sigma_alpha, n_paths)
        beta = rng.normal(cal.beta, model.sigma_beta, n_paths)
        scale = np.abs(rng.normal(0.0, cal.sigma_eps, n_paths))
        return alpha, beta, scale * rng.standard_t(model.nu, n_paths)
    raise TypeError(f"unknown noise model {model!r}")


def simulate_paths(
    cals: dict[str, StateCalibration],
    markets: list[MarketCalibration],
    ev_table: dict[str, int],
    cfg: SimulationConfig,
) -> PathOutcomes:
    """All Monte Carlo paths settled against every market in ``markets``.

    Each state is drawn once; every market is settled from those draws, in
    tiles of at most ``_TILE`` days x paths computed in reused buffers with
    the same floating-point operations, in the same order, as
    ``intercept + slope * m + noise > win_threshold``.  ``p_state`` is each
    state's win count divided by ``n_paths``.  Workers take fixed strided
    chunks of states and each returns its own integer EV accumulator, so
    the sum does not depend on ``cfg.workers``.
    """
    states = tuple(sorted(ev_table))
    missing = [s for s in states if s not in cals]
    if missing:
        raise ConfigurationError(f"missing calibration for: {', '.join(missing)}")

    m = simulate_market_terminals(markets, cfg)
    n_days, n = m.shape
    cols = min(n, _TILE)
    rows = max(1, min(n_days, _TILE // cols))
    p_state = np.empty((n_days, len(states)))

    def settle(chunk: range) -> np.ndarray:
        ev_c1 = np.zeros(m.shape, dtype=np.int16)  # at most 538 votes
        x = np.empty((rows, cols))
        won = np.empty((rows, cols), dtype=bool)
        inc = np.empty((rows, cols), dtype=np.int16)
        for i in chunk:
            rng = _stream(cfg.seed, 1 + i)
            intercept, slope, noise = sample_state_noise(
                cals[states[i]], n, cfg.noise_model, rng)
            votes = np.int16(ev_table[states[i]])
            wins = np.zeros(n_days, dtype=np.int64)
            for c in range(0, n, cols):
                pc = slice(c, c + cols)
                # Gaussian lines are scalars; Student-T lines are per path
                a, b, e = (v[pc] if np.ndim(v) else v for v in (intercept, slope, noise))
                for r in range(0, n_days, rows):
                    dr = slice(r, r + rows)
                    m_t = m[dr, pc]
                    x_t, won_t, inc_t = (buf[:m_t.shape[0], :m_t.shape[1]]
                                         for buf in (x, won, inc))
                    # intercept + slope * m + noise > threshold; x + a == a + x
                    np.multiply(b, m_t, out=x_t)
                    np.add(x_t, a, out=x_t)
                    np.add(x_t, e, out=x_t)
                    np.greater(x_t, cfg.win_threshold, out=won_t)
                    wins[dr] += [np.count_nonzero(row) for row in won_t]
                    np.multiply(won_t, votes, out=inc_t)
                    ev_c1[dr, pc] += inc_t
            p_state[:, i] = wins / n
        return ev_c1

    n_chunks = min(cfg.workers, len(states))
    chunks = [range(k, len(states), n_chunks) for k in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=n_chunks) as pool:
        ev_c1 = sum(pool.map(settle, chunks))
    return PathOutcomes(states=states, ev_c1=ev_c1, p_state=p_state)


def _forecasts(paths: PathOutcomes, cfg: SimulationConfig) -> list[ForecastDistribution]:
    """One forecast per market row of ``paths``."""
    out = []
    for ev_c1, p_state in zip(paths.ev_c1, paths.p_state):
        histogram = np.bincount(ev_c1, minlength=TOTAL_ELECTORAL_VOTES + 1) / cfg.n_paths
        out.append(ForecastDistribution(
            p_state={s: float(p) for s, p in zip(paths.states, p_state)},
            p_national=float(histogram[WIN_ELECTORAL_VOTES:].sum()),
            ev_histogram=histogram,
            n_paths=cfg.n_paths,
            seed=cfg.seed,
        ))
    return out


def run_forecast(
    cals: dict[str, StateCalibration],
    mkt: MarketCalibration,
    ev_table: dict[str, int],
    cfg: SimulationConfig,
) -> ForecastDistribution:
    """Win probabilities and EV histogram over ``cfg.n_paths`` simulations."""
    return _forecasts(simulate_paths(cals, [mkt], ev_table, cfg), cfg)[0]


def probability_time_series(
    cals: dict[str, StateCalibration],
    markets: list[MarketCalibration],
    ev_table: dict[str, int],
    cfg: SimulationConfig,
) -> list[tuple[float, float]]:
    """National win probability for a sequence of market states.

    Each state is drawn once (same seed throughout) and every day is settled
    from those draws with that day's level and horizon, so each entry equals
    ``run_forecast`` on that day's market, and two days with identical data
    differ only through the remaining diffusion time.
    """
    dists = _forecasts(simulate_paths(cals, markets, ev_table, cfg), cfg)
    return [(mkt.horizon, dist.p_national) for mkt, dist in zip(markets, dists)]
