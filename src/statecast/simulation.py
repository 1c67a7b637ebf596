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
the same code, and each day matches a one-day run bit for bit.  A path's
market on a day is ``fl(fl(z * sig) + m)`` from its one standard normal z
and that day's scale sig = (sigma_samp + sigma_m) * sqrt(horizon) and level
m; it is recomputed wherever it is needed (``_levels``) instead of stored
for every (path, day), so the market costs memory per path, not per path
and day.  The int16 electoral-vote table is the one array as large as the
paths times the days.  Each state's stream is read one settle tile of
``_TILE`` paths at a time, inside the settle loop, and a tile's draws are
freed before the next tile is drawn: a worker holds one tile of draws (the
noise for Gaussian; intercept, slope and noise for Student-T, and one tile
of t while the noise is formed), whatever the number of paths or days.

Most paths of a state sit on one side of the threshold on every day, so
settling first screens each (state, path) pair over the whole day range.
Rounding to nearest is monotone, so a path's spread
``fl(fl(fl(slope * m) + intercept) + noise)`` (``_spreads``: the line, then
the noise) is monotone in its market m, rising or falling with the slope's
sign, and its spreads at the path's lowest and highest m bracket every
day's spread, in either order.  A pair whose two spreads both beat the
threshold wins on every day; one whose two spreads both do not loses on
every day.  Only the rest, NaN included, are settled day by day through the
same ``_spreads``; every count is an integer, so the outputs are those of
settling every day of every path.  On the contested races of the benchmark
(91 days) 86-91% of pairs are decided by the screen; on the bundled fixture
93-97% at threshold 0 and 86% at 18.  The market ranges, taken once for all states,
and both settle passes walk fixed tiles of ``_TILE`` elements through
buffers sized by the tile and not by the number of paths; a state's win
share is its win count over n.

A term that overflows is +-inf, and an undefined one (inf - inf, 0 * inf)
is NaN, as IEEE arithmetic gives them; neither is a warning.  A NaN spread
never beats the threshold, so it never wins.

Randomness uses counter-based Philox substreams: the market and each state
own a stream keyed by (seed, stream index), and a path's draws sit at
places in that stream fixed by its path index and ``_TILE``.  Results are
therefore bitwise identical no matter how work is scheduled across worker
threads (workers parallelize over states).  The calling thread settles the
first worker's states itself, so k workers start k - 1 pool threads and
one worker starts none: each pool thread draws from a malloc arena of its
own (glibc), which adds its pages to the process's peak RSS.
"""

from __future__ import annotations

import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from numbers import Integral

import numpy as np

from .calibration import MarketCalibration, StateCalibration, _check_finite
from .errors import ConfigurationError
from .states import EV_BINS, WIN_ELECTORAL_VOTES

_U64 = 0xFFFFFFFFFFFFFFFF


def _check_integer(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise TypeError(f"{name} must be an integer, got {value!r}")


#: The noise models by name.  "gaussian": a state's spread is alpha + beta *
#: m + sigma_eps * Z.  "student_t": per path alpha~ ~ N(alpha, SIGMA_ALPHA),
#: beta~ ~ N(beta, SIGMA_BETA), scale~ = |N(0, sigma_eps)|, and the spread is
#: alpha~ + beta~ * m + scale~ * StudentT(NU), with the model's constants.
NOISE_MODELS = ("gaussian", "student_t")
SIGMA_ALPHA = 0.01
SIGMA_BETA = 1.0
NU = 3


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs for one forecast run; the seed is mandatory.  ``workers`` > 1
    spreads state draws and settling over threads without changing any
    output bit."""

    seed: int
    n_paths: int = 10000
    noise_model: str = "gaussian"
    win_threshold: float = 0.0
    workers: int = 1

    def __post_init__(self):
        _check_integer(self, ("seed", "n_paths", "workers"))
        if not (0 <= self.seed <= _U64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        _check_finite(self, ("win_threshold",))
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be in {NOISE_MODELS}, got {self.noise_model!r}")


@dataclass
class PathOutcomes:
    """Per-day results over one set of paths: candidate 1's electoral votes
    on each path (days x paths) and each state's win share (days x states).

    ``ev_c1`` is the transposed view of a C-ordered paths x days array, so
    each path's days are contiguous in memory and a day's row is strided."""

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
#: Elements in one settle tile: paths, or paths x days.  It is also part of
#: the Student-T stream layout: a state draws one tile of paths at a time,
#: its intercepts, slopes, scales and t in that order, so a run of more
#: than one tile of paths draws another realization than one draw of all
#: its paths would.  A Gaussian stream gives the same normals in tiles.
_TILE = 1 << 16


def _ieee():
    """The error state the simulator runs in: a term that overflows is
    +-inf and an undefined one NaN, without a warning.  numpy keeps it per
    thread, so each worker enters it too."""
    return np.errstate(over="ignore", invalid="ignore")


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for one (seed, stream) pair; path index = counter."""
    key = np.array([seed & _U64, stream_id & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _market_terms(markets: list[MarketCalibration], cfg: SimulationConfig):
    """The market stream's one standard normal z per path, and each market's
    scale sigma_total * sqrt(T) and level m: the terms of its terminals."""
    z = _stream(cfg.seed, _MARKET_STREAM).standard_normal(cfg.n_paths)
    sig = np.array([mkt.sigma_total * np.sqrt(mkt.horizon) for mkt in markets])
    mc = np.array([mkt.m_current for mkt in markets])
    return z, sig, mc


def _levels(z, sig, mc, out: np.ndarray) -> np.ndarray:
    """Terminal levels ``fl(fl(z * sig) + mc)`` into ``out``: one row per
    path of ``z`` and one column per market of ``sig``/``mc`` (scalars: one
    market, and ``out`` may be ``z`` itself).  Every market level the
    simulator compares is rounded here, in this order."""
    np.multiply.outer(z, sig, out=out)
    np.add(out, mc, out=out)
    return out


def simulate_market_terminals(
    markets: list[MarketCalibration], cfg: SimulationConfig
) -> np.ndarray:
    """Terminal national spreads, one row per market, all from one draw of
    the market stream: m + (sigma_samp + sigma_m) * sqrt(T) * Z.

    The rows are a (markets x paths) view of a paths x markets array, so
    each path's markets are contiguous in memory."""
    with _ieee():
        z, sig, mc = _market_terms(markets, cfg)
        return _levels(z, sig, mc, np.empty((len(z), len(sig)))).T


def sample_state_noise(
    cal: StateCalibration,
    n_paths: int,
    model: str,
    rng: np.random.Generator,
) -> tuple:
    """One state's draws as ``(intercept, slope, noise)`` under ``model``.

    The state's spread on a path with terminal market m is
    ``intercept + slope * m + noise``.  Gaussian: the fitted line (scalars)
    plus sigma_eps * Z; Student-T: a per-path line plus scale * t, drawn as
    the ``n_paths`` intercepts, slopes, scales and t in that order.  The
    noise is formed in place.
    """
    if model == "gaussian":
        noise = rng.standard_normal(n_paths)
        noise *= cal.sigma_eps
        return cal.alpha, cal.beta, noise
    if model == "student_t":
        alpha = rng.normal(cal.alpha, SIGMA_ALPHA, n_paths)
        beta = rng.normal(cal.beta, SIGMA_BETA, n_paths)
        noise = rng.normal(0.0, cal.sigma_eps, n_paths)
        np.abs(noise, out=noise)  # the scale
        noise *= rng.standard_t(NU, n_paths)
        return alpha, beta, noise
    raise ValueError(f"unknown noise model {model!r}")


def _spreads(a, b, e, m, out: np.ndarray) -> np.ndarray:
    """State spreads ``fl(fl(fl(b * m) + a) + e)`` into ``out`` (which may
    be ``m``) from the intercept ``a``, slope ``b`` and noise ``e`` at the
    market ``m``.  Every state spread the simulator compares is rounded by
    these three steps, in this order."""
    np.multiply(b, m, out=out)
    np.add(out, a, out=out)
    return np.add(out, e, out=out)


def _screen(s_lo: np.ndarray, s_hi: np.ndarray | None, threshold: float,
            won: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Split paths by their spreads at the two ends of their market range.

    The two spreads bracket every day's spread, in either order.  Sets
    ``won`` where both beat the threshold (the path wins on every day) and
    returns the indices of the paths whose two spreads do not fall on the
    same side of it (both ``<= threshold`` loses on every day), NaN
    included.  ``s_hi`` None means one day: ``s_lo`` is then the spread
    itself and every path is decided.  ``flat`` is scratch space of
    ``s_lo``'s length.
    """
    np.greater(s_lo, threshold, out=won)
    if s_hi is None:
        return np.empty(0, dtype=np.intp)
    np.less_equal(s_lo, threshold, out=flat)
    flat &= s_hi <= threshold  # both at or below: lost on every day
    won &= s_hi > threshold  # both above: won on every day
    flat |= won
    return np.flatnonzero(~flat)


def simulate_paths(
    cals: dict[str, StateCalibration],
    markets: list[MarketCalibration],
    ev_table: dict[str, int],
    cfg: SimulationConfig,
) -> PathOutcomes:
    """All Monte Carlo paths settled against every market in ``markets``.

    Each state is drawn once and every market is settled from those draws:
    a state wins a (path, day) when ``fl(fl(fl(slope * m) + intercept) +
    noise)`` exceeds ``win_threshold``.  The market m is never stored per
    (path, day): each path's lowest and highest m over the days are taken
    from its market draw in tiles of ``_TILE // days`` paths, and the rows
    settled day by day recompute their m into the spread buffer.  Each
    (state, path) pair is first screened by its spreads at those two ends,
    which bracket its spread on every day in either order, in path tiles of
    ``_TILE`` (see the module docstring).  A pair that wins on every day
    adds its votes to a per-path base and its count to every day's wins;
    only the pairs the screen leaves undecided are evaluated day by day, in
    chunks of ``_TILE // days`` paths.  With one day the market draw becomes
    that day's m in place, its spread is the day's spread, and the screen is
    the whole settle.

    ``p_state`` is each state's win count divided by ``n_paths``.  Workers
    take fixed strided chunks of states and each returns its own integer
    EV accumulator, summed in chunk order, so the sum does not depend on
    ``cfg.workers``.
    """
    states = tuple(sorted(ev_table))
    if not states:
        raise ConfigurationError("the electoral-vote table is empty")
    missing = [s for s in states if s not in cals]
    if missing:
        raise ConfigurationError(f"missing calibration for: {', '.join(missing)}")

    with _ieee():
        z, sig, mc = _market_terms(markets, cfg)
        n, n_days = len(z), len(sig)
        if n_days == 0:  # no day to settle, and no range to screen
            return PathOutcomes(states=states, ev_c1=np.zeros((0, n), dtype=np.int16),
                                p_state=np.empty((0, len(states))))
        cols = min(n, _TILE)
        rows = max(1, _TILE // n_days)
        if n_days == 1:  # z becomes the one day's market, both ends of its range
            m_lo = m_hi = _levels(z, sig[0], mc[0], out=z)
        else:  # each path's lowest and highest market, a tile of rows at a time
            m_lo, m_hi, m_t = np.empty(n), np.empty(n), np.empty((rows, n_days))
            for r in range(0, n, rows):
                pr = slice(r, r + rows)
                day_m = _levels(z[pr], sig, mc, out=m_t[:min(rows, n - r)])
                day_m.min(axis=1, out=m_lo[pr])
                day_m.max(axis=1, out=m_hi[pr])
    threshold = cfg.win_threshold
    p_state = np.empty((n_days, len(states)))

    def settle(chunk: range) -> np.ndarray:
        ev_c1 = np.zeros((n, n_days), dtype=np.int16)  # at most 538 votes
        # votes of the states won on every day; with one day, that day's
        base = ev_c1[:, 0] if n_days == 1 else np.zeros(n, dtype=np.int16)
        # one day's screen decides every path: it needs no hi and no rows.
        # Allocating hi after won, flat and inc raised a 91-day series' peak
        # RSS by 0.2 MB (allocator placement), hence this order.
        lo = np.empty(cols)
        hi = np.empty(cols) if n_days > 1 else None
        won, flat, inc = (np.empty(cols, dtype=t) for t in (bool, bool, np.int16))
        if n_days > 1:
            x = np.empty((rows, n_days))
            won_u, inc_u = (np.empty((rows, n_days), dtype=t) for t in (bool, np.int16))

        def settle_state(i: int) -> None:
            """Draw and settle state ``i`` a tile of paths at a time; each
            tile's draws are freed before the next tile is drawn."""
            rng, cal = _stream(cfg.seed, 1 + i), cals[states[i]]
            votes = np.int16(ev_table[states[i]])
            wins = np.zeros(n_days, dtype=np.int64)
            for c in range(0, n, cols):
                pc = slice(c, c + cols)
                k = min(cols, n - c)
                # Gaussian lines are scalars; Student-T lines are per path
                a, b, e = sample_state_noise(cal, k, cfg.noise_model, rng)
                won_t, inc_t = won[:k], inc[:k]
                # the spread at the path's lowest and highest market
                s_lo = _spreads(a, b, e, m_lo[pc], out=lo[:k])
                s_hi = None if n_days == 1 else _spreads(a, b, e, m_hi[pc], out=hi[:k])
                undecided = _screen(s_lo, s_hi, threshold, won_t, flat[:k])
                wins += np.count_nonzero(won_t)
                np.multiply(won_t, votes, out=inc_t)
                base[pc] += inc_t
                for r in range(0, len(undecided), rows):
                    at = undecided[r:r + rows]
                    u = len(at)
                    x_t, won_ut, inc_ut = (buf[:u] for buf in (x, won_u, inc_u))
                    _levels(z[at + c], sig, mc, out=x_t)  # the market on each day
                    _spreads(*(v[at, None] if np.ndim(v) else v for v in (a, b, e)),
                             x_t, out=x_t)
                    np.greater(x_t, threshold, out=won_ut)
                    wins += won_ut.view(np.uint8).sum(axis=0, dtype=np.int32)  # per day
                    np.multiply(won_ut, votes, out=inc_ut)
                    ev_c1[at + c] += inc_ut
                del a, b, e
            p_state[:, i] = wins / n

        with _ieee():
            for i in chunk:
                settle_state(i)
        if n_days > 1:
            ev_c1 += base[:, None]
        return ev_c1

    n_chunks = min(cfg.workers, len(states))
    chunks = [range(k, len(states), n_chunks) for k in range(n_chunks)]
    # chunk 0 on the calling thread; iadd, since sum() would copy a table
    with ThreadPoolExecutor(max_workers=max(1, n_chunks - 1)) as pool:
        rest = [pool.submit(settle, chunk) for chunk in chunks[1:]]
        ev_c1 = reduce(operator.iadd, (f.result() for f in rest), settle(chunks[0]))
    return PathOutcomes(states=states, ev_c1=ev_c1.T, p_state=p_state)


def _forecasts(paths: PathOutcomes, cfg: SimulationConfig) -> list[ForecastDistribution]:
    """One forecast per market row of ``paths``."""
    out = []
    for ev_c1, p_state in zip(paths.ev_c1, paths.p_state):
        histogram = np.bincount(ev_c1, minlength=EV_BINS) / cfg.n_paths
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
) -> list[ForecastDistribution]:
    """One forecast per market in ``markets``, all from one set of draws.

    Each state is drawn once (same seed throughout) and every day is settled
    from those draws with that day's level and horizon, so each entry equals
    ``run_forecast`` on that day's market, and two days with identical data
    differ only through the remaining diffusion time.
    """
    return _forecasts(simulate_paths(cals, markets, ev_table, cfg), cfg)
