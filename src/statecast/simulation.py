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
for every (path, day).  Over many days ``_levels`` may write a -0.0
product z * sig as +0.0: only the sign of a zero can change, and no
comparison, so no count, sees it.

The paths are settled one tile of ``_TILE`` at a time (``simulate_paths``):
the market draw, each state's draws and each worker's int16 electoral-vote
table hold one tile of paths (times the days, for the table), and each
day's votes are counted into a row of 539 bins.  So a run holds O(tile x
days) memory, whatever its number of paths.

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
93-97% at threshold 0 and 86% at 18.  The market ranges, taken once for
all states, and the rows settled day by day walk blocks of ``_TILE``
elements (paths x days); a state's win share is its win count over n.

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
own (glibc), which adds its pages to the process's peak RSS.  For the same
reason the calling thread makes every worker's buffers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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
#: The most paths one run takes: above 2**53 a count over the paths is no
#: longer exact as a float64, so neither is a win share or a histogram bin.
MAX_PATHS = 2**53


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
        if not 1 <= self.n_paths <= MAX_PATHS:
            raise ValueError("n_paths must be in 1..2**53")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        _check_finite(self, ("win_threshold",))
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be in {NOISE_MODELS}, got {self.noise_model!r}")


@dataclass
class PathOutcomes:
    """Per-day results over one set of paths: how many paths give candidate
    1 each electoral-vote count 0..538 (days x ``EV_BINS``, int64) and each
    state's win share (days x states)."""

    states: tuple[str, ...]
    ev_counts: np.ndarray
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
#: Paths in one tile, the simulator's outer loop, and elements in one block
#: of rows settled day by day (paths x days).  It is also part of the
#: Student-T stream layout: a state draws one tile of paths at a time, its
#: intercepts, slopes, scales and t in that order, so a run of more than
#: one tile of paths draws another realization than one draw of all its
#: paths would.  A Gaussian stream gives the same normals in tiles.
_TILE = 1 << 16
#: Values in one block of a Student-T draw of t.
_BLOCK = 1 << 12


def _ieee():
    """The error state the simulator runs in: a term that overflows is
    +-inf and an undefined one NaN, without a warning.  numpy keeps it per
    thread, so each worker enters it too."""
    return np.errstate(over="ignore", invalid="ignore")


def _stream(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for one (seed, stream) pair; path index = counter."""
    key = np.array([seed & _U64, stream_id & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _market_terms(markets: list[MarketCalibration]):
    """Each market's scale sigma_total * sqrt(T) and level m: with the
    market stream's one standard normal z per path, the terms of its
    terminals."""
    with _ieee():
        return (np.array([mkt.sigma_total * np.sqrt(mkt.horizon) for mkt in markets]),
                np.array([mkt.m_current for mkt in markets]))


def _levels(z, sig, mc, out: np.ndarray) -> np.ndarray:
    """Terminal levels ``fl(fl(z * sig) + mc)`` into ``out``: one row per
    path of ``z`` and one column per market of ``sig``/``mc`` (scalars: one
    market, and ``out`` may be ``z`` itself).  Every market level the
    simulator compares is rounded here, in this order.

    The rows x markets product is einsum's, about twice as fast as
    ``np.multiply.outer`` on a tile.  It adds each product to a zero, which
    leaves every value as it is but turns a -0.0 product into +0.0: only
    the sign of a zero can change, and no comparison sees it."""
    if np.ndim(sig):
        np.einsum("i,j->ij", z, sig, out=out)
    else:
        np.multiply(z, sig, out=out)
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
        z = _stream(cfg.seed, _MARKET_STREAM).standard_normal(cfg.n_paths)
        sig, mc = _market_terms(markets)
        return _levels(z, sig, mc, np.empty((len(z), len(sig)))).T


def sample_state_noise(
    cal: StateCalibration,
    n_paths: int,
    model: str,
    rng: np.random.Generator,
    out: tuple | None = None,
) -> tuple:
    """One state's draws as ``(intercept, slope, noise)`` under ``model``.

    The state's spread on a path with terminal market m is
    ``intercept + slope * m + noise``.  Gaussian: the fitted line (scalars)
    plus sigma_eps * Z; Student-T: a per-path line plus scale * t, drawn as
    the ``n_paths`` intercepts, slopes, scales and t in that order.

    ``out`` is a triple of float64 arrays of ``n_paths`` values, (intercept,
    slope, noise), that the draws fill in place; Gaussian fills only the
    noise, and its other two may be None.  Without it, each is allocated.
    Student-T lines and scales are drawn in place as ``fl(fl(z * scale) +
    loc)``, as ``rng.normal`` draws them; t ``_BLOCK`` values a call, which
    reads the stream as one call for all of them would.
    """
    if model == "gaussian":
        noise = np.empty(n_paths) if out is None else out[2]
        rng.standard_normal(out=noise)
        noise *= cal.sigma_eps
        return cal.alpha, cal.beta, noise
    if model == "student_t":
        alpha, beta, noise = (np.empty(n_paths) for _ in range(3)) if out is None else out
        for buf, loc, scale in ((alpha, cal.alpha, SIGMA_ALPHA), (beta, cal.beta, SIGMA_BETA),
                                (noise, 0.0, cal.sigma_eps)):
            np.add(np.multiply(rng.standard_normal(out=buf), scale, out=buf), loc, out=buf)
        np.abs(noise, out=noise)  # the scale
        for part in (noise[s:s + _BLOCK] for s in range(0, len(noise), _BLOCK)):
            part *= rng.standard_t(NU, len(part))
        return alpha, beta, noise
    raise ValueError(f"unknown noise model {model!r}")


def _spreads(a, b, e, m, out: np.ndarray, pick=lambda v: v) -> np.ndarray:
    """State spreads ``fl(fl(fl(b * m) + a) + e)`` into ``out`` (which may
    be ``m``) from the intercept ``a``, slope ``b`` and noise ``e`` at the
    market ``m``.  Every state spread the simulator compares is rounded by
    these three steps, in this order, each operand ``pick``-ed just before."""
    np.multiply(pick(b), m, out=out)
    np.add(out, pick(a), out=out)
    return np.add(out, pick(e), out=out)


def _gather(v, at: np.ndarray, buf: np.ndarray):
    """``v`` at the paths ``at``, as a column of ``buf``; a scalar as it is."""
    return np.take(v, at, out=buf[:len(at)], mode="clip")[:, None] if np.ndim(v) else v


def _screen(s_lo: np.ndarray, s_hi: np.ndarray | None, threshold: float,
            won: np.ndarray, flat: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
    """Split paths by their spreads at the two ends of their market range.

    The two spreads bracket every day's spread, in either order.  Sets
    ``won`` where both beat the threshold (the path wins on every day) and
    returns the indices of the paths whose two spreads do not fall on the
    same side of it (both ``<= threshold`` loses on every day), NaN
    included.  ``s_hi`` None means one day: ``s_lo`` is then the spread
    itself and every path is decided.  ``flat`` is scratch space of
    ``s_lo``'s length.  Past a quarter of the paths, the indices are
    found a quarter at a time into ``at`` (intp), which may be ``s_hi``'s.
    """
    np.greater(s_lo, threshold, out=won)
    if s_hi is None:
        return np.empty(0, dtype=np.intp)
    np.less_equal(s_lo, threshold, out=flat)
    flat &= s_hi <= threshold  # both at or below: lost on every day
    won &= s_hi > threshold  # both above: won on every day
    flat |= won
    undecided = np.logical_not(flat, out=flat)
    step, n = -(-len(flat) // 4), 0
    if at is None or np.count_nonzero(undecided) <= step:
        return np.flatnonzero(undecided)
    for p in range(0, len(flat), step):
        part = np.flatnonzero(undecided[p:p + step])
        n += len(np.add(part, p, out=at[n:n + len(part)]))
    return at[:n]


def simulate_paths(
    cals: dict[str, StateCalibration],
    markets: list[MarketCalibration],
    ev_table: dict[str, int],
    cfg: SimulationConfig,
) -> PathOutcomes:
    """All Monte Carlo paths settled against every market in ``markets``.

    Each state is drawn once and every market is settled from those draws:
    a state wins a (path, day) when ``fl(fl(fl(slope * m) + intercept) +
    noise)`` exceeds ``win_threshold``.  The paths are settled one tile of
    ``_TILE`` at a time: the calling thread draws the tile's market and each
    path's lowest and highest m over the days (m is never stored per (path,
    day)); each worker draws its states' tile from their streams and screens
    each (state, path) pair by its spreads at those two ends (see the module
    docstring).  A pair won on every day adds its votes to a per-path base;
    only the undecided pairs are settled day by day, in blocks of ``_TILE //
    days`` paths, their m recomputed and their draws gathered into buffers
    the worker made once.  With one day the market tile becomes that day's
    m in place and the screen is the whole settle.  The workers' vote tiles
    are summed, and each day's votes counted into its row of ``ev_counts``.

    ``p_state`` is each state's win count divided by ``n_paths``.  Workers
    take fixed strided chunks of states; the calling thread settles the
    first and makes every worker's buffers, once for all tiles.  Every
    count is an integer, so no output depends on ``cfg.workers``.
    """
    states = tuple(sorted(ev_table))
    if not states:
        raise ConfigurationError("the electoral-vote table is empty")
    missing = [s for s in states if s not in cals]
    if missing:
        raise ConfigurationError(f"missing calibration for: {', '.join(missing)}")

    n, n_days = cfg.n_paths, len(markets)
    ev_counts = np.zeros((n_days, EV_BINS), dtype=np.int64)
    wins = np.zeros((len(states), n_days), dtype=np.int64)
    if n_days == 0:  # no day to settle, and no range to screen
        return PathOutcomes(states=states, ev_counts=ev_counts, p_state=wins.T / n)
    sig, mc = _market_terms(markets)
    cols = min(n, _TILE)
    rows = max(1, _TILE // n_days)
    threshold = cfg.win_threshold
    z = np.empty(cols)  # the market tile; with one day, that day's m
    if n_days > 1:  # each path's lowest and highest market over the days
        m_lo, m_hi, m_t = np.empty(cols), np.empty(cols), np.empty((rows, n_days))

    def worker(chunk: range):
        """The settle of ``chunk``'s states on one tile of paths, with their
        streams and its buffers made here, once for every tile."""
        rngs = [_stream(cfg.seed, 1 + i) for i in chunk]
        ev_t = np.empty((cols, n_days), dtype=np.int16)  # at most 538 votes
        # votes of the states won on every day; with one day, that day's
        base = ev_t[:, 0] if n_days == 1 else np.empty(cols, dtype=np.int16)
        # one day's screen decides every path: it needs no hi and no rows.
        # Allocating hi after won, flat and inc raised a 91-day series' peak
        # RSS by 0.2 MB (allocator placement), hence this order.
        lo = np.empty(cols)
        hi = np.empty(cols) if n_days > 1 else None
        hi_at = None if hi is None else hi.view(np.intp)  # once screened, hi holds indices
        won, flat, inc = (np.empty(cols, dtype=t) for t in (bool, bool, np.int16))
        if n_days > 1:
            x = np.empty((rows, n_days))  # its first bytes, once spent, gather ev_k[at]
            ev_u = x.reshape(-1).view(np.int16)[:rows * n_days].reshape(rows, n_days)
            won_u, inc_u = (np.empty((rows, n_days), dtype=t) for t in (bool, np.int16))
        # Gaussian lines are scalars, so its draw fills only the noise
        line = (np.empty(cols), np.empty(cols)) if cfg.noise_model == "student_t" else (None, None)
        draws = (*line, np.empty(cols))

        def settle(zk: np.ndarray, m_lo: np.ndarray, m_hi: np.ndarray) -> np.ndarray:
            """Candidate 1's votes on each path and day of the tile whose
            market draws are ``zk`` and market range ``m_lo``..``m_hi``."""
            k = len(zk)
            ev_k, base_k, won_k, flat_k, inc_k = (
                buf[:k] for buf in (ev_t, base, won, flat, inc))
            ev_k.fill(0)
            base_k.fill(0)
            out = tuple(None if buf is None else buf[:k] for buf in draws)
            with _ieee():
                for i, rng in zip(chunk, rngs):
                    cal, votes = cals[states[i]], np.int16(ev_table[states[i]])
                    a, b, e = sample_state_noise(cal, k, cfg.noise_model, rng, out=out)
                    # the spread at the path's lowest and highest market
                    s_lo = _spreads(a, b, e, m_lo, out=lo[:k])
                    s_hi = None if n_days == 1 else _spreads(a, b, e, m_hi, out=hi[:k])
                    undecided = _screen(s_lo, s_hi, threshold, won_k, flat_k, hi_at)
                    wins[i] += np.count_nonzero(won_k)
                    np.multiply(won_k, votes, out=inc_k)
                    base_k += inc_k
                    for r in range(0, len(undecided), rows):
                        at = undecided[r:r + rows]
                        x_t, won_ut, inc_ut, ev_ut = (v[:len(at)] for v in (x, won_u, inc_u, ev_u))
                        # s_lo is spent: lo holds one gathered column at a time
                        _levels(_gather(zk, at, lo)[:, 0], sig, mc, out=x_t)  # each day's m
                        _spreads(a, b, e, x_t, out=x_t, pick=lambda v: _gather(v, at, lo))
                        np.greater(x_t, threshold, out=won_ut)
                        wins[i] += won_ut.view(np.uint8).sum(axis=0, dtype=np.int32)  # per day
                        np.multiply(won_ut, votes, out=inc_ut)
                        np.take(ev_k, at, axis=0, out=ev_ut, mode="clip")  # ev_k[at] += inc_ut
                        ev_ut += inc_ut
                        ev_k[at] = ev_ut
            if n_days > 1:
                ev_k += base_k[:, None]
            return ev_k

        return settle

    n_chunks = min(cfg.workers, len(states))
    settles = [worker(range(k, len(states), n_chunks)) for k in range(n_chunks)]
    market = _stream(cfg.seed, _MARKET_STREAM)
    # the first chunk on the calling thread, the rest on k - 1 pool threads
    with ThreadPoolExecutor(max_workers=max(1, n_chunks - 1)) as pool:
        for c in range(0, n, cols):
            zk = market.standard_normal(out=z[:min(cols, n - c)])
            k = len(zk)
            with _ieee():
                if n_days == 1:  # zk becomes the one day's market, both ends of its range
                    m_lo_k = m_hi_k = _levels(zk, sig[0], mc[0], out=zk)
                else:
                    m_lo_k, m_hi_k = m_lo[:k], m_hi[:k]
                    for r in range(0, k, rows):
                        pr = slice(r, r + rows)
                        day_m = _levels(zk[pr], sig, mc, out=m_t[:min(rows, k - r)])
                        day_m.min(axis=1, out=m_lo_k[pr])
                        day_m.max(axis=1, out=m_hi_k[pr])
            rest = [pool.submit(settle, zk, m_lo_k, m_hi_k) for settle in settles[1:]]
            # iadd into the first worker's tile, which the next tile clears
            ev = settles[0](zk, m_lo_k, m_hi_k)
            for f in rest:
                ev += f.result()
            for d in range(n_days):
                ev_counts[d] += np.bincount(ev[:, d], minlength=EV_BINS)
    return PathOutcomes(states=states, ev_counts=ev_counts, p_state=wins.T / n)


def run_forecast(
    cals: dict[str, StateCalibration],
    mkt: MarketCalibration,
    ev_table: dict[str, int],
    cfg: SimulationConfig,
) -> ForecastDistribution:
    """Win probabilities and EV histogram: the one-market ``probability_time_series``."""
    return probability_time_series(cals, [mkt], ev_table, cfg)[0]


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
    paths = simulate_paths(cals, markets, ev_table, cfg)
    out = []
    for counts, p_state in zip(paths.ev_counts, paths.p_state):
        histogram = counts / cfg.n_paths
        out.append(ForecastDistribution(
            p_state={s: float(p) for s, p in zip(paths.states, p_state)},
            p_national=float(histogram[WIN_ELECTORAL_VOTES:].sum()),
            ev_histogram=histogram, n_paths=cfg.n_paths, seed=cfg.seed))
    return out
