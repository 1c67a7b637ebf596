"""Election simulation: the exact Gaussian engine and the Monte Carlo.

The national spread diffuses with constant volatility and no drift, so only
its terminal law matters: each path's terminal spread is Gaussian around the
current smoothed level with variance (sigma_samp + sigma_m)^2 * horizon.
Per path, each state gets an independent noise draw around its fitted line
(Gaussian residuals by default, or a Student-T predictive variant that also
resamples the line's parameters), states are settled winner-take-all, and
electoral votes are summed to 0..538.

Gaussian noise is computed, not sampled (``gaussian_days``, which
``probability_time_series`` and so ``run_forecast`` use for it).  Given the
terminal market m, the states are independent and state i wins with
probability p_i(m) = Phi((a_i + b_i m - theta) / s_i), so the votes won are
a Poisson-binomial H(m); a day is H averaged over its N(m_d, s_d^2).  The
market axis is cut into cells of a lattice of width h = 2^e, the greatest
power of two with h <= s_d / ``CELLS_PER_SD``, anchored at 0, over m_d +-
``_SPAN`` s_d (the mass beyond falls into the two end cells).  A state
whose crossing is narrower than a cell (s_i < h |b_i|, a step if s_i = 0)
adds cell edges at its crossing and at +-0.75 and +-2 widths s_i / |b_i|
from it.  Each cell holds each state's p_i averaged over the cell (a step
gives its share of the cell), spread to two rows by half its change across
the cell's two Gauss-Legendre nodes; a day weighs them by the linear
function through the nodes: its Gaussian mass over the cell, -+ sqrt(3)
times its first moment about the midpoint over the width.  The rows'
Poisson-binomials are built a block of ``_CELL_BLOCK`` lattice cells at a
time, the states in ascending-EV order over the support reached so far,
and each block's days add mass x H with ``np.einsum``, which sums the cells
in order and calls no BLAS: no output depends on BLAS threads or kernels.
A probability within ``_DECIDED`` of 0 or 1 is taken as it.  The work
grows with the rows, not the days: days of one lattice width share its
cells where their spans overlap, and each narrow crossing adds five cells
to every lattice a run uses.

Every day's outputs are within 1e-5 of the exact values: on the bundled
fixture and on seeded contested races, at thresholds 0 and 18, each p_state
is within 1e-6 of the closed form Phi((a + b m - theta) / sqrt(s^2 + b^2
s_d^2)), and doubling ``CELLS_PER_SD`` moves no output by more than 7e-6.
A day's cells, their rows and its sums depend on that day alone, so each
day of a series equals its one-day run bit for bit.  A zero scale is a
point mass at m, and so is one too small for a cell; an infinite one puts
half the mass at each of -+inf, where a flat line is 0 * inf = NaN; a NaN
scale (inf * 0) is a NaN market on every path; a NaN spread never wins;
and a day whose span passes the largest float is weighed by its cells'
masses alone.

The Monte Carlo (``simulate_paths``) samples Student-T noise, and stays the
Gaussian engine's oracle in the tests.

In the Monte Carlo no draw depends on the day; only the market's level
and horizon do.  So the market and each state are drawn once, and every day of a run is settled
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

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
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
    """Knobs for one forecast run.  ``workers`` > 1 spreads state draws and
    settling over threads without changing any output bit.  A Gaussian
    forecast is computed: it reads only ``noise_model`` and
    ``win_threshold``.  A sampled run (a Student-T forecast, or
    :func:`simulate_paths` itself) requires a seed."""

    seed: int | None = None
    n_paths: int = 10000
    noise_model: str = "gaussian"
    win_threshold: float = 0.0
    workers: int = 1

    def __post_init__(self):
        _check_integer(self, ("n_paths", "workers") if self.seed is None
                       else ("seed", "n_paths", "workers"))
        if self.seed is not None and not 0 <= self.seed <= _U64:
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
    """Win probabilities and the electoral-vote histogram for one run.
    ``n_paths`` and ``seed`` are the run's settings (``seed`` None when
    none is given); a Gaussian run reads neither."""

    p_state: dict[str, float]
    p_national: float
    ev_histogram: np.ndarray
    n_paths: int
    seed: int | None

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
    """Philox generator for one (seed, stream) pair; path index = counter.
    Only a sampled run reads the seed, so only it requires one."""
    if seed is None:
        raise ConfigurationError("seed is required (pass --seed)")
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


def _states(cals: dict[str, StateCalibration], ev_table: dict[str, int]) -> tuple[str, ...]:
    """The EV table's states in sorted order, each of them calibrated."""
    states = tuple(sorted(ev_table))
    if not states:
        raise ConfigurationError("the electoral-vote table is empty")
    missing = [s for s in states if s not in cals]
    if missing:
        raise ConfigurationError(f"missing calibration for: {', '.join(missing)}")
    return states


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
    states = _states(cals, ev_table)
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


# ---------------------------------------------------------------------------
# The exact Gaussian engine

#: The engine's resolution: every day's market level has at least this many
#: cells per standard deviation, and fewer than twice as many.
CELLS_PER_SD = 12
#: A day's cells cover its level +- _SPAN standard deviations; the mass
#: beyond, 5.7e-7, falls into its two end cells.
_SPAN = 5.0
#: Lattice cells in one block of the Poisson-binomial build.
_CELL_BLOCK = 32
#: Where a state's crossing is narrower than a cell, cell edges sit at the
#: crossing plus these multiples of its width s / |b|.
_GRADES = np.array([-2.0, -0.75, 0.0, 0.75, 2.0])
#: A probability within this of 0 or 1 is taken as 0 or 1.
_DECIDED = 1e-9
_FMAX = sys.float_info.max
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# W. J. Cody's rational approximations of the normal tail (Math. Comp. 23,
# 1969, as in R's pnorm), on |x| <= 0.674, |x| <= sqrt(32) and beyond.
_NEAR = ((2.2352520354606839287, 161.02823106855587881, 1067.6894854603709582,
          18154.981253343561249, 0.065682337918207449113),
         (47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
          45507.789335026729956))
_MID = ((0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979,
         597.27027639480026226, 2494.5375852903726711, 6848.1904505362823326,
         11602.651437647350124, 9842.7148383839780218, 1.0765576773720192317e-8),
        (22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
         6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
         38912.003286093271411, 19685.429676859990727))
_FAR = ((0.21589853405795699, 0.1274011611602473639, 0.022235277870649807,
         0.001421619193227893466, 2.9112874951168792e-5, 0.02307344176494017303),
        (1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
         0.00378239633202758244, 7.29751555083966205e-5))


def _ratio(x, coefficients):
    """Cody's rational function: its numerator and denominator at ``x``."""
    num, den = coefficients
    top, bottom = num[-1] * x, x
    for c, d in zip(num[:len(den) - 1], den):
        top, bottom = (top + c) * x, (bottom + d) * x
    return top + num[len(den) - 1], bottom + den[-1]


def _exp_half_square(y):
    """exp(-y^2 / 2) for y >= 0, split at y rounded down to 1/16 so that it
    keeps its relative precision far into the tail (past 64 it is 0)."""
    y = np.minimum(y, 64.0)
    r = np.trunc(y * 16.0) / 16.0
    return np.exp(-r * r * 0.5) * np.exp(-(y - r) * (y + r) * 0.5)


def _lower_tail(x: np.ndarray) -> np.ndarray:
    """Phi(-|x|), the standard normal tail, to about 1e-15 of its value;
    NaN gives 0."""
    y = np.abs(x)
    out = np.zeros(np.shape(y))
    near = y <= 0.67448975
    top, bottom = _ratio(y[near] ** 2, _NEAR)
    out[near] = 0.5 - y[near] * top / bottom
    mid = ~near & (y <= 5.656854249492380195)
    top, bottom = _ratio(y[mid], _MID)
    out[mid] = _exp_half_square(y[mid]) * top / bottom
    far = ~near & ~mid & (y < 38.5)  # beyond, the tail is below the least float
    inv = 1.0 / y[far] ** 2
    top, bottom = _ratio(inv, _FAR)
    out[far] = _exp_half_square(y[far]) * (_INV_SQRT_2PI - inv * top / bottom) / y[far]
    return out


def _phi(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF, each side from its own tail; NaN gives 0."""
    tail = _lower_tail(x)
    return np.where(x > 0, 1.0 - tail, tail)


def _win_at(line, m, threshold: float) -> np.ndarray:
    """Each state's win probability (rows) at each market level of ``m``:
    the spread ``fl(fl(b * m) + a)`` plus its N(0, s^2) noise beats the
    threshold.  With s = 0 the spread itself must beat it; a NaN spread
    never does."""
    a, b, s = line
    x = b * m + a - threshold
    return np.where(s == 0, x > 0, _phi(x / s))


def _cell_means(line, edges: np.ndarray, threshold: float):
    """Each state's win probability averaged over each cell between
    consecutive ``edges``, and half its change across the cell's two
    Gauss-Legendre nodes (each states x cells).

    Over a cell, u = (a + b m - theta) / s moves from u0 to u1, and Phi(u)
    averages to (G(u1) - G(u0)) / (u1 - u0), with G(u) = T(u) + max(u, 0)
    and T(u) = phi(u) - |u| Phi(-|u|) > 0 (below 1e-19 past |u| = 9, where
    it is taken as 0); near u1 = u0 the average is Phi(c) - c phi(c) (u1 -
    u0)^2 / 24 at the midpoint c.  Where s = 0, or u overflows at an edge,
    the state is a step in the cell: its share of the cell where a + b m
    beats the threshold, with no change across the nodes, as its crossing
    is an edge where it is narrow (see ``_level_part``).  Each cell's values
    depend on that cell alone."""
    a, b, s = line
    u = (b * edges + (a - threshold)) / s
    tail = np.zeros(u.shape)
    near = np.abs(u) < 9.0
    w = np.abs(u[near])
    tail[near] = _INV_SQRT_2PI * _exp_half_square(w) - w * _lower_tail(w)
    du = np.diff(u, axis=1)
    mean = (np.diff(tail, axis=1) + np.diff(np.maximum(u, 0.0), axis=1)) / du
    c = 0.5 * (u[:, 1:] + u[:, :-1])
    flat = np.abs(du) < 1e-2
    d = du[flat]
    mean[flat] = _phi(c[flat]) - c[flat] * _INV_SQRT_2PI * _exp_half_square(
        np.abs(c[flat])) * d * d / 24.0
    step = (s == 0) | ~(np.isfinite(u[:, 1:]) & np.isfinite(u[:, :-1]))
    cross = (threshold - a) / b
    share = np.where(b > 0, edges[1:] - cross, cross - edges[:-1]) / np.diff(edges)
    share = np.where(b == 0, a > threshold, share)
    mean = np.where(step, share, mean)
    mean = np.where(mean >= 0.0, np.minimum(mean, 1.0), 0.0)  # NaN (inf / inf) never wins
    half = np.zeros(du.shape)
    open_ = (mean > _DECIDED) & (mean < 1.0 - _DECIDED) & ~step
    c, d = c[open_], du[open_] / (2.0 * math.sqrt(3.0))
    half[open_] = 0.5 * (_phi(c + d) - _phi(c - d))
    return mean, half


def _poisson_binomial(p: np.ndarray, votes: np.ndarray):
    """Each row's distribution of the votes won, from the win probabilities
    ``p`` (rows x states, the states in ascending-EV order), as ``(lo,
    table)``: ``table`` holds bins lo, lo + 1, ... of each row.  The rows
    are built two ``_CELL_BLOCK`` at a time, bins x rows, so that each step
    walks contiguous memory.  A state lost in every row of a chunk is
    skipped and one won in every row shifts its window, which gives the
    bits a convolution with it would; the others are convolved in turn
    over the support reached so far."""
    out = np.zeros((len(p), votes.sum() + 2))  # a last zero column: see gaussian_days
    work, moved = np.empty((2, votes.sum() + 1, min(len(p), 2 * _CELL_BLOCK)))
    lo_all, hi_all = votes.sum(), 0
    for c in range(0, len(p), 2 * _CELL_BLOCK):
        chunk = p[c:c + 2 * _CELL_BLOCK]
        table = work[:, :len(chunk)]
        table[0] = 1.0
        lo, n = 0, 1
        won = (chunk == 1.0).all(axis=0)
        for i in np.flatnonzero(chunk.any(axis=0)):
            v = votes[i]
            if won[i]:
                lo += v
                continue
            q = chunk[:, i]
            shifted = np.multiply(table[:n], q, out=moved[:n, :len(chunk)])
            np.multiply(table[:n], 1.0 - q, out=table[:n])
            table[n:n + v] = 0.0
            table[v:v + n] += shifted
            n += v
        out[c:c + len(chunk), lo:lo + n] = table[:n].T
        lo_all, hi_all = min(lo_all, lo), max(hi_all, lo + n)
    return lo_all, out[:, lo_all:hi_all + 1]


def _cell_rows(line, edges: np.ndarray, threshold: float) -> np.ndarray:
    """Two rows of state probabilities (2 cells x states) per cell between
    consecutive ``edges``: the cell mean -+ half its change across the
    cell's two Gauss-Legendre nodes, within [0, 1].  A row of probabilities
    is multilinear in them, so the pair's average keeps the states'
    covariances within the cell to third order, where one row at the mean
    drops them."""
    mean, half = _cell_means(line, edges, threshold)
    bound = np.minimum(mean, 1.0 - mean)
    half = np.clip(half, -bound, bound)
    rows = np.stack([mean - half, mean + half], axis=2).reshape(len(mean), -1).T
    rows[rows < _DECIDED] = 0.0
    rows[rows > 1.0 - _DECIDED] = 1.0
    return rows


def _level_part(line, threshold: float, h: float, windows, sig, mc):
    """The days ``windows`` (day, lo, hi) whose market levels lie on the
    lattice of cell width ``h``, each over the lattice cells lo..hi - 1, as
    (days, rows, weights, blocks): the rows of state probabilities, two per
    cell; each day's weight on each row; and each row's block."""
    a, b, s = line
    cells = np.unique(np.concatenate([np.arange(lo, hi) for _, lo, hi in windows]))
    edges = np.union1d(cells, cells + 1) * h
    # a crossing narrower than a cell is resolved by cells of its own width
    narrow = (s[:, 0] < h * np.abs(b[:, 0])) & (b[:, 0] != 0)
    cross = (((threshold - a) / b)[narrow] + (s / np.abs(b))[narrow] * _GRADES).ravel()
    edges = np.unique(np.clip(np.concatenate(
        [edges, cross[(cross > edges[0]) & (cross < edges[-1])]]), -_FMAX, _FMAX))
    # Each day weighs a cell's two rows by the linear function through its
    # nodes: half its mass each, -+ sqrt(3) times its first moment about
    # the midpoint c over the width, which in the day's standard units z is
    # (phi(z0) - phi(z1) - mass c) / (z1 - z0), or -c phi(c) (z1 - z0)^2 / 12
    # below a width of 1e-2, where the difference would lose it.  The end
    # cells also hold the mass beyond the day's span, and no tilt.
    spans = [np.searchsorted(edges, np.clip([lo * h, hi * h], -_FMAX, _FMAX))
             for _, lo, hi in windows]
    z = np.concatenate([(edges[j0 + 1:j1] - mc[d]) / sig[d]
                        for (d, _, _), (j0, j1) in zip(windows, spans)])
    cdf, density = _phi(z), _INV_SQRT_2PI * _exp_half_square(np.abs(z))
    weights = np.zeros((len(windows), 2 * len(edges) - 2))
    at = 0
    for row, ((d, lo, hi), (j0, j1)) in zip(weights, zip(windows, spans)):
        k = at + j1 - j0 - 1  # the window's interior edges are at..k - 1
        mass = np.maximum(np.diff(np.concatenate([[0.0], cdf[at:k], [1.0]])), 0.0)
        tilt = np.zeros(len(mass))
        if abs(lo * h) < _FMAX and abs(hi * h) < _FMAX:  # else no tilt past +-max
            c, dz = 0.5 * z[at:k - 1] + 0.5 * z[at + 1:k], z[at + 1:k] - z[at:k - 1]
            moment = (density[at:k - 1] - density[at + 1:k] - mass[1:-1] * c) / dz
            near = -c * _INV_SQRT_2PI * _exp_half_square(np.abs(c)) * dz * dz / 12.0
            tilt[1:-1] = math.sqrt(3.0) * np.where(dz < 1e-2, near, moment)
        row[2 * j0:2 * j1:2], row[2 * j0 + 1:2 * j1:2] = mass / 2 - tilt, mass / 2 + tilt
        at = k
    # the rows, with a last zero column (see gaussian_days), made a few
    # blocks of cells at a time so that their temporaries stay small
    probs = np.zeros((2 * len(edges) - 2, len(a) + 1))
    for c in range(0, len(edges) - 1, 8 * _CELL_BLOCK):
        rows = _cell_rows(line, edges[c:c + 8 * _CELL_BLOCK + 1], threshold)
        probs[2 * c:2 * c + len(rows), :-1] = rows
    blocks = np.repeat(np.floor(edges[:-1] / h) // _CELL_BLOCK, 2)
    return [d for d, _, _ in windows], probs, weights, blocks


def gaussian_days(
    cals: dict[str, StateCalibration],
    markets: list[MarketCalibration],
    ev_table: dict[str, int],
    win_threshold: float = 0.0,
):
    """Each market's EV histogram and state win probabilities under
    Gaussian noise, computed on a lattice of market levels instead of
    sampled: ``(states, histograms, p_state)``, one row per market of
    ``EV_BINS`` probabilities and of one per state (sorted).

    Given the terminal market m, the states are independent and state i
    wins with probability Phi((a_i + b_i m - theta) / s_i), so the votes won
    are a Poisson-binomial H(m); a day is H averaged over its Gaussian law
    of m.  See the module docstring for the lattice, the cells and the
    error bound."""
    states = _states(cals, ev_table)
    votes = np.array([ev_table[s] for s in states])
    order = np.argsort(votes, kind="stable")
    line = tuple(np.array([getattr(cals[states[i]], name) for i in order])[:, None]
                 for name in ("alpha", "beta", "sigma_eps"))
    votes = votes[order]
    # einsum adds a sum's terms in order when its output rows have two
    # entries or more (with one it takes a dot product's order), so each
    # sum here has a zero column more, cut off at the end
    histograms = np.zeros((len(markets), EV_BINS + 1))
    p_state = np.zeros((len(markets), len(states) + 1))
    with np.errstate(all="ignore"):
        sig, mc = _market_terms(markets)
        parts, lattices = [], {}
        for d, (scale, m) in enumerate(zip(sig, mc)):
            if 0.0 < scale / CELLS_PER_SD and scale < math.inf:
                # the lattice of the day's scale: cells of h = 2^e, e the
                # greatest with scale / CELLS_PER_SD >= h
                h = math.ldexp(1.0, math.frexp(scale / CELLS_PER_SD)[1] - 1)
                at, span = m / h, _SPAN * (scale / h)
                if abs(at) + span < 2**53:  # else m hides the scale
                    lattices.setdefault(h, []).append(
                        (d, math.floor(at - span), math.ceil(at + span)))
                    continue
                points, mass = [m], [1.0]
            elif scale < math.inf:  # 0, or below a cell's resolution: m
                points, mass = [m], [1.0]
            elif scale == math.inf:  # half the paths' markets are -inf, half +inf
                points, mass = [-math.inf, math.inf], [0.5, 0.5]
            else:  # NaN, 0 * inf: every market is NaN, and no state wins
                points, mass = [math.nan], [1.0]
            probs = np.zeros((len(points), len(states) + 1))
            probs[:, :-1] = _win_at(line, np.array(points), win_threshold).T
            parts.append(([d], probs, np.array([mass]), np.zeros(len(points))))
        levels = (_level_part(line, win_threshold, h, windows, sig, mc)
                  for h, windows in lattices.items())  # one lattice at a time
        for days, probs, weights, blocks in chain(parts, levels):
            days = np.array(days)
            starts = np.flatnonzero(np.r_[True, blocks[1:] != blocks[:-1]])
            for r0, r1 in zip(starts, [*starts[1:], len(blocks)]):
                w = weights[:, r0:r1]
                rows = np.flatnonzero(w.any(axis=1))
                if len(rows):
                    lo, bins = _poisson_binomial(probs[r0:r1, :-1], votes)
                    # einsum sums over the cells in order, with no BLAS
                    w, d = w[rows], days[rows]
                    histograms[d, lo:lo + bins.shape[1]] += np.einsum("dj,jk->dk", w, bins)
                    p_state[d] += np.einsum("dj,js->ds", w, probs[r0:r1])
    # a sum of a few ulps past 0 or 1 is taken back to it
    return (states, np.maximum(histograms[:, :EV_BINS], 0.0),
            np.clip(p_state[:, np.argsort(order)], 0.0, 1.0))


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
    """One forecast per market in ``markets``.

    Gaussian noise is computed by :func:`gaussian_days`, which reads
    neither the seed, the paths nor the workers.  Student-T noise is
    sampled by :func:`simulate_paths`: each state is drawn once (same seed
    throughout) and every day is settled from those draws with that day's
    level and horizon.  Either way each entry equals ``run_forecast`` on
    that day's market, and two days with identical data differ only
    through the remaining diffusion time.  ``n_paths`` and ``seed`` echo
    ``cfg``.
    """
    if cfg.noise_model == "gaussian":
        states, histograms, p_state = gaussian_days(cals, markets, ev_table, cfg.win_threshold)
    else:
        paths = simulate_paths(cals, markets, ev_table, cfg)
        states, histograms, p_state = paths.states, paths.ev_counts / cfg.n_paths, paths.p_state
    return [ForecastDistribution(
        p_state={s: float(p) for s, p in zip(states, row)},
        p_national=float(histogram[WIN_ELECTORAL_VOTES:].sum()),
        ev_histogram=histogram, n_paths=cfg.n_paths, seed=cfg.seed)
        for histogram, row in zip(histograms, p_state)]
