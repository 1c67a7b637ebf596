"""Seeded input generators for the benchmark workloads.

Every generator takes a numpy ``Generator`` built from the workload seed and
writes plain CSV/JSON files that the statecast CLI reads; the program never
sees the generator's truth.  Sizes are fixed per workload and scale, so a
different seed changes values but not the amount of work.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

ELECTION = date(2024, 11, 5)
N_BINS = 539
WIN_EV = 270

#: Daily standard deviation of the true national spread's random walk.  Wide
#: enough that the national series moves a few points over the poll window,
#: so per-state slopes are identified.
WALK_SD = 0.4
#: About the daily volatility the CLI estimates from the smoothed series.
SIGMA_M = 0.1
#: Past elections in the historical file.
HISTORY_YEARS = (2012, 2016, 2020)
#: National poll sample sizes are drawn from [lo, hi).
NATIONAL_N = (600, 1501)

_SAMPLE_TYPES = ("LV", "RV", "A")
_POLL_HEADER = ["pollster", "state", "date", "sample_size", "sample_type",
                "pct_c1", "pct_c2"]

#: One malformed row per kind; each breaks exactly one rule of the poll
#: parser, so every one of them must be skipped.
_MALFORMED = (
    {"state": "ZZ"},
    {"date": "2024-13-45"},
    {"date": str(ELECTION + timedelta(days=3))},
    {"sample_size": "many"},
    {"sample_size": "0"},
    {"pct_c1": ""},
    {"pct_c1": "120"},
    {"pct_c1": "60", "pct_c2": "45"},
    {"sample_type": "Robots"},
    {"pollster": ""},
)


def read_ev_table(root: Path) -> dict[str, int]:
    """The bundled apportionment, read straight from the data file."""
    path = root / "src" / "statecast" / "data" / "electoral_votes_2016.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["state"]: int(row["ev"]) for row in csv.DictReader(fh)}


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _day(t: int) -> str:
    return str(ELECTION - timedelta(days=int(t)))


@dataclass
class Race:
    """Truth of a synthetic race: per-state lines and the national level."""

    ev: dict[str, int]
    alpha: dict[str, float]
    beta: dict[str, float]
    sigma: dict[str, float]
    m_end: float
    sigma_total: float
    horizon: float


def _p_national(race: Race, m_end: float, z_m, z_s, states) -> float:
    m = m_end + race.sigma_total * math.sqrt(race.horizon) * z_m
    alpha = np.array([race.alpha[s] for s in states])
    beta = np.array([race.beta[s] for s in states])
    sigma = np.array([race.sigma[s] for s in states])
    spreads = alpha + beta * m[:, None] + sigma * z_s
    votes = (spreads > 0.0) @ np.array([race.ev[s] for s in states])
    return float(np.mean(votes >= WIN_EV))


def make_race(rng, root: Path, horizon: float, target_p: float) -> Race:
    """Random state lines, with the final national level bisected so that
    the truth gives ``target_p`` to candidate 1.

    The diffusion volatility is about what the CLI estimates from the polls
    :func:`write_polls` draws: the mean binomial error of a national poll at
    a 50/50 share, plus the smoothed series' daily moves."""
    ev = read_ev_table(root)
    states = sorted(ev)
    race = Race(
        ev=ev,
        alpha={s: rng.normal(0.0, 12.0) for s in states},
        beta={s: float(np.clip(rng.normal(1.0, 0.15), 0.6, 1.4)) for s in states},
        sigma={s: rng.uniform(1.5, 4.0) for s in states},
        m_end=0.0,
        sigma_total=float(np.mean(100.0 / np.sqrt(np.arange(*NATIONAL_N)))) + SIGMA_M,
        horizon=horizon,
    )
    z_m = rng.standard_normal(4000)
    z_s = rng.standard_normal((4000, len(states)))
    lo, hi = -40.0, 40.0
    for _ in range(40):
        mid = (lo + hi) / 2
        if _p_national(race, mid, z_m, z_s, states) < target_p:
            lo = mid
        else:
            hi = mid
    race.m_end = (lo + hi) / 2
    return race


def write_historical(rng, race: Race, path: Path) -> Path:
    """Three past elections per state, on the race's own state lines."""
    rows = []
    for year in HISTORY_YEARS:
        national = rng.normal(0.0, 8.0)
        rows.extend(
            (year, s, round(race.alpha[s] + race.beta[s] * national
                            + rng.normal(0.0, race.sigma[s]), 2), round(national, 2))
            for s in sorted(race.ev))
    _write_csv(path, ["year", "state", "state_spread", "national_spread"], rows)
    return path


def _poll_row(rng, pollster, state, t, spread, sample_size):
    other = rng.uniform(3.0, 10.0)
    spread = float(np.clip(spread, -(99.0 - other), 99.0 - other))
    c1 = round((100.0 - other + spread) / 2, 1)
    c2 = round((100.0 - other - spread) / 2, 1)
    return [pollster, state, _day(t), int(sample_size),
            _SAMPLE_TYPES[rng.integers(3)], c1, c2]


def _national_path(rng, race: Race, t_lo: int, t_hi: int) -> dict[int, float]:
    """Daily true national spread, a random walk ending at ``race.m_end``."""
    path = {t_lo: race.m_end}
    for t in range(t_lo + 1, t_hi + 1):
        path[t] = path[t - 1] + rng.normal(0.0, WALK_SD)
    return path


def pick_thin(rng, states: list[str], n: int) -> list[str]:
    """The states that get fewer polls than calibration needs."""
    return sorted(rng.choice(states, size=n, replace=False).tolist())


@dataclass
class PollFile:
    path: Path
    n_malformed: int
    thin_states: list[str]
    grid_points: int


def write_polls(rng, race: Race, path: Path, t_lo: int, t_hi: int,
                n_national: int, n_state: int, n_thin: int,
                n_malformed: int) -> PollFile:
    """Poll CSV: ``n_national`` national rows with one on every day of
    [t_lo, t_hi] (so the grid spans it exactly), ``n_state`` rows over the
    well-polled states (at least 5 each), 1-3 rows for each of ``n_thin``
    thin states, and
    ``n_malformed`` rows that the parser must skip."""
    states = sorted(race.ev)
    thin = pick_thin(rng, states, n_thin)
    polled = [s for s in states if s not in thin]
    truth = _national_path(rng, race, t_lo, t_hi)
    days = np.arange(t_lo, t_hi + 1)

    nat_days = np.concatenate([days, rng.choice(days, n_national - len(days))])
    rows = [
        _poll_row(rng, f"NAT{i % 17}", "US", t, truth[t] + rng.normal(0.0, 2.5),
                  rng.integers(*NATIONAL_N))
        for i, t in enumerate(nat_days)
    ]
    counts = {s: 5 for s in polled}
    for s in rng.choice(polled, n_state - 5 * len(polled)).tolist():
        counts[s] += 1
    counts.update({s: int(rng.integers(1, 4)) for s in thin})
    for s, k in counts.items():
        for t in rng.choice(days, k).tolist():
            spread = race.alpha[s] + race.beta[s] * truth[t] + rng.normal(0.0, race.sigma[s])
            rows.append(_poll_row(rng, f"ST{len(rows) % 23}", s, t, spread,
                                  rng.integers(400, 1201)))
    for i in range(n_malformed):
        good = _poll_row(rng, "BAD", str(rng.choice(polled)), int(rng.choice(days)),
                         0.0, 800)
        row = dict(zip(_POLL_HEADER, good))
        row.update(_MALFORMED[i % len(_MALFORMED)])
        rows.append([row[c] for c in _POLL_HEADER])
    order = rng.permutation(len(rows))
    _write_csv(path, _POLL_HEADER, [rows[i] for i in order])
    return PollFile(path=path, n_malformed=n_malformed,
                    thin_states=thin, grid_points=len(days))


def write_calibration(race: Race, path: Path, thin: list[str]) -> None:
    """A frozen calibration document in the CLI's format, from the truth."""
    doc = {
        "states": {
            s: {"state": s, "alpha": race.alpha[s], "beta": race.beta[s],
                "sigma_eps": race.sigma[s], "n_obs": 3 if s in thin else 8,
                "source": "historical" if s in thin else "polls"}
            for s in sorted(race.ev)
        },
        "market": {"sigma_samp": race.sigma_total - SIGMA_M, "sigma_m": SIGMA_M,
                   "m_current": race.m_end, "horizon": race.horizon},
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# evaluation inputs


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


def gaussian_bins(mean: float, sd: float) -> list[float]:
    """Unit-bin discretized Gaussian on 0..538, renormalized."""
    cdf = [0.5 * math.erfc(-((k - 0.5) - mean) / (sd * math.sqrt(2.0)))
           for k in range(N_BINS + 1)]
    h = [b - a for a, b in zip(cdf, cdf[1:])]
    total = sum(h)
    return [x / total for x in h]


@dataclass
class EvalFiles:
    series: Path
    outcomes: Path
    histograms: Path
    experts: Path
    pair: Path
    market: Path
    ev_realization: int


def write_evaluation(rng, root: Path, out: Path, n_forecasters: int,
                     n_days: int, n_histograms: int, n_experts: int) -> EvalFiles:
    states = ["US"] + sorted(read_ev_table(root))
    dates = [_day(t) for t in range(n_days, 0, -1)]

    base = rng.normal(0.0, 2.0, len(states))
    omega = (rng.uniform(size=len(states)) < _logistic(base)).astype(int)
    files = EvalFiles(series=out / "series.csv", outcomes=out / "outcomes.csv",
                      histograms=out / "histograms.csv", experts=out / "experts.csv",
                      pair=out / "pair.csv", market=out / "market.csv",
                      ev_realization=int(rng.integers(200, 341)))
    _write_csv(files.outcomes, ["state", "omega"], zip(states, omega.tolist()))

    rows = []
    for f in range(n_forecasters):
        bias = rng.normal(0.0, 0.5)
        walk = np.cumsum(rng.normal(0.0, 0.08, (len(states), n_days)), axis=1)
        probs = np.clip(_logistic(base[:, None] + bias + walk), 0.01, 0.99)
        for i, state in enumerate(states):
            rows.extend((f"F{f}", state, d, round(float(p), 6))
                        for d, p in zip(dates, probs[i]))
    _write_csv(files.series, ["forecaster", "state", "date", "p"], rows)

    rows = []
    for f in range(n_histograms):
        bins = gaussian_bins(rng.uniform(230, 330), rng.uniform(20, 60))
        rows.extend((f"H{f}", k, p) for k, p in enumerate(bins))
    _write_csv(files.histograms, ["forecaster", "ev", "p"], rows)

    market = np.clip(0.5 + np.cumsum(rng.normal(0.0, 0.02, n_days)), 0.05, 0.95)
    experts = np.clip(market[:, None] + rng.normal(0.0, 0.05, (n_days, n_experts)),
                      0.0, 1.0)
    names = [f"E{j}" for j in range(n_experts)]
    _write_csv(files.market, ["date", "price"],
               zip(dates, np.round(market, 6).tolist()))
    values = np.round(experts, 6).tolist()
    _write_csv(files.experts, ["date"] + names,
               ([d] + v for d, v in zip(dates, values)))
    _write_csv(files.pair, ["date"] + names[:2],
               ([d] + v[:2] for d, v in zip(dates, values)))
    return files
