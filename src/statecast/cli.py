"""Command-line frontend: reproducible runs that emit plot-ready CSV/JSON.

Subcommands: ``forecast`` (polls -> win probabilities + EV histogram +
probability time series), ``calibrate`` (dump the calibration document),
``score`` (score tables per metric and weighting), ``trade`` (mark-to-market
P&L per expert plus the online mixture), ``aggregate`` (exponential-weights
combination with regret accounting), and ``curves`` (score-shape tables).

Runs are configured by a flat ``key = value`` config file plus flags; flags
win.  Each setting is declared once, as a :class:`RunConfig` field: its flag
is ``--`` plus the key with dashes (``--reference`` sets ``reference_mode``
and ``--reference-file`` sets ``reference``), and the field's type and
``_CHOICES`` parse and check flag and config values alike.  Every input
table goes through one row reader, :func:`.tables.read_rows`, which hands
its parser a tuple of each row's cells and turns a malformed row or header
into one ``file:line: reason`` error.  Every output lands under
``--out-dir`` with a fixed name; a fixed seed makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from datetime import date
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import calibration as cal_mod
from . import ingest, online, scoring, trading
from .errors import AlignmentError, ConfigurationError, StatecastError
from .scoring import BinaryForecastSeries, ScoreReport
from .simulation import (
    GaussianNoise,
    SimulationConfig,
    StudentTNoise,
    probability_time_series,
    run_forecast,
)
from .states import NATIONAL, default_ev_table, load_ev_table
from .tables import named, read_rows

ONLINE_NAME = "ONLINE"

_PATH_KEYS = (
    "polls", "historical", "ev_table", "experts", "series", "outcomes",
    "histograms", "reference", "calibration",
)


@dataclass
class RunConfig:
    """Everything a run needs; every field has a config-file key of the
    same name and most have a flag override."""

    election_date: date | None = None
    seed: int | None = None
    paths: int = 10000
    bandwidth: float = 5.0
    noise_model: str = "gaussian"
    sigma_alpha: float = 0.01
    sigma_beta: float = 1.0
    nu: int = 3
    win_threshold: float = 0.0
    workers: int = 1
    min_polls: int = cal_mod.MIN_POLLS
    sigma_samp: float | None = None
    loss: str = "quadratic"
    reference_mode: str = "market"
    ev_realization: int | None = None
    polls: str | None = None
    historical: str | None = None
    ev_table: str | None = None
    experts: str | None = None
    series: str | None = None
    outcomes: str | None = None
    histograms: str | None = None
    reference: str | None = None
    calibration: str | None = None


#: Allowed values of the settings that take one of a fixed set.
_CHOICES = {
    "noise_model": ("gaussian", "student_t"),
    "loss": ("quadratic", "trading"),
    "reference_mode": ("market", "pairmean"),
}
#: Flags whose name is not ``--`` plus the key with dashes.
_FLAGS = {"reference_mode": "--reference", "reference": "--reference-file"}
_HELP = {
    "calibration": "reuse a frozen calibration.json",
    "reference_mode": "reference: betting market file or the expert mean",
}


def finite(text: str) -> float:
    """Parser of float settings: NaN and infinities are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def iso_date(text: str) -> date:
    """Parser of date settings and cells: a ``YYYY-MM-DD`` day."""
    return date.fromisoformat(text.strip())


def _value_type(hint):
    """The parser of a field annotated ``T`` or ``T | None``."""
    (kind,) = [t for t in get_args(hint) or (hint,) if t is not type(None)]
    return {float: finite, date: iso_date}.get(kind, kind)


_TYPES = {key: _value_type(hint) for key, hint in get_type_hints(RunConfig).items()}


def _setting(key: str, text: str):
    """One setting's value: parsed with its field's type, checked against
    its choices."""
    value = _TYPES[key](text)
    if key in _CHOICES and value not in _CHOICES[key]:
        allowed = ", ".join(map(str, _CHOICES[key]))
        raise ValueError(f"must be one of {allowed}, not {text!r}")
    return value


def load_config(path: str | Path) -> RunConfig:
    """Read a flat ``key = value`` file.  A value may be double-quoted or end
    in a ``# comment``; it is parsed as its setting's flag would be, and
    relative paths are resolved against the config file's directory."""
    path = Path(path)
    cfg = RunConfig()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ValueError("expected key = value")
            if key not in _TYPES:
                raise ValueError("unknown config key")
            quoted = len(raw) >= 2 and raw[0] == raw[-1] == '"'
            value = _setting(key, raw[1:-1] if quoted else raw.split("#", 1)[0].strip())
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {key}: {exc}") from exc
        if key in _PATH_KEYS:
            value = str((path.parent / value).resolve())
        setattr(cfg, key, value)
    return cfg


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def _noise_model(cfg: RunConfig):
    if cfg.noise_model == "student_t":
        return StudentTNoise(sigma_alpha=cfg.sigma_alpha,
                             sigma_beta=cfg.sigma_beta, nu=cfg.nu)
    return GaussianNoise()


def _sim_config(cfg: RunConfig) -> SimulationConfig:
    if cfg.seed is None:
        raise ConfigurationError("seed is required (set it in the config or pass --seed)")
    return SimulationConfig(seed=cfg.seed, n_paths=cfg.paths,
                            noise_model=_noise_model(cfg),
                            win_threshold=cfg.win_threshold,
                            workers=cfg.workers)


def _day(text: str) -> float:
    return float(iso_date(text).toordinal())


def _probability(text: str) -> float:
    p = float(text)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{text!r} is not a probability in [0, 1]")
    return p


def _load_ev(cfg: RunConfig) -> dict[str, int]:
    return load_ev_table(cfg.ev_table) if cfg.ev_table else default_ev_table()


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# calibration pipeline shared by forecast/calibrate


def _note_skipped(parsed: ingest.ParseResult, kind: str, path: str) -> None:
    if parsed.skipped:
        line, reason = parsed.skipped[0]
        print(f"note: skipped {parsed.n_skipped} {kind} row(s) of {path}; "
              f"first at line {line}: {reason}", file=sys.stderr)


def _calibrate_from_files(cfg: RunConfig):
    """Returns (cals, market, smoothed national or None, ev_table)."""
    ev_table = _load_ev(cfg)
    if cfg.calibration:
        with open(cfg.calibration, encoding="utf-8") as fh:
            cals, market = named(cfg.calibration,
                                 lambda: cal_mod.calibration_from_dict(json.load(fh)))
        if market is None:
            raise ConfigurationError(f"{cfg.calibration} has no market block; cannot simulate")
        return cals, market, None, ev_table

    if not cfg.polls:
        raise ConfigurationError("polls file is required (or a calibration file)")
    if not cfg.election_date:
        raise ConfigurationError("election_date is required to date the polls")

    parsed = ingest.parse_polls(cfg.polls, cfg.election_date)
    _note_skipped(parsed, "poll", cfg.polls)
    polls = parsed.records
    us = polls.state == NATIONAL
    national = ingest.smooth_national(polls.t[us], ingest.to_spreads(polls)[us],
                                      bandwidth=cfg.bandwidth)

    historical_rows = []
    if cfg.historical:
        hist = ingest.load_historical(cfg.historical)
        _note_skipped(hist, "historical", cfg.historical)
        historical_rows = hist.records

    cals = cal_mod.calibrate_states(polls, national, historical_rows,
                                    states=ev_table.keys(),
                                    min_polls=cfg.min_polls)
    market = cal_mod.calibrate_market(national, polls, sigma_samp=cfg.sigma_samp)
    return cals, market, national, ev_table


def cmd_forecast(cfg: RunConfig, out_dir: Path) -> int:
    cals, market, national, ev_table = _calibrate_from_files(cfg)
    sim_cfg = _sim_config(cfg)

    if national is None:
        markets = [market]
        dists = [run_forecast(cals, market, ev_table, sim_cfg)]
    else:
        # one draw for the whole grid; day 0 is ``market`` itself
        markets = [replace(market, m_current=float(v), horizon=float(t))
                   for t, v in zip(national.grid, national.values)]
        dists = probability_time_series(cals, markets, ev_table, sim_cfg)
    dist = dists[0]
    _write_json(out_dir / "forecast.json", dist.to_dict())
    _write_csv(out_dir / "timeseries.csv", ["days_to_election", "p_national"],
               [(mkt.horizon, d.p_national) for mkt, d in zip(markets, dists)])

    print(f"p_national = {dist.p_national:.4f} over {dist.n_paths} paths "
          f"(seed {dist.seed})")
    return 0


def cmd_calibrate(cfg: RunConfig, out_dir: Path) -> int:
    cals, market, _, _ = _calibrate_from_files(cfg)
    _write_json(out_dir / "calibration.json",
                cal_mod.calibration_to_dict(cals, market))
    n_hist = sum(1 for c in cals.values() if c.source == cal_mod.SOURCE_HISTORICAL)
    print(f"calibrated {len(cals)} states ({n_hist} from historical data)")
    return 0


# ---------------------------------------------------------------------------
# scoring


def _read_series_file(path: str):
    """Long CSV forecaster,state,date,p -> ({(forecaster, state): series},
    {(forecaster, state): line of that series' first row})."""
    points: dict[tuple[str, str], dict[float, float]] = {}
    first_line: dict[tuple[str, str], int] = {}
    # Per-read memos: raw (forecaster, state) cells -> points, date cell -> day.
    series: dict[tuple[str, str], dict[float, float]] = {}
    days: dict[str, float] = {}

    def parse(cells, line):
        forecaster, state, text, p = cells
        p = _probability(p)
        pts = series.get((forecaster, state))
        if pts is None:
            key = (forecaster.strip(), state.strip().upper())
            first_line.setdefault(key, line)
            pts = series[forecaster, state] = points.setdefault(key, {})
        t = days.get(text)
        if t is None:
            t = days[text] = _day(text)
        if t in pts:
            raise ValueError(f"date {text.strip()} is repeated")
        pts[t] = p

    def finish():
        return {key: BinaryForecastSeries(key[0], *zip(*sorted(pts.items())))
                for key, pts in points.items()}, first_line

    return read_rows(path, ("forecaster", "state", "date", "p"), parse, finish)


def _read_outcomes(path: str) -> dict[str, int]:
    """CSV state,omega -> {state: 0 or 1}."""
    out: dict[str, int] = {}

    def parse(cells, line):
        state, omega = cells
        omega = int(omega)
        if omega not in (0, 1):
            raise ValueError(f"omega = {omega} is not 0 or 1")
        state = state.strip().upper()
        if state in out:
            raise ValueError(f"state {state} is repeated")
        out[state] = omega

    return read_rows(path, ("state", "omega"), parse, lambda: out)


def _read_histograms(path: str, n_bins: int = 539) -> dict[str, np.ndarray]:
    """Long CSV forecaster,ev,p -> normalized histogram per forecaster."""
    masses: dict[str, list[float]] = {}

    def parse(cells, line):
        name, ev, text = cells
        ev, p = int(ev), float(text)
        if not 0 <= ev < n_bins:
            raise ValueError(f"ev = {ev} is outside 0..{n_bins - 1}")
        if not 0.0 <= p < math.inf:
            raise ValueError(f"p = {text!r} is not a finite mass >= 0")
        name = name.strip()
        (masses.get(name) or masses.setdefault(name, [0.0] * n_bins))[ev] += p

    def finish():
        out = {}
        for name, m in masses.items():
            if not 0.0 < sum(m) < math.inf:
                raise ValueError(f"histogram {name!r} has total mass {sum(m)}, not > 0")
            h = np.array(m)
            out[name] = h / h.sum()
        return out

    return read_rows(path, ("forecaster", "ev", "p"), parse, finish)


# Copies of scoring's tables, not the same dicts: perfbench/spans.py wraps
# each of them by name.  ``score`` offers every density metric but ``log``.
_BINARY_SCORERS = {m: scoring._BINARY_FNS[m] for m in scoring.BINARY_METRICS}
_DENSITY_SCORERS = {m: scoring._DENSITY_FNS[m] for m in scoring.DENSITY_METRICS}
_SCORE_METRICS = (*_BINARY_SCORERS, *_DENSITY_SCORERS)


def _score_series(tables, metric, series, outcomes, ev_table) -> None:
    """Add ``metric``'s tables over every forecaster's series to ``tables``:
    the national series overall, the state series averaged both ways."""
    fn = _BINARY_SCORERS[metric]
    for forecaster in sorted({f for f, _ in series}):
        national = series.get((forecaster, NATIONAL))
        if national is not None and NATIONAL in outcomes:
            report = ScoreReport(forecaster, metric, fn(national, outcomes[NATIONAL]))
            tables.setdefault((metric, scoring.WEIGHT_OVERALL), []).append(report)
        per_state = [ScoreReport(forecaster, metric, fn(s, outcomes[state]), state=state)
                     for (f, state), s in series.items()
                     if f == forecaster and state != NATIONAL]
        if per_state:
            for weighting in (scoring.WEIGHT_STATE_AVERAGE, scoring.WEIGHT_EV):
                agg = scoring.aggregate_scores(per_state, weighting, ev_table)
                tables.setdefault((metric, weighting), []).append(agg)


def cmd_score(cfg: RunConfig, out_dir: Path, metrics: list[str]) -> int:
    ev_table = _load_ev(cfg)
    outcomes = _read_outcomes(cfg.outcomes) if cfg.outcomes else {}
    tables: dict[tuple[str, str], list[ScoreReport]] = {}

    binary_metrics = [m for m in metrics if m in _BINARY_SCORERS]
    if binary_metrics:
        if not cfg.series:
            raise ConfigurationError("score needs a series file for Brier/log metrics")
        if not outcomes:
            raise ConfigurationError("score needs an outcomes file for Brier/log metrics")
        series, first_line = _read_series_file(cfg.series)
        missing = {line: state for (_, state), line in first_line.items()
                   if state != NATIONAL and state not in outcomes}
        if missing:
            line = min(missing)
            raise ConfigurationError(
                f"{cfg.series}:{line}: no outcome recorded for {missing[line]}")
        # A 0 or 1 on the wrong side scores -inf with a warning, shown once
        # per message as a note like every other diagnostic.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", scoring.HypersensitiveForecastWarning)
            for metric in binary_metrics:
                _score_series(tables, metric, series, outcomes, ev_table)
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"note: {message}", file=sys.stderr)

    density_metrics = [m for m in metrics if m in _DENSITY_SCORERS]
    if density_metrics:
        if not cfg.histograms:
            raise ConfigurationError("score needs a histograms file for density metrics")
        if cfg.ev_realization is None:
            raise ConfigurationError("score needs ev_realization for density metrics")
        histograms = _read_histograms(cfg.histograms)
        for metric in density_metrics:
            fn = _DENSITY_SCORERS[metric]
            for name in sorted(histograms):
                report = ScoreReport(name, metric,
                                     fn(histograms[name], cfg.ev_realization))
                tables.setdefault((metric, scoring.WEIGHT_OVERALL), []).append(report)

    if not tables:
        raise ConfigurationError("nothing to score with the given inputs")
    all_rows = []
    for (metric, weighting), reports in sorted(tables.items()):
        path = out_dir / f"scores_{metric}_{weighting}.csv"
        _write_csv(path, ["forecaster", "metric", "weighting", "value"],
                   [(r.forecaster, r.metric, weighting, r.value) for r in reports])
        for r in reports:
            row = r.to_row()
            row["value"] = str(row["value"]) if math.isinf(row["value"]) else row["value"]
            all_rows.append(row)
    _write_json(out_dir / "scores.json", all_rows)
    print(f"wrote {len(tables)} score table(s)")
    return 0


# ---------------------------------------------------------------------------
# trading / aggregation


def _read_panel(path: str) -> online.ExpertPanel:
    """Wide CSV date,<expert>,... -> one row of predictions per date."""
    names: list[str] = []
    times: list[float] = []
    values: list[list[float]] = []

    def columns(header):
        names.extend(name for name in header if name and name != "date")
        return ("date", *names)

    def parse(cells, line):
        text, *predictions = cells
        t = _day(text)
        if times and t <= times[-1]:
            raise ValueError(f"date {text.strip()} does not follow {_iso(times[-1])}")
        times.append(t)
        values.append([_probability(v) for v in predictions])

    def finish():
        if not times:
            raise ValueError("panel has no dates")
        return online.ExpertPanel(names=names, times=np.array(times), values=np.array(values))

    return read_rows(path, columns, parse, finish)


def _read_reference(path: str) -> BinaryForecastSeries:
    """CSV date,price -> reference prices in date order."""
    prices: dict[float, float] = {}

    def parse(cells, line):
        text, price = cells
        price, t = _probability(price), _day(text)
        if t in prices:
            raise ValueError(f"date {text.strip()} is repeated")
        prices[t] = price

    def finish():
        times = sorted(prices)
        return BinaryForecastSeries("market", times, [prices[t] for t in times])

    return read_rows(path, ("date", "price"), parse, finish)


def _trade_reference(cfg: RunConfig, panel: online.ExpertPanel) -> BinaryForecastSeries:
    if cfg.reference_mode == "pairmean":
        return BinaryForecastSeries("pairmean", panel.times.copy(), panel.values.mean(axis=1))
    if not cfg.reference:
        raise ConfigurationError("market reference mode needs a reference file")
    return _read_reference(cfg.reference)


def _iso(t: float) -> str:
    return str(date.fromordinal(int(t)))


def _reference_on_panel(ref: BinaryForecastSeries, panel: online.ExpertPanel) -> np.ndarray:
    """Reference prices on the panel's dates; every panel date must have one."""
    missing = sorted(set(panel.times.tolist()) - set(ref.times.tolist()))
    if missing:
        days = ", ".join(map(_iso, missing))
        raise AlignmentError(f"reference series missing expert dates: {days}")
    return ref.probs[np.isin(ref.times, panel.times)]


def _online_mixture(cfg: RunConfig, panel: online.ExpertPanel, ref_on_panel: np.ndarray):
    """Exponential weights over all but the panel's last date, under the
    configured loss.  Returns (trimmed panel, run result)."""
    loss_fn = online.trading_losses if cfg.loss == "trading" else online.quadratic_losses
    trimmed = online.ExpertPanel(panel.names, panel.times[:-1], panel.values[:-1])
    return trimmed, online.run(trimmed, loss_fn(panel.values, ref_on_panel))


def _write_pnl(out_dir: Path, pnl: trading.PnLSeries) -> None:
    safe = pnl.forecaster.replace("/", "_").replace(" ", "_")
    _write_csv(out_dir / f"pnl_{safe}.csv",
               ["date", "increment", "cumulative"],
               [(_iso(t), inc, cum)
                for t, inc, cum in zip(pnl.times, pnl.increments, pnl.cumulative)])


def cmd_trade(cfg: RunConfig, out_dir: Path) -> int:
    if not cfg.experts:
        raise ConfigurationError("trade needs an experts panel file")
    panel = _read_panel(cfg.experts)
    ref = _trade_reference(cfg, panel)
    ref_on_panel = _reference_on_panel(ref, panel)
    # Settled at the national outcome, or at the final price without one.
    omega = _read_outcomes(cfg.outcomes).get(NATIONAL) if cfg.outcomes else None
    settled_series: list[trading.PnLSeries] = []

    def trade_one(name: str, times: np.ndarray, probs: np.ndarray) -> None:
        forecast = BinaryForecastSeries(name, times, probs)
        pos = trading.positions(forecast, ref)
        pnl = trading.mark_to_market(pos, ref, forecaster=name)
        settled_series.append(trading.settle(pnl, omega=omega))

    if cfg.reference_mode == "pairmean" and panel.n_experts == 2:
        a = BinaryForecastSeries(panel.names[0], panel.times, panel.values[:, 0])
        b = BinaryForecastSeries(panel.names[1], panel.times, panel.values[:, 1])
        settled_series.extend(trading.pair_trading_scores(a, b, omega=omega))
    else:
        for j, name in enumerate(panel.names):
            trade_one(name, panel.times, panel.values[:, j])

    # Online mixture traded alongside the named experts, over the same
    # reference.
    if len(panel.times) > 1:
        trimmed, result = _online_mixture(cfg, panel, ref_on_panel)
        trade_one(ONLINE_NAME, trimmed.times, result.aggregate)

    for pnl in settled_series:
        _write_pnl(out_dir, pnl)
    # The marked total is the cumulative before the settlement increment.
    summary = [(pnl.forecaster,
                float(pnl.cumulative[-2]) if len(pnl.cumulative) > 1 else 0.0,
                pnl.total)
               for pnl in settled_series]
    _write_csv(out_dir / "pnl_summary.csv",
               ["forecaster", "total_marked", "total_settled"], summary)
    print(f"traded {len(settled_series)} forecaster(s); "
          f"settled at {'realization' if omega is not None else 'final market price'}")
    return 0


def cmd_aggregate(cfg: RunConfig, out_dir: Path) -> int:
    if not cfg.experts:
        raise ConfigurationError("aggregate needs an experts panel file")
    panel = _read_panel(cfg.experts)
    if not cfg.reference:
        raise ConfigurationError("aggregate needs a reference file for losses")
    ref_on_panel = _reference_on_panel(_read_reference(cfg.reference), panel)

    if len(panel.times) < 2:
        print("warning: panel has a single date; nothing to aggregate",
              file=sys.stderr)
        _write_csv(out_dir / "aggregate.csv", ["date", "prediction"], [])
        _write_json(out_dir / "learner.json", {
            "loss": cfg.loss, "names": panel.names, "rounds": 0,
            "regret": 0.0,
        })
        _write_csv(out_dir / "mse.csv", ["forecaster", "mse"], [])
        return 0

    trimmed, result = _online_mixture(cfg, panel, ref_on_panel)

    _write_csv(out_dir / "aggregate.csv", ["date", "prediction"],
               [(_iso(t), p) for t, p in zip(trimmed.times, result.aggregate)])

    n_rounds = len(trimmed.times)
    _write_json(out_dir / "learner.json", {
        "loss": cfg.loss,
        "names": panel.names,
        "rounds": n_rounds,
        "eta": result.state.eta,
        "final_weights": dict(zip(panel.names, map(float, result.state.weights))),
        "cumulative_losses": dict(zip(panel.names,
                                      map(float, result.state.cumulative_losses))),
        "regret": result.regret,
        "regret_bound": online.regret_bound(panel.n_experts, n_rounds),
    })

    # MSE against the next day's reference price, experts and mixture alike.
    next_ref = ref_on_panel[1:]
    mse_rows = [
        (name, float(np.mean((panel.values[:-1, j] - next_ref) ** 2)))
        for j, name in enumerate(panel.names)
    ]
    mse_rows.append((ONLINE_NAME, float(np.mean((result.aggregate - next_ref) ** 2))))
    _write_csv(out_dir / "mse.csv", ["forecaster", "mse"], mse_rows)
    print(f"aggregated {panel.n_experts} experts over {n_rounds} rounds; "
          f"regret {result.regret:.4f} (bound "
          f"{online.regret_bound(panel.n_experts, n_rounds):.4f})")
    return 0


_CURVE_METRICS = tuple(scoring._DENSITY_FNS)


def cmd_curves(cfg: RunConfig, out_dir: Path) -> int:
    densities = scoring.default_curve_family()
    realizations = np.arange(539)
    labels = [label for label, _ in densities]
    for metric in _CURVE_METRICS:
        table = scoring.score_curves(metric, densities, realizations)
        _write_csv(out_dir / f"curves_{metric}.csv", ["realization"] + labels,
                   [[int(w), *row] for w, row in zip(realizations, table)])
    print(f"wrote {len(_CURVE_METRICS)} curve table(s) over {len(labels)} densities")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


#: Subcommand -> (handler, help, settings it takes besides seed, paths and
#: workers).
_COMMANDS = {
    "forecast": (cmd_forecast, "simulate win probabilities and the EV histogram",
                 ("polls", "historical", "ev_table", "calibration", "election_date",
                  "bandwidth", "noise_model", "win_threshold")),
    "calibrate": (cmd_calibrate, "dump the calibration document as JSON",
                  ("polls", "historical", "ev_table", "election_date", "bandwidth")),
    "score": (cmd_score, "score expert series and histograms",
              ("series", "outcomes", "histograms", "ev_table", "ev_realization")),
    "trade": (cmd_trade, "mark-to-market P&L per expert",
              ("experts", "reference", "reference_mode", "outcomes", "loss")),
    "aggregate": (cmd_aggregate, "exponential-weights expert combination",
                  ("experts", "reference", "loss")),
    "curves": (cmd_curves, "score-shape tables for discretized Gaussians", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecast",
        description="Election forecasting, scoring, trading, and aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out-dir", default=".", help="directory for outputs")
        for key in ("seed", "paths", "workers", *keys):
            p.add_argument(_FLAGS.get(key, "--" + key.replace("_", "-")), dest=key,
                           type=_TYPES[key], choices=_CHOICES.get(key), help=_HELP.get(key))
        if command == "score":
            p.add_argument("--metrics", nargs="+", choices=_SCORE_METRICS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = _apply_overrides(cfg, args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "score":
            return cmd_score(cfg, out_dir, args.metrics or list(_SCORE_METRICS))
        return _COMMANDS[args.command][0](cfg, out_dir)
    except StatecastError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        # faults no reader names, such as an unwritable output directory
        print(f"error [{args.command}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
