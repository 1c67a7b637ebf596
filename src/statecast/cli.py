"""Command-line frontend: reproducible runs that emit plot-ready CSV/JSON.

Subcommands: ``forecast`` (polls -> win probabilities + EV histogram +
probability time series), ``calibrate`` (dump the calibration document),
``score`` (score tables per metric and weighting), ``trade`` (mark-to-market
P&L per expert plus the online mixture), ``aggregate`` (exponential-weights
combination with regret accounting), and ``curves`` (score-shape tables).

Runs are configured by a flat ``key = value`` config file plus flags; flags
win.  Each setting is declared once, as a :class:`RunConfig` field, and each
field is a flag of some subcommand: ``--`` plus the key with dashes
(``--reference`` sets ``reference_mode``, ``--reference-file`` sets
``reference``).  The field's type, ``_RANGES`` and ``_CHOICES`` parse and
check flag and config values alike.  Every input
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
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from datetime import date
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import calibration as cal_mod
from . import ingest, online, scoring, trading
from .errors import ConfigurationError, IngestError, StatecastError
from .scoring import BinaryForecastSeries, ScoreReport
from .simulation import (
    GaussianNoise,
    SimulationConfig,
    StudentTNoise,
    probability_time_series,
    run_forecast,  # not called here; perfbench/spans.py wraps cli.run_forecast by name
)
from .states import EV_BINS, NATIONAL, default_ev_table, load_ev_table, state_code
from .tables import iso_date, named, read_rows

ONLINE_NAME = "ONLINE"

_PATH_KEYS = (
    "polls", "historical", "ev_table", "experts", "series", "outcomes",
    "histograms", "reference", "calibration",
)


@dataclass
class RunConfig:
    """Everything a run needs; every field has a config-file key of the
    same name and is a flag of some subcommand."""

    election_date: date | None = None
    seed: int | None = None
    paths: int = 10000
    bandwidth: float = 5.0
    noise_model: str = "gaussian"
    win_threshold: float = 0.0
    workers: int = 1
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


#: What each value of a choice setting selects; its keys are the choices.
_NOISE_MODELS = {"gaussian": GaussianNoise(), "student_t": StudentTNoise()}
_LOSSES = {"quadratic": online.quadratic_losses, "trading": online.trading_losses}
#: Allowed values of the settings that take one of a fixed set.
_CHOICES = {
    "noise_model": tuple(_NOISE_MODELS),
    "loss": tuple(_LOSSES),
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


#: The range of each numeric setting that has one: a test and what it asks.
_RANGES = {
    "seed": (lambda v: 0 <= v < 2**64, f"in 0..{2**64 - 1}"),
    "paths": (lambda v: v >= 1, ">= 1"),
    "workers": (lambda v: v >= 1, ">= 1"),
    "bandwidth": (lambda v: v > 0, "> 0"),
    "ev_realization": (lambda v: 0 <= v < EV_BINS, f"in 0..{EV_BINS - 1}"),
}


def _value_type(key, hint):
    """The parser of the field ``key`` annotated ``T`` or ``T | None``; a
    value outside the field's range is refused."""
    (kind,) = [t for t in get_args(hint) or (hint,) if t is not type(None)]
    parse = {float: finite, date: iso_date}.get(kind, kind)
    if key not in _RANGES:
        return parse
    test, allowed = _RANGES[key]

    def parse_in_range(text):
        value = parse(text)
        if not test(value):
            raise ValueError(f"must be {allowed}, not {text!r}")
        return value

    parse_in_range.__name__ = f"{key} ({allowed})"  # argparse's name for the value
    return parse_in_range


_TYPES = {key: _value_type(key, hint) for key, hint in get_type_hints(RunConfig).items()}


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
    relative paths are resolved against the config file's directory.  A key
    set twice is an error at its second line."""
    path = Path(path)
    cfg = RunConfig()
    first: dict[str, int] = {}  # key -> the line that set it
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
            if first.setdefault(key, lineno) != lineno:
                raise ValueError(f"set twice; first at line {first[key]}")
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


def _sim_config(cfg: RunConfig) -> SimulationConfig:
    if cfg.seed is None:
        raise ConfigurationError("seed is required (set it in the config or pass --seed)")
    return SimulationConfig(seed=cfg.seed, n_paths=cfg.paths,
                            noise_model=_NOISE_MODELS[cfg.noise_model],
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


@contextmanager
def _notes(category):
    """Print each distinct message of the ``category`` warnings raised inside
    once, as a ``note:`` line; show any other warning as usual."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", category)
        yield
    for w in caught:
        if not issubclass(w.category, category):
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    for message in dict.fromkeys(str(w.message) for w in caught
                                 if issubclass(w.category, category)):
        print(f"note: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# calibration pipeline shared by forecast/calibrate


def _note_rows(parsed: ingest.ParseResult, kind: str, path: str) -> None:
    """One ``note:`` line each for the skipped and the flagged rows, if any."""
    for verb, rows in (("skipped", parsed.skipped), ("flagged", parsed.flagged)):
        if rows:
            line, reason = rows[0]
            print(f"note: {verb} {len(rows)} {kind} row(s) of {path}; "
                  f"first at line {line}: {reason}", file=sys.stderr)


def _calibrate_from_files(cfg: RunConfig):
    """Returns (cals, days, ev_table): ``days`` is the market on each day to
    forecast, day 0 first.  A frozen calibration is one day; polls give one
    per grid day of the smoothed national spread."""
    ev_table = _load_ev(cfg)
    if cfg.calibration:
        with open(cfg.calibration, encoding="utf-8") as fh:
            cals, market = named(cfg.calibration,
                                 lambda: cal_mod.calibration_from_dict(json.load(fh)))
        if market is None:
            raise ConfigurationError(f"{cfg.calibration} has no market block; cannot simulate")
        missing = [s for s in ev_table if s not in cals]
        if missing:
            raise ConfigurationError(
                f"{cfg.calibration}: missing calibration for: {', '.join(missing)}")
        return cals, [market], ev_table

    if not cfg.polls:
        raise ConfigurationError("polls file is required (or a calibration file)")
    if not cfg.election_date:
        raise ConfigurationError("election_date is required to date the polls")

    parsed = ingest.parse_polls(cfg.polls, cfg.election_date)
    _note_rows(parsed, "poll", cfg.polls)
    polls = parsed.records
    us = polls.state == NATIONAL
    if not us.any():
        raise ConfigurationError(f"{cfg.polls}: no national (US) poll row")
    with _notes(ingest.KernelUnderflowWarning):
        national = ingest.smooth_national(polls.t[us], ingest.to_spreads(polls)[us],
                                          bandwidth=cfg.bandwidth)

    historical = {}
    if cfg.historical:
        hist = ingest.load_historical(cfg.historical)
        _note_rows(hist, "historical", cfg.historical)
        historical = hist.records

    cals = cal_mod.calibrate_states(polls, national, historical, states=ev_table.keys())
    market = cal_mod.calibrate_market(national, polls)
    # day 0 is ``market`` itself
    return cals, [replace(market, m_current=float(v), horizon=float(t))
                  for t, v in zip(national.grid, national.values)], ev_table


def cmd_forecast(cfg: RunConfig, out_dir: Path) -> int:
    cals, days, ev_table = _calibrate_from_files(cfg)
    dists = probability_time_series(cals, days, ev_table, _sim_config(cfg))
    dist = dists[0]
    _write_json(out_dir / "forecast.json", dist.to_dict())
    _write_csv(out_dir / "timeseries.csv", ["days_to_election", "p_national"],
               [(mkt.horizon, d.p_national) for mkt, d in zip(days, dists)])

    print(f"p_national = {dist.p_national:.4f} over {dist.n_paths} paths "
          f"(seed {dist.seed})")
    return 0


def cmd_calibrate(cfg: RunConfig, out_dir: Path) -> int:
    cals, days, _ = _calibrate_from_files(cfg)
    _write_json(out_dir / "calibration.json", cal_mod.calibration_to_dict(cals, days[0]))
    n_hist = sum(1 for c in cals.values() if c.source == cal_mod.SOURCE_HISTORICAL)
    print(f"calibrated {len(cals)} states ({n_hist} from historical data)")
    return 0


# ---------------------------------------------------------------------------
# scoring


def _read_series_file(path: str, outcomes: dict[str, int], ev_table: dict[str, int]):
    """Long CSV forecaster,state,date,p -> {(forecaster, state): series}.
    A series' state must be US or a state code and needs an outcome; a state
    other than US also needs an EV entry.  Each is checked at its first row."""
    points: dict[tuple[str, str], dict[float, float]] = {}
    # Per-read memos: raw (forecaster, state) cells -> points, date cell -> day.
    series: dict[tuple[str, str], dict[float, float]] = {}
    days: dict[str, float] = {}

    def parse(cells, line):
        forecaster, state, text, p = cells
        p = _probability(p)
        pts = series.get((forecaster, state))
        if pts is None:
            code = state_code(state, national=True)
            if code not in outcomes:
                raise ValueError(f"no outcome recorded for {code}")
            if code != NATIONAL and code not in ev_table:
                raise ValueError(f"state {code} has no EV table entry")
            pts = series[forecaster, state] = points.setdefault((forecaster.strip(), code), {})
        t = days.get(text)
        if t is None:
            t = days[text] = _day(text)
        if t in pts:
            raise ValueError(f"date {text.strip()} is repeated")
        pts[t] = p

    def finish():
        return {key: BinaryForecastSeries(key[0], *zip(*sorted(pts.items())))
                for key, pts in points.items()}

    return read_rows(path, ("forecaster", "state", "date", "p"), parse, finish)


def _read_outcomes(path: str) -> dict[str, int]:
    """CSV state,omega -> {state: 0 or 1}."""
    out: dict[str, int] = {}

    def parse(cells, line):
        state, omega = cells
        omega = int(omega)
        if omega not in (0, 1):
            raise ValueError(f"omega = {omega} is not 0 or 1")
        state = state_code(state, national=True)
        if state in out:
            raise ValueError(f"state {state} is repeated")
        out[state] = omega

    return read_rows(path, ("state", "omega"), parse, lambda: out)


def _read_histograms(path: str) -> dict[str, np.ndarray]:
    """Long CSV forecaster,ev,p -> normalized histogram per forecaster; a
    (forecaster, ev) pair given twice is an error at its second row."""
    masses: dict[str, list[float | None]] = {}  # None: no row for that bin yet

    def parse(cells, line):
        name, ev, text = cells
        ev, p = int(ev), float(text)
        if not 0 <= ev < EV_BINS:
            raise ValueError(f"ev = {ev} is outside 0..{EV_BINS - 1}")
        if not 0.0 <= p < math.inf:
            raise ValueError(f"p = {text!r} is not a finite mass >= 0")
        name = name.strip()
        m = masses.get(name) or masses.setdefault(name, [None] * EV_BINS)
        if m[ev] is not None:
            raise ValueError(f"ev {ev} of {name} is repeated")
        m[ev] = p

    def finish():
        out = {}
        for name, m in masses.items():
            m = [p or 0.0 for p in m]  # no row, and a -0.0 row, give a 0.0 bin
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
        if national is not None:
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
    tables: dict[tuple[str, str], list[ScoreReport]] = {}
    binary_metrics = [m for m in metrics if m in _BINARY_SCORERS]
    density_metrics = [m for m in metrics if m in _DENSITY_SCORERS]
    # A file that no requested metric reads is not opened.
    for key, readers in (("series", binary_metrics), ("outcomes", binary_metrics),
                         ("histograms", density_metrics)):
        if getattr(cfg, key) and not readers:
            print(f"note: --metrics {' '.join(metrics)} does not read the {key} file "
                  f"{getattr(cfg, key)}", file=sys.stderr)

    if binary_metrics:
        if not cfg.series:
            raise ConfigurationError("score needs a series file for Brier/log metrics")
        if not cfg.outcomes:
            raise ConfigurationError("score needs an outcomes file for Brier/log metrics")
        outcomes = _read_outcomes(cfg.outcomes)
        series = _read_series_file(cfg.series, outcomes, ev_table)
        # A 0 or 1 on the wrong side scores -inf with a warning.
        with _notes(scoring.HypersensitiveForecastWarning):
            for metric in binary_metrics:
                _score_series(tables, metric, series, outcomes, ev_table)

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


def _read_panel(path: str, prices: dict[float, float] | None = None,
                columns: tuple[str, ...] | None = None) -> online.ExpertPanel:
    """Wide CSV date,<column>,... -> one row of probabilities per date, in
    date order; the columns are ``columns``, or else every header cell but
    ``date``.  With ``prices``, every date must have a price."""
    names = list(columns or ())
    rows: dict[float, list[float]] = {}

    def header_columns(header):
        if columns is None:
            names.extend(name for name in header if name and name != "date")
        return ("date", *names)

    def parse(cells, line):
        text, *values = cells
        t = _day(text)
        if t in rows:
            raise ValueError(f"date {text.strip()} is repeated")
        if prices is not None and t not in prices:
            raise ValueError(f"date {text.strip()} has no reference price")
        rows[t] = [_probability(v) for v in values]

    def finish():
        times = sorted(rows)
        return online.ExpertPanel(names=names, times=np.array(times),
                                  values=np.array([rows[t] for t in times]))

    return read_rows(path, header_columns, parse, finish)


def _panel_and_reference(cfg: RunConfig, command: str, pairmean: bool = False):
    """The experts panel, its reference price series and the reference
    prices on the panel's dates.  The reference is the panel's mean
    (``pairmean``) or the reference file, a one-column panel that must price
    every date of the experts panel."""
    if not cfg.experts:
        raise ConfigurationError(f"{command} needs an experts panel file")
    if pairmean:
        panel = _read_panel(cfg.experts)
        ref = BinaryForecastSeries("pairmean", panel.times.copy(), panel.values.mean(axis=1))
        if cfg.reference:
            print(f"note: --reference pairmean does not read the reference file {cfg.reference}",
                  file=sys.stderr)
    elif not cfg.reference:
        raise ConfigurationError(f"{command} needs a reference file")
    else:
        market = _read_panel(cfg.reference, columns=("price",))
        ref = BinaryForecastSeries("market", market.times, market.values[:, 0])
        panel = _read_panel(cfg.experts, dict(zip(ref.times.tolist(), ref.probs.tolist())))
    # An output name stands for one forecaster: no two of them share a file.
    taken = {ONLINE_NAME: "the online mixture", "summary": "the P&L summary"}
    for name in panel.names:
        safe = _output_name(name)
        if safe in taken:
            raise IngestError(f"{cfg.experts}:1: expert {name!r} and {taken[safe]} both "
                              f"have the output name {safe}")
        taken[safe] = f"expert {name!r}"
    return panel, ref, ref.probs[np.isin(ref.times, panel.times)]


def _iso(t: float) -> str:
    return str(date.fromordinal(int(t)))


def _online_mixture(cfg: RunConfig, panel: online.ExpertPanel, ref_on_panel: np.ndarray):
    """Exponential weights over all but the panel's last date, under the
    configured loss.  Returns (trimmed panel, run result)."""
    trimmed = online.ExpertPanel(panel.names, panel.times[:-1], panel.values[:-1])
    return trimmed, online.run(trimmed, _LOSSES[cfg.loss](panel.values, ref_on_panel))


def _output_name(forecaster: str) -> str:
    """The name a forecaster's output file takes: ``/`` and space become ``_``."""
    return forecaster.replace("/", "_").replace(" ", "_")


def _write_pnl(out_dir: Path, pnl: trading.PnLSeries) -> None:
    _write_csv(out_dir / f"pnl_{_output_name(pnl.forecaster)}.csv",
               ["date", "increment", "cumulative"],
               [(_iso(t), inc, cum)
                for t, inc, cum in zip(pnl.times, pnl.increments, pnl.cumulative)])


def cmd_trade(cfg: RunConfig, out_dir: Path) -> int:
    pairmean = cfg.reference_mode == "pairmean"
    panel, ref, ref_on_panel = _panel_and_reference(cfg, "trade", pairmean)
    # Settled at the national outcome, or at the final price without one.
    omega = _read_outcomes(cfg.outcomes).get(NATIONAL) if cfg.outcomes else None
    settled_series: list[trading.PnLSeries] = []

    def trade_one(name: str, times: np.ndarray, probs: np.ndarray) -> None:
        forecast = BinaryForecastSeries(name, times, probs)
        pos = trading.positions(forecast, ref)
        pnl = trading.mark_to_market(pos, ref, forecaster=name)
        settled_series.append(trading.settle(pnl, omega=omega))

    if pairmean and panel.n_experts == 2:
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
    price = "pair-mean" if pairmean else "market"
    settled_at = "realization" if omega is not None else f"final {price} price"
    print(f"traded {len(settled_series)} forecaster(s); settled at {settled_at}")
    return 0


def cmd_aggregate(cfg: RunConfig, out_dir: Path) -> int:
    panel, _, ref_on_panel = _panel_and_reference(cfg, "aggregate")
    if len(panel.times) < 2:
        raise ConfigurationError(f"{cfg.experts}: aggregate needs a panel of 2 or more dates")
    trimmed, result = _online_mixture(cfg, panel, ref_on_panel)

    _write_csv(out_dir / "aggregate.csv", ["date", "prediction"],
               [(_iso(t), p) for t, p in zip(trimmed.times, result.aggregate)])

    n_rounds = len(trimmed.times)
    bound = online.regret_bound(panel.n_experts, n_rounds)
    _write_json(out_dir / "learner.json", {
        "loss": cfg.loss,
        "names": panel.names,
        "rounds": n_rounds,
        "eta": result.state.eta,
        "final_weights": dict(zip(panel.names, map(float, result.state.weights))),
        "cumulative_losses": dict(zip(panel.names,
                                      map(float, result.state.cumulative_losses))),
        "regret": result.regret,
        "regret_bound": bound,
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
          f"regret {result.regret:.4f} (bound {bound:.4f})")
    return 0


_CURVE_METRICS = tuple(scoring._DENSITY_FNS)


def cmd_curves(cfg: RunConfig, out_dir: Path) -> int:
    densities = scoring.default_curve_family()
    realizations = np.arange(EV_BINS)
    labels = [label for label, _ in densities]
    for metric in _CURVE_METRICS:
        table = scoring.score_curves(metric, densities, realizations)
        _write_csv(out_dir / f"curves_{metric}.csv", ["realization"] + labels,
                   [[int(w), *row] for w, row in zip(realizations, table)])
    print(f"wrote {len(_CURVE_METRICS)} curve table(s) over {len(labels)} densities")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


#: Subcommand -> (handler, help, settings it takes as flags).
_COMMANDS = {
    "forecast": (cmd_forecast, "simulate win probabilities and the EV histogram",
                 ("seed", "paths", "workers", "polls", "historical", "ev_table", "calibration",
                  "election_date", "bandwidth", "noise_model", "win_threshold")),
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
        for key in keys:
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
