"""Command-line frontend: reproducible runs that emit plot-ready CSV/JSON.

Subcommands: ``forecast`` (polls -> win probabilities + EV histogram +
probability time series), ``calibrate`` (dump the calibration document),
``score`` (score tables per metric and weighting), ``trade`` (mark-to-market
P&L per expert plus the online mixture), ``aggregate`` (exponential-weights
combination with regret accounting), and ``curves`` (score-shape tables).

Runs are configured by flags alone.  Each setting is one row of one table,
``_SETTINGS``: its flag's parser, range included, and its default.  Each is
a flag of some subcommand, ``--`` plus its name with dashes, without
exception; ``_CHOICES`` lists the values of the settings that take one of a
fixed set.  Every handler reads the parsed namespace.  Every input table
is read by a loop in the ``with`` block of :func:`.tables.read_rows`, which
names a fault raised there, or a bad header, as ``file:line: reason``.
Every output lands under ``--out-dir`` with a fixed name; a fixed seed
makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from datetime import date
from itertools import chain
from pathlib import Path

import numpy as np

from . import calibration as cal_mod
from . import ingest, online, scoring, trading
from .errors import ConfigurationError, IngestError, StatecastError
from .scoring import BinaryForecastSeries
from .simulation import (
    MAX_PATHS,
    NOISE_MODELS,
    SimulationConfig,
    probability_time_series,
    run_forecast,  # not called here; perfbench/spans.py wraps cli.run_forecast by name
)
from .states import EV_BINS, NATIONAL, default_ev_table, load_ev_table, state_code
from .tables import iso_date, named, read_rows

ONLINE_NAME = "ONLINE"
#: The longest file name, in bytes, that the usual file systems take.
NAME_MAX = 255

#: What each value of a choice setting selects; its keys are the choices.
_LOSSES = {"quadratic": online.quadratic_losses, "trading": online.trading_losses}
#: Allowed values of the settings that take one of a fixed set.
_CHOICES = {
    "noise_model": NOISE_MODELS,
    "loss": tuple(_LOSSES),
    "reference": ("market", "pairmean"),
}
_HELP = {
    "calibration": "reuse a frozen calibration.json",
    "reference": "reference: betting market file or the expert mean",
}


def finite(text: str) -> float:
    """Parser of float settings: NaN and infinities are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def file_path(text: str) -> str:
    """Parser of file settings: an empty path names no file."""
    if not text:
        raise ValueError("an empty path names no file")
    return text


def _within(key, parse, test, allowed):
    """``parse``, refusing a value of the setting ``key`` not ``allowed``."""

    def parse_in_range(text):
        value = parse(text)
        if not test(value):
            raise ValueError(f"must be {allowed}, not {text!r}")
        return value

    parse_in_range.__name__ = f"{key} ({allowed})"  # argparse's name for the value
    return parse_in_range


#: Setting -> (the parser of its flag, its default).  Each setting is the
#: flag ``--`` plus its name with dashes, of one subcommand or more; a flag
#: not given leaves the default.
_SETTINGS = {
    "election_date": (iso_date, None),
    "seed": (_within("seed", int, lambda v: 0 <= v < 2**64, f"in 0..{2**64 - 1}"), None),
    "paths": (_within("paths", int, lambda v: 1 <= v <= MAX_PATHS, f"in 1..{MAX_PATHS}"),
              SimulationConfig.n_paths),
    "bandwidth": (_within("bandwidth", finite, lambda v: v > 0, "> 0"), 5.0),
    "noise_model": (str, SimulationConfig.noise_model),
    "win_threshold": (finite, SimulationConfig.win_threshold),
    "workers": (_within("workers", int, lambda v: v >= 1, ">= 1"), SimulationConfig.workers),
    "loss": (str, "quadratic"),
    "reference": (str, "market"),
    "ev_realization": (_within("ev_realization", int, lambda v: 0 <= v < EV_BINS,
                               f"in 0..{EV_BINS - 1}"), None),
    **{key: (file_path, None) for key in (
        "polls", "historical", "ev_table", "experts", "series", "outcomes", "histograms",
        "reference_file", "calibration")},
}


def _sim_config(cfg: argparse.Namespace) -> SimulationConfig:
    if cfg.seed is None:
        raise ConfigurationError("seed is required (pass --seed)")
    return SimulationConfig(seed=cfg.seed, n_paths=cfg.paths,
                            noise_model=cfg.noise_model,
                            win_threshold=cfg.win_threshold,
                            workers=cfg.workers)


def _day(text: str) -> float:
    return float(iso_date(text).toordinal())


def _probability(text: str) -> float:
    p = float(text)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{text!r} is not a probability in [0, 1]")
    return p


def _load_ev(cfg: argparse.Namespace) -> dict[str, int]:
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


#: How a note names each setting that is not a ``<key> file``.
_LABELS = {"election_date": "election date", "bandwidth": "bandwidth", "ev_table": "EV table",
           "ev_realization": "EV realization", "reference_file": "reference file"}


def _note_unread(cfg: argparse.Namespace, why: str, keys) -> None:
    """A ``note:`` line for each of ``keys`` set off its default but unread because of ``why``."""
    for key in keys:
        value = getattr(cfg, key)
        if value != _SETTINGS[key][1]:
            label = _LABELS.get(key, f"{key} file")
            print(f"note: {why} does not read the {label} {value}", file=sys.stderr)


# ---------------------------------------------------------------------------
# calibration pipeline shared by forecast/calibrate


def _note_rows(parsed: ingest.ParseResult, kind: str, path: str) -> None:
    """One ``note:`` line each for the skipped and the flagged rows, if any."""
    for verb, rows in (("skipped", parsed.skipped), ("flagged", parsed.flagged)):
        if rows:
            line, reason = rows[0]
            print(f"note: {verb} {len(rows)} {kind} row(s) of {path}; "
                  f"first at line {line}: {reason}", file=sys.stderr)


def _calibrate_from_files(cfg: argparse.Namespace):
    """Returns (cals, days, ev_table): ``days`` is the market on each day to
    forecast, day 0 first.  A frozen calibration is one day; polls give one
    per grid day of the smoothed national spread."""
    ev_table = _load_ev(cfg)
    if cfg.calibration:
        _note_unread(cfg, "--calibration", ("polls", "historical", "election_date", "bandwidth"))
        with open(cfg.calibration, encoding="utf-8") as fh:
            cals, market = named(cfg.calibration,
                                 lambda: cal_mod.calibration_from_dict(json.load(fh)))
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
    market = named(cfg.polls, lambda: cal_mod.calibrate_market(national, polls))
    # day 0 is ``market`` itself
    return cals, [replace(market, m_current=float(v), horizon=float(t))
                  for t, v in zip(national.grid, national.values)], ev_table


def cmd_forecast(cfg: argparse.Namespace, out_dir: Path) -> int:
    cals, days, ev_table = _calibrate_from_files(cfg)
    dists = probability_time_series(cals, days, ev_table, _sim_config(cfg))
    dist = dists[0]
    _write_json(out_dir / "forecast.json", dist.to_dict())
    _write_csv(out_dir / "timeseries.csv", ["days_to_election", "p_national"],
               [(mkt.horizon, d.p_national) for mkt, d in zip(days, dists)])

    print(f"p_national = {dist.p_national:.4f} over {dist.n_paths} paths "
          f"(seed {dist.seed})")
    return 0


def cmd_calibrate(cfg: argparse.Namespace, out_dir: Path) -> int:
    cals, days, _ = _calibrate_from_files(cfg)
    _write_json(out_dir / "calibration.json", cal_mod.calibration_to_dict(cals, days[0]))
    n_hist = sum(1 for c in cals.values() if c.source == cal_mod.SOURCE_HISTORICAL)
    print(f"calibrated {len(cals)} states ({n_hist} from historical data)")
    return 0


# ---------------------------------------------------------------------------
# scoring


def _read_series_file(path: str, outcomes: dict[str, int], ev_table: dict[str, int]):
    """Long CSV forecaster,state,date,p -> (keys, blocks).  ``keys`` lists
    every (forecaster, state) series in the order of its first row.  Each
    block holds the series of one length, in that order: (their keys, their
    probabilities as one C-contiguous row per series in date order, and
    each series' outcome).  A series' state must be US or a state code and
    needs an outcome; a state other than US also needs an EV entry.  Each
    is checked at its first row.
    The series memo is read only where a run of rows with the same raw
    (forecaster, state) cells starts: a file written series by series reads
    it once a series, and one whose rows interleave series reads it on every
    row, after two string compares."""
    points: dict[tuple[str, str], dict[float, float]] = {}
    # Per-read memos: raw (forecaster, state) cells -> points, date cell -> day.
    series: dict[tuple[str, str], dict[float, float]] = {}
    days: dict[str, float] = {}
    forecaster_run = state_run = pts = None  # the raw cells of the run in hand
    with read_rows(path, ("forecaster", "state", "date", "p")) as (rows, _):
        for forecaster, state, text, p in rows:
            p = _probability(p)
            if forecaster != forecaster_run or state != state_run:
                forecaster_run, state_run = forecaster, state
                pts = series.get((forecaster, state))
                if pts is None:
                    code = state_code(state, national=True)
                    if code not in outcomes:
                        raise ValueError(f"no outcome recorded for {code}")
                    if code != NATIONAL and code not in ev_table:
                        raise ValueError(f"state {code} has no EV table entry")
                    pts = series[forecaster, state] = points.setdefault(
                        (forecaster.strip(), code), {})
            t = days.get(text)
            if t is None:
                t = days[text] = _day(text)
            if t in pts:
                raise ValueError(f"date {text.strip()} is repeated")
            pts[t] = p
    # No repeated day and every p in [0, 1]: each sorted row is a valid series.
    lengths: dict[int, list[tuple[str, str]]] = {}
    for key, pts in points.items():
        lengths.setdefault(len(pts), []).append(key)
    blocks = []
    for n, keys in lengths.items():
        group, size = [points[key] for key in keys], len(keys) * n
        times = np.fromiter(chain.from_iterable(group), float, size).reshape(-1, n)
        probs = np.fromiter(chain.from_iterable(map(dict.values, group)), float, size)
        probs = np.take_along_axis(probs.reshape(-1, n), times.argsort(axis=1), axis=1)
        omega = np.fromiter((outcomes[state] for _, state in keys), float, len(keys))
        blocks.append((keys, probs, omega))
    return list(points), blocks


def _read_outcomes(path: str) -> dict[str, int]:
    """CSV state,omega -> {state: 0 or 1}."""
    out: dict[str, int] = {}
    with read_rows(path, ("state", "omega")) as (rows, _):
        for state, omega in rows:
            omega = int(omega)
            if omega not in (0, 1):
                raise ValueError(f"omega = {omega} is not 0 or 1")
            state = state_code(state, national=True)
            if state in out:
                raise ValueError(f"state {state} is repeated")
            out[state] = omega
    return out


def _read_histograms(path: str) -> dict[str, np.ndarray]:
    """Long CSV forecaster,ev,p -> normalized histogram per forecaster; a
    (forecaster, ev) pair given twice is an error at its second row."""
    masses: dict[str, list[float | None]] = {}  # None: no row for that bin yet
    with read_rows(path, ("forecaster", "ev", "p")) as (rows, _):
        for name, ev, text in rows:
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
    out = {}
    for name, m in masses.items():
        m = [p or 0.0 for p in m]  # no row, and a -0.0 row, give a 0.0 bin
        if not 0.0 < sum(m) < math.inf:
            raise IngestError(f"{path}: histogram {name!r} has total mass {sum(m)}, not > 0")
        h = np.array(m)
        out[name] = h / h.sum()
    return out


# Copies of scoring's tables, not the same dicts: perfbench/spans.py wraps
# each of them by name.  ``score`` offers every density metric but ``log``.
_BINARY_SCORERS = {m: scoring._BINARY_FNS[m] for m in scoring.BINARY_METRICS}
_DENSITY_SCORERS = {m: scoring._DENSITY_FNS[m] for m in scoring.DENSITY_METRICS}
_SCORE_METRICS = (*_BINARY_SCORERS, *_DENSITY_SCORERS)


def _score_series(tables, metric, keys, blocks, ev_table) -> None:
    """Add ``metric``'s ``(forecaster, value)`` rows over every forecaster's
    series to ``tables``, keyed by ``(metric, weighting)``: the national
    series scored overall, the state series scored per state and averaged
    both ways, in the order of their first rows.  Each block of
    :func:`_read_series_file` is scored in one call."""
    fn = _BINARY_SCORERS[metric]
    scores = {}
    for block_keys, probs, omega in blocks:
        scores.update(zip(block_keys, fn(probs, omega).tolist()))
    by_forecaster: dict[str, dict[str, float]] = {}
    for forecaster, state in keys:
        by_forecaster.setdefault(forecaster, {})[state] = scores[forecaster, state]
    for forecaster in sorted(by_forecaster):
        per_state = by_forecaster[forecaster]
        scoring._warn_zero_probability(forecaster, per_state.values())
        national = per_state.pop(NATIONAL, None)
        if national is not None:
            tables.setdefault((metric, scoring.WEIGHT_OVERALL), []).append(
                (forecaster, national))
        if per_state:
            for weighting in (scoring.WEIGHT_STATE_AVERAGE, scoring.WEIGHT_EV):
                tables.setdefault((metric, weighting), []).append(
                    (forecaster, scoring.aggregate_scores(per_state, weighting, ev_table)))


def cmd_score(cfg: argparse.Namespace, out_dir: Path) -> int:
    metrics = list(dict.fromkeys(cfg.metrics or _SCORE_METRICS))
    tables: dict[tuple[str, str], list[tuple[str, float]]] = {}
    binary_metrics = [m for m in metrics if m in _BINARY_SCORERS]
    density_metrics = [m for m in metrics if m in _DENSITY_SCORERS]
    # A file that no requested metric reads is not opened.
    ev_table = _load_ev(cfg) if binary_metrics else None
    why = f"--metrics {' '.join(metrics)}"
    if not binary_metrics:
        _note_unread(cfg, why, ("series", "outcomes", "ev_table"))
    if not density_metrics:
        _note_unread(cfg, why, ("histograms", "ev_realization"))

    if binary_metrics:
        if not cfg.series:
            raise ConfigurationError("score needs a series file for Brier/log metrics")
        if not cfg.outcomes:
            raise ConfigurationError("score needs an outcomes file for Brier/log metrics")
        outcomes = _read_outcomes(cfg.outcomes)
        keys, blocks = _read_series_file(cfg.series, outcomes, ev_table)
        # A 0 or 1 on the wrong side scores -inf with a warning.
        with _notes(scoring.HypersensitiveForecastWarning):
            for metric in binary_metrics:
                _score_series(tables, metric, keys, blocks, ev_table)

    if density_metrics:
        if not cfg.histograms:
            raise ConfigurationError("score needs a histograms file for density metrics")
        if cfg.ev_realization is None:
            raise ConfigurationError("score needs ev_realization for density metrics")
        histograms = _read_histograms(cfg.histograms)
        for metric in density_metrics:
            fn = _DENSITY_SCORERS[metric]
            tables[metric, scoring.WEIGHT_OVERALL] = [
                (name, fn(histograms[name], cfg.ev_realization)) for name in sorted(histograms)]

    all_rows = []
    for (metric, weighting), scores in sorted(tables.items()):
        _write_csv(out_dir / f"scores_{metric}_{weighting}.csv",
                   ["forecaster", "metric", "weighting", "value"],
                   [(forecaster, metric, weighting, value) for forecaster, value in scores])
        all_rows += [{"forecaster": forecaster, "metric": metric, "weighting": weighting,
                      "value": str(value) if math.isinf(value) else value}
                     for forecaster, value in scores]
    _write_json(out_dir / "scores.json", all_rows)
    print(f"wrote {len(tables)} score table(s)")
    return 0


# ---------------------------------------------------------------------------
# trading / aggregation


def _read_panel(path: str, prices: dict[float, float] | None = None,
                columns: tuple[str, ...] | None = None
                ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Wide CSV date,<column>,... -> (names, dates, values): the column
    names, the dates in order and one row of probabilities per date.  The
    columns are ``columns``, or else every header cell but ``date``: at
    least one, each with a name.  With ``prices``, every date must have a
    price."""
    names = list(columns or ())
    rows: dict[float, list[float]] = {}

    def header_columns(header):
        if columns is None:
            for i, name in enumerate(header, 1):
                if not name.strip():
                    raise ValueError(f"column {i} has no name")
            names.extend(name for name in header if name != "date")
        return ("date", *names)

    with read_rows(path, header_columns) as (table, _):
        for text, *values in table:
            t = _day(text)
            if t in rows:
                raise ValueError(f"date {text.strip()} is repeated")
            if prices is not None and t not in prices:
                raise ValueError(f"date {text.strip()} has no reference price")
            rows[t] = [_probability(v) for v in values]
    if not names:
        raise IngestError(f"{path}: panel needs at least one expert")
    times = sorted(rows)
    return names, np.array(times), np.array([rows[t] for t in times])


def _panel_and_reference(cfg: argparse.Namespace, command: str, pairmean: bool = False):
    """The experts panel's names, dates and values, its reference price
    series and the reference prices on the panel's dates.  The reference is
    the panel's mean (``pairmean``) or the reference file, a one-column
    panel that must price every date of the experts panel."""
    if not cfg.experts:
        raise ConfigurationError(f"{command} needs an experts panel file")
    if pairmean:
        names, times, values = _read_panel(cfg.experts)
        ref = BinaryForecastSeries("pairmean", times.copy(), values.mean(axis=1))
        _note_unread(cfg, "--reference pairmean", ("reference_file",))
    elif not cfg.reference_file:
        raise ConfigurationError(f"{command} needs a reference file")
    else:
        _, ref_times, prices = _read_panel(cfg.reference_file, columns=("price",))
        ref = BinaryForecastSeries("market", ref_times, prices[:, 0])
        names, times, values = _read_panel(
            cfg.experts, dict(zip(ref.times.tolist(), ref.probs.tolist())))
    # An output name stands for one forecaster: no two of them share a file,
    # and each names a file.
    taken = {ONLINE_NAME: "the online mixture", "summary": "the P&L summary"}
    for name in names:
        safe = _output_name(name)
        if safe in taken:
            raise IngestError(f"{cfg.experts}:1: expert {name!r} and {taken[safe]} both "
                              f"have the output name {safe}")
        file_name = f"pnl_{safe}.csv"
        if "\0" in file_name or len(file_name.encode("utf-8")) > NAME_MAX:
            raise IngestError(f"{cfg.experts}:1: expert {name!r} has no usable output file "
                              f"name: pnl_<output name>.csv holds a NUL byte or is over "
                              f"{NAME_MAX} bytes of UTF-8")
        taken[safe] = f"expert {name!r}"
    return names, times, values, ref, ref.probs[np.isin(ref.times, times)]


def _iso(t: float) -> str:
    return str(date.fromordinal(int(t)))


def _online_mixture(cfg: argparse.Namespace, values: np.ndarray, ref_on_panel: np.ndarray):
    """Exponential weights over all but the panel's last date, under the
    configured loss."""
    return online.run(values[:-1], _LOSSES[cfg.loss](values, ref_on_panel))


def _output_name(forecaster: str) -> str:
    """The name a forecaster's output file takes: ``/`` and space become ``_``."""
    return forecaster.replace("/", "_").replace(" ", "_")


def _write_pnl(out_dir: Path, pnl: trading.PnLSeries) -> None:
    _write_csv(out_dir / f"pnl_{_output_name(pnl.forecaster)}.csv",
               ["date", "increment", "cumulative"],
               zip(map(_iso, pnl.times.tolist()), pnl.increments.tolist(),
                   pnl.cumulative.tolist()))


def cmd_trade(cfg: argparse.Namespace, out_dir: Path) -> int:
    pairmean = cfg.reference == "pairmean"
    names, times, values, ref, ref_on_panel = _panel_and_reference(cfg, "trade", pairmean)
    # Settled at the national outcome, or at the final price without one.
    omega = _read_outcomes(cfg.outcomes).get(NATIONAL) if cfg.outcomes else None
    settled_series: list[trading.PnLSeries] = []

    def trade_one(name: str, times: np.ndarray, probs: np.ndarray) -> None:
        forecast = BinaryForecastSeries(name, times, probs)
        pos = trading.positions(forecast, ref)
        pnl = trading.mark_to_market(pos, ref, forecaster=name)
        settled_series.append(trading.settle(pnl, omega=omega))

    if pairmean and len(names) == 2:
        a = BinaryForecastSeries(names[0], times, values[:, 0])
        b = BinaryForecastSeries(names[1], times, values[:, 1])
        settled_series.extend(trading.pair_trading_scores(a, b, omega=omega))
    else:
        for j, name in enumerate(names):
            trade_one(name, times, values[:, j])

    # Online mixture traded alongside the named experts, over the same
    # reference.
    if len(times) > 1:
        trade_one(ONLINE_NAME, times[:-1], _online_mixture(cfg, values, ref_on_panel).aggregate)

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


def cmd_aggregate(cfg: argparse.Namespace, out_dir: Path) -> int:
    names, times, values, _, ref_on_panel = _panel_and_reference(cfg, "aggregate")
    if len(times) < 2:
        raise ConfigurationError(f"{cfg.experts}: aggregate needs a panel of 2 or more dates")
    result = _online_mixture(cfg, values, ref_on_panel)

    _write_csv(out_dir / "aggregate.csv", ["date", "prediction"],
               zip(map(_iso, times[:-1].tolist()), result.aggregate.tolist()))

    n_rounds = len(times) - 1
    bound = online.regret_bound(len(names), n_rounds)
    _write_json(out_dir / "learner.json", {
        "loss": cfg.loss,
        "names": names,
        "rounds": n_rounds,
        "eta": result.state.eta,
        "final_weights": dict(zip(names, map(float, result.state.weights))),
        "cumulative_losses": dict(zip(names, map(float, result.state.cumulative_losses))),
        "regret": result.regret,
        "regret_bound": bound,
    })

    # MSE against the next day's reference price, experts and mixture alike.
    next_ref = ref_on_panel[1:]
    mse_rows = [
        (name, float(np.mean((values[:-1, j] - next_ref) ** 2)))
        for j, name in enumerate(names)
    ]
    mse_rows.append((ONLINE_NAME, float(np.mean((result.aggregate - next_ref) ** 2))))
    _write_csv(out_dir / "mse.csv", ["forecaster", "mse"], mse_rows)
    print(f"aggregated {len(names)} experts over {n_rounds} rounds; "
          f"regret {result.regret:.4f} (bound {bound:.4f})")
    return 0


_CURVE_METRICS = tuple(scoring._DENSITY_FNS)


def cmd_curves(cfg: argparse.Namespace, out_dir: Path) -> int:
    densities = scoring.default_curve_family()
    labels = [label for label, _ in densities]
    for metric in _CURVE_METRICS:
        table = scoring.score_curves(metric, densities, np.arange(EV_BINS))
        # Python floats write the same text as numpy's, without a scalar each
        _write_csv(out_dir / f"curves_{metric}.csv", ["realization"] + labels,
                   [[w, *row] for w, row in enumerate(table.tolist())])
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
              ("experts", "reference_file", "reference", "outcomes", "loss")),
    "aggregate": (cmd_aggregate, "exponential-weights expert combination",
                  ("experts", "reference_file", "loss")),
    "curves": (cmd_curves, "score-shape tables for discretized Gaussians", ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand's namespace holds every setting, at its default
    unless a flag sets it.  A flag is spelled in full, never a prefix."""
    parser = argparse.ArgumentParser(
        prog="statecast",
        description="Election forecasting, scoring, trading, and aggregation",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        p.add_argument("--out-dir", default=".", help="directory for outputs")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), type=_SETTINGS[key][0],
                           choices=_CHOICES.get(key), help=_HELP.get(key))
        if command == "score":
            p.add_argument("--metrics", nargs="+", choices=_SCORE_METRICS)
        p.set_defaults(**{key: default for key, (_, default) in _SETTINGS.items()})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command][0](args, out_dir)
    except StatecastError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        # faults no reader names, such as an unwritable output directory
        print(f"error [{args.command}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises a private subclass
        print(f"error [{args.command}]: MemoryError: {exc}", file=sys.stderr)
        return 1
