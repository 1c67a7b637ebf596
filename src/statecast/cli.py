"""Command-line frontend: reproducible runs that emit plot-ready CSV/JSON.

Subcommands: ``forecast`` (polls -> win probabilities + EV histogram +
probability time series), ``calibrate`` (dump the calibration document),
``score`` (score tables per metric and weighting), ``trade`` (mark-to-market
P&L per expert plus the online mixture), ``aggregate`` (exponential-weights
combination with regret accounting), and ``curves`` (score-shape tables).

Runs are configured by a flat ``key = value`` config file plus flags; flags
win.  Every output lands under ``--out-dir`` with a fixed name, and a fixed
seed makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from datetime import date
from pathlib import Path

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
from .trading import ReferenceSeries

ONLINE_NAME = "ONLINE"

_PATH_KEYS = (
    "polls", "historical", "ev_table", "experts", "series", "outcomes",
    "histograms", "reference", "calibration",
)


@dataclass
class RunConfig:
    """Everything a run needs; every field has a config-file key of the
    same name and most have a flag override."""

    election_date: str | None = None
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
    realization: int | None = None
    polls: str | None = None
    historical: str | None = None
    ev_table: str | None = None
    experts: str | None = None
    series: str | None = None
    outcomes: str | None = None
    histograms: str | None = None
    reference: str | None = None
    calibration: str | None = None


def _parse_config_value(raw: str):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if "#" in raw:
        raw = raw.split("#", 1)[0].strip()
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def load_config(path: str | Path) -> RunConfig:
    """Read a flat ``key = value`` file; relative paths are resolved
    against the config file's directory."""
    path = Path(path)
    known = {f.name for f in fields(RunConfig)}
    cfg = RunConfig()
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key = value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigurationError(f"{path}:{lineno}: unknown config key {key!r}")
        value = _parse_config_value(raw)
        if key in _PATH_KEYS and isinstance(value, str):
            value = str((path.parent / value).resolve())
        setattr(cfg, key, value)
    return cfg


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    overrides = {
        "seed": args.seed,
        "paths": args.paths,
        "workers": args.workers,
        "election_date": getattr(args, "election_date", None),
        "bandwidth": getattr(args, "bandwidth", None),
        "noise_model": getattr(args, "noise_model", None),
        "win_threshold": getattr(args, "win_threshold", None),
        "loss": getattr(args, "loss", None),
        "reference_mode": getattr(args, "reference", None),
        "ev_realization": getattr(args, "ev_realization", None),
        "polls": getattr(args, "polls", None),
        "historical": getattr(args, "historical", None),
        "ev_table": getattr(args, "ev_table", None),
        "experts": getattr(args, "experts", None),
        "series": getattr(args, "series", None),
        "outcomes": getattr(args, "outcomes", None),
        "histograms": getattr(args, "histograms", None),
        "reference": getattr(args, "reference_file", None),
        "calibration": getattr(args, "calibration", None),
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _noise_model(cfg: RunConfig):
    name = cfg.noise_model.lower().replace("-", "_")
    if name == "gaussian":
        return GaussianNoise()
    if name in ("student_t", "studentt", "t"):
        return StudentTNoise(sigma_alpha=cfg.sigma_alpha,
                             sigma_beta=cfg.sigma_beta, nu=cfg.nu)
    raise ConfigurationError(f"unknown noise_model {cfg.noise_model!r}")


def _sim_config(cfg: RunConfig) -> SimulationConfig:
    if cfg.seed is None:
        raise ConfigurationError("seed is required (set it in the config or pass --seed)")
    return SimulationConfig(seed=cfg.seed, n_paths=cfg.paths,
                            noise_model=_noise_model(cfg),
                            win_threshold=cfg.win_threshold,
                            workers=cfg.workers)


def _load_ev(cfg: RunConfig) -> dict[str, int]:
    if cfg.ev_table:
        with open(cfg.ev_table, encoding="utf-8") as fh:
            return load_ev_table(fh)
    return default_ev_table()


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


def _calibrate_from_files(cfg: RunConfig):
    """Returns (cals, market, smoothed national or None, ev_table)."""
    ev_table = _load_ev(cfg)
    if cfg.calibration:
        with open(cfg.calibration, encoding="utf-8") as fh:
            cals, market = cal_mod.calibration_from_dict(json.load(fh))
        if market is None:
            raise ConfigurationError(
                f"{cfg.calibration} has no market block; cannot simulate"
            )
        return cals, market, None, ev_table

    if not cfg.polls:
        raise ConfigurationError("polls file is required (or a calibration file)")
    if not cfg.election_date:
        raise ConfigurationError("election_date is required to date the polls")
    election = date.fromisoformat(cfg.election_date)

    parsed = ingest.parse_polls(cfg.polls, election)
    if parsed.n_skipped:
        print(f"note: skipped {parsed.n_skipped} poll row(s)", file=sys.stderr)
    spreads = ingest.to_spreads(parsed.records)
    us_obs = [o for o in spreads if o.state == NATIONAL]
    national = ingest.smooth_national(us_obs, bandwidth=cfg.bandwidth)

    historical_rows = []
    if cfg.historical:
        hist = ingest.load_historical(cfg.historical)
        if hist.n_skipped:
            print(f"note: skipped {hist.n_skipped} historical row(s)", file=sys.stderr)
        historical_rows = hist.records

    cals = cal_mod.calibrate_states(spreads, national, historical_rows,
                                    states=ev_table.keys(),
                                    min_polls=cfg.min_polls)
    us_records = [r for r in parsed.records if r.state == NATIONAL]
    market = cal_mod.calibrate_market(national, us_records,
                                      sigma_samp=cfg.sigma_samp)
    return cals, market, national, ev_table


def cmd_forecast(cfg: RunConfig, out_dir: Path) -> int:
    cals, market, national, ev_table = _calibrate_from_files(cfg)
    sim_cfg = _sim_config(cfg)

    dist = run_forecast(cals, market, ev_table, sim_cfg)
    _write_json(out_dir / "forecast.json", dist.to_dict())

    if national is not None:
        markets = [
            cal_mod.MarketCalibration(
                sigma_samp=market.sigma_samp,
                sigma_m=market.sigma_m,
                m_current=float(v),
                horizon=float(t),
            )
            for t, v in zip(national.grid, national.values)
        ]
        series = probability_time_series(cals, markets, ev_table, sim_cfg)
    else:
        series = [(market.horizon, dist.p_national)]
    _write_csv(out_dir / "timeseries.csv", ["days_to_election", "p_national"],
               [(t, p) for t, p in series])

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
    """Long CSV forecaster,state,date,p -> {(forecaster, state): series}."""
    rows: dict[tuple[str, str], list[tuple[float, float]]] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["forecaster"].strip(), row["state"].strip().upper())
            t = float(date.fromisoformat(row["date"].strip()).toordinal())
            rows.setdefault(key, []).append((t, float(row["p"])))
    out = {}
    for (forecaster, state), points in rows.items():
        points.sort()
        out[(forecaster, state)] = BinaryForecastSeries(
            forecaster=forecaster,
            times=[t for t, _ in points],
            probs=[p for _, p in points],
        )
    return out


def _read_outcomes(path: str) -> dict[str, int]:
    out = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["state"].strip().upper()] = int(row["omega"])
    return out


def _read_histograms(path: str, n_bins: int = 539) -> dict[str, np.ndarray]:
    """Long CSV forecaster,ev,p -> normalized histogram per forecaster."""
    acc: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            name = row["forecaster"].strip()
            h = acc.setdefault(name, np.zeros(n_bins))
            h[int(row["ev"])] += float(row["p"])
    return {name: h / h.sum() for name, h in acc.items()}


_BINARY_SCORERS = {
    scoring.METRIC_BRIER: scoring.brier,
    scoring.METRIC_LOGLIK: scoring.log_likelihood,
}
_DENSITY_SCORERS = {
    scoring.METRIC_SELTEN: scoring.selten,
    scoring.METRIC_SPHERICAL: scoring.spherical,
    scoring.METRIC_CDF: scoring.cdf_score,
}


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
        series = _read_series_file(cfg.series)
        forecasters = sorted({f for f, _ in series})
        for metric in binary_metrics:
            fn = _BINARY_SCORERS[metric]
            for forecaster in forecasters:
                national = series.get((forecaster, NATIONAL))
                if national is not None and NATIONAL in outcomes:
                    report = ScoreReport(forecaster, metric,
                                         fn(national, outcomes[NATIONAL]))
                    tables.setdefault((metric, scoring.WEIGHT_OVERALL), []).append(report)
                per_state = []
                for (f, state), s in series.items():
                    if f != forecaster or state == NATIONAL:
                        continue
                    if state not in outcomes:
                        raise ConfigurationError(f"no outcome recorded for {state}")
                    per_state.append(
                        ScoreReport(forecaster, metric, fn(s, outcomes[state]),
                                    state=state)
                    )
                if per_state:
                    for weighting in (scoring.WEIGHT_STATE_AVERAGE, scoring.WEIGHT_EV):
                        agg = scoring.aggregate_scores(per_state, weighting, ev_table)
                        tables.setdefault((metric, weighting), []).append(agg)

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
            row["weighting"] = weighting
            row["value"] = str(row["value"]) if math.isinf(row["value"]) else row["value"]
            all_rows.append(row)
    _write_json(out_dir / "scores.json", all_rows)
    print(f"wrote {len(tables)} score table(s)")
    return 0


# ---------------------------------------------------------------------------
# trading / aggregation


def _read_panel(path: str) -> online.ExpertPanel:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or reader.fieldnames[0] != "date":
            raise ConfigurationError("expert panel must start with a date column")
        names = [c for c in reader.fieldnames[1:] if c]
        times, values = [], []
        for row in reader:
            times.append(float(date.fromisoformat(row["date"].strip()).toordinal()))
            try:
                values.append([float(row[name]) for name in names])
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"missing/invalid prediction on {row['date']}: {exc}"
                ) from exc
    return online.ExpertPanel(names=names, times=np.array(times),
                              values=np.array(values))


def _read_reference(path: str) -> ReferenceSeries:
    times, values = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            times.append(float(date.fromisoformat(row["date"].strip()).toordinal()))
            values.append(float(row["price"]))
    order = np.argsort(times)
    return ReferenceSeries(times=np.array(times)[order],
                           values=np.array(values)[order])


def _trade_reference(cfg: RunConfig, panel: online.ExpertPanel) -> ReferenceSeries:
    if cfg.reference_mode == "pairmean":
        return ReferenceSeries(times=panel.times.copy(),
                               values=panel.values.mean(axis=1),
                               kind=trading.KIND_PAIR_MEAN)
    if not cfg.reference:
        raise ConfigurationError("market reference mode needs a reference file")
    return _read_reference(cfg.reference)


def _reference_on_panel(ref: ReferenceSeries, panel: online.ExpertPanel) -> np.ndarray:
    """Reference values on the panel's dates; every panel date must have one."""
    missing = sorted(set(panel.times.tolist()) - set(ref.times.tolist()))
    if missing:
        days = ", ".join(str(date.fromordinal(int(t))) for t in missing)
        raise AlignmentError(f"reference series missing expert dates: {days}")
    return ref.values[np.isin(ref.times, panel.times)]


def _online_mixture(cfg: RunConfig, panel: online.ExpertPanel, ref_on_panel: np.ndarray):
    """Exponential weights over all but the panel's last date, under the
    configured loss.  Returns (trimmed panel, run result)."""
    loss_fn = online.trading_losses if cfg.loss == "trading" else online.quadratic_losses
    trimmed = online.ExpertPanel(panel.names, panel.times[:-1], panel.values[:-1])
    return trimmed, online.run(trimmed, loss_fn(panel.values, ref_on_panel))


def _trade_realization(cfg: RunConfig) -> float | None:
    if cfg.realization is not None:
        return float(cfg.realization)
    if cfg.outcomes:
        outcomes = _read_outcomes(cfg.outcomes)
        if NATIONAL in outcomes:
            return float(outcomes[NATIONAL])
    return None


def _iso(t: float) -> str:
    return str(date.fromordinal(int(t)))


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
    omega = _trade_realization(cfg)
    summary = []
    settled_series: list[trading.PnLSeries] = []

    def trade_one(name: str, times: np.ndarray, probs: np.ndarray) -> None:
        forecast = BinaryForecastSeries(name, times, probs)
        pos = trading.positions(forecast, ref)
        pnl = trading.mark_to_market(pos, ref, forecaster=name)
        total_marked = pnl.total
        settled = trading.settle(pnl, omega=omega)
        settled_series.append(settled)
        summary.append((name, total_marked, settled.total))

    if ref.kind == trading.KIND_PAIR_MEAN and panel.n_experts == 2:
        a = BinaryForecastSeries(panel.names[0], panel.times, panel.values[:, 0])
        b = BinaryForecastSeries(panel.names[1], panel.times, panel.values[:, 1])
        for pnl in trading.pair_trading_scores(a, b, omega=omega):
            settled_series.append(pnl)
            summary.append((pnl.forecaster,
                            float(pnl.cumulative[-2]) if len(pnl.cumulative) > 1 else 0.0,
                            pnl.total))
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


_CURVE_METRICS = (scoring.METRIC_SELTEN, scoring.METRIC_SPHERICAL, "log",
                  scoring.METRIC_CDF)


def cmd_curves(cfg: RunConfig, out_dir: Path) -> int:
    densities = scoring.default_curve_family()
    realizations = np.arange(539)
    labels = [label for label, _ in densities]
    for metric in _CURVE_METRICS:
        table = scoring.score_curves(metric, densities, realizations)
        rows = [
            [int(w)] + [table[k, j] for j in range(len(labels))]
            for k, w in enumerate(realizations)
        ]
        _write_csv(out_dir / f"curves_{metric}.csv", ["realization"] + labels, rows)
    print(f"wrote {len(_CURVE_METRICS)} curve table(s) over {len(labels)} densities")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--out-dir", default=".", help="directory for outputs")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecast",
        description="Election forecasting, scoring, trading, and aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forecast", help="simulate win probabilities and the EV histogram")
    _add_common(p)
    p.add_argument("--polls")
    p.add_argument("--historical")
    p.add_argument("--ev-table", dest="ev_table")
    p.add_argument("--calibration", help="reuse a frozen calibration.json")
    p.add_argument("--election-date", dest="election_date")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--noise-model", dest="noise_model",
                   choices=["gaussian", "student_t"], default=None)
    p.add_argument("--win-threshold", dest="win_threshold", type=float, default=None)

    p = sub.add_parser("calibrate", help="dump the calibration document as JSON")
    _add_common(p)
    p.add_argument("--polls")
    p.add_argument("--historical")
    p.add_argument("--ev-table", dest="ev_table")
    p.add_argument("--election-date", dest="election_date")
    p.add_argument("--bandwidth", type=float, default=None)

    p = sub.add_parser("score", help="score expert series and histograms")
    _add_common(p)
    p.add_argument("--series")
    p.add_argument("--outcomes")
    p.add_argument("--histograms")
    p.add_argument("--ev-table", dest="ev_table")
    p.add_argument("--ev-realization", dest="ev_realization", type=int, default=None)
    p.add_argument("--metrics", nargs="+",
                   choices=[scoring.METRIC_BRIER, scoring.METRIC_LOGLIK,
                            scoring.METRIC_SELTEN, scoring.METRIC_SPHERICAL,
                            scoring.METRIC_CDF],
                   default=None)

    p = sub.add_parser("trade", help="mark-to-market P&L per expert")
    _add_common(p)
    p.add_argument("--experts")
    p.add_argument("--reference-file", dest="reference_file")
    p.add_argument("--reference", choices=["market", "pairmean"], default=None,
                   help="reference: betting market file or the expert mean")
    p.add_argument("--outcomes")
    p.add_argument("--loss", choices=["quadratic", "trading"], default=None)

    p = sub.add_parser("aggregate", help="exponential-weights expert combination")
    _add_common(p)
    p.add_argument("--experts")
    p.add_argument("--reference-file", dest="reference_file")
    p.add_argument("--loss", choices=["quadratic", "trading"], default=None)

    p = sub.add_parser("curves", help="score-shape tables for discretized Gaussians")
    _add_common(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = _apply_overrides(cfg, args)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "forecast":
            return cmd_forecast(cfg, out_dir)
        if args.command == "calibrate":
            return cmd_calibrate(cfg, out_dir)
        if args.command == "score":
            metrics = args.metrics or list(_BINARY_SCORERS) + list(_DENSITY_SCORERS)
            return cmd_score(cfg, out_dir, metrics)
        if args.command == "trade":
            return cmd_trade(cfg, out_dir)
        if args.command == "aggregate":
            return cmd_aggregate(cfg, out_dir)
        if args.command == "curves":
            return cmd_curves(cfg, out_dir)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except StatecastError as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        # malformed user inputs (missing columns, bad numbers, bad paths)
        print(f"error [{args.command}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
