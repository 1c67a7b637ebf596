"""The four benchmark workloads: generated inputs, the CLI argument lists
that make up one operation, and the check of that operation's outputs.

Why each workload exists:

- ``timeseries``: the daily time series reruns the full Monte Carlo once
  per grid day, so per-state draws and settling dominate; this is where
  sharing draws across days or an exact engine would show.
- ``bigrun``: one large Student-T run on a frozen calibration, two worker
  threads; draws, the thread pool and the paths x 51 matrix set wall time,
  CPU time and memory.  Sharing draws across days should change nothing.
- ``calibrate_bulk``: ingest and calibration of a large poll file with
  malformed rows; no simulation.  Input validation cost shows here.
- ``evaluate``: scoring, trading and aggregation only.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen


@dataclass
class Workload:
    steps: list[list[str]]
    out: Path
    workers: int
    check: Callable[[str], list[str]]
    inputs: list[Path]
    prepare: list[list[str]] = field(default_factory=list)


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, zlib.crc32(stream.encode())])


def _race(seed: int, root: Path, horizon: int):
    """The contested race shared by ``timeseries`` and ``bigrun``."""
    rng = _rng(seed, "race")
    return rng, gen.make_race(rng, root, horizon=horizon, target_p=rng.uniform(0.45, 0.55))


def timeseries(seed: int, root: Path, work: Path, tiny: bool) -> Workload:
    t_lo, t_hi = 20, (30 if tiny else 110)
    rng, race = _race(seed, root, t_lo)
    polls = gen.write_polls(rng, race, work / "polls.csv", t_lo, t_hi,
                            n_national=2 * (t_hi - t_lo + 1), n_state=16 * 39,
                            n_thin=12, n_malformed=0)
    history = gen.write_historical(rng, race, work / "historical.csv")
    common = ["--polls", str(polls.path), "--historical", str(history),
              "--election-date", str(gen.ELECTION)]
    out, cal_out = work / "out", work / "cal"
    ev, seen, cal = gen.read_ev_table(root), {}, {}

    def check(stderr: str) -> list[str]:
        if not cal:
            cal.update(json.loads((cal_out / "calibration.json").read_text(encoding="utf-8")))
        problems, doc = checks.check_forecast(out, ev, seen)
        return (problems + checks.check_closed_form(doc, cal)
                + checks.check_timeseries(out, doc["p_national"], polls.grid_points))

    return Workload(
        steps=[["forecast", *common, "--paths", "2000" if tiny else "10000",
                "--workers", "1", "--seed", str(int(rng.integers(2**32))),
                "--out-dir", str(out)]],
        prepare=[["calibrate", *common, "--out-dir", str(cal_out)]],
        out=out, workers=1, check=check, inputs=[polls.path, history])


def bigrun(seed: int, root: Path, work: Path, tiny: bool) -> Workload:
    rng, race = _race(seed, root, 20)
    # write_polls draws the thin states first, so these are timeseries' ones.
    thin = gen.pick_thin(rng, sorted(race.ev), 12)
    cal_path = work / "calibration.json"
    gen.write_calibration(race, cal_path, thin)
    out = work / "out"
    ev, seen = gen.read_ev_table(root), {}

    def check(stderr: str) -> list[str]:
        return checks.check_forecast(out, ev, seen)[0]

    return Workload(
        steps=[["forecast", "--calibration", str(cal_path), "--noise-model", "student_t",
                "--paths", "5000" if tiny else "300000", "--workers", "2",
                "--seed", str(int(_rng(seed, "bigrun").integers(2**32))),
                "--out-dir", str(out)]],
        out=out, workers=2, check=check, inputs=[cal_path])


def calibrate_bulk(seed: int, root: Path, work: Path, tiny: bool) -> Workload:
    rng = _rng(seed, "bulk")
    t_lo, t_hi = 10, (40 if tiny else 190)
    race = gen.make_race(rng, root, horizon=t_lo, target_p=0.5)
    polls = gen.write_polls(rng, race, work / "polls.csv", t_lo, t_hi,
                            n_national=400 if tiny else 8000,
                            n_state=1600 if tiny else 31580,
                            n_thin=10, n_malformed=20 if tiny else 400)
    history = gen.write_historical(rng, race, work / "historical.csv")
    out = work / "out"

    def check(stderr: str) -> list[str]:
        return checks.check_calibration(out, stderr, polls.n_malformed, polls.thin_states)

    return Workload(
        steps=[["calibrate", "--polls", str(polls.path), "--historical", str(history),
                "--election-date", str(gen.ELECTION), "--out-dir", str(out)]],
        out=out, workers=1, check=check, inputs=[polls.path, history])


def evaluate(seed: int, root: Path, work: Path, tiny: bool) -> Workload:
    rng = _rng(seed, "evaluate")
    f = gen.write_evaluation(rng, root, work, n_forecasters=3 if tiny else 8,
                             n_days=10 if tiny else 120, n_histograms=3 if tiny else 8,
                             n_experts=4 if tiny else 12)
    expected = {name: checks.crps(h, f.ev_realization)
                for name, h in checks.read_histograms(f.histograms).items()}
    out = work / "out"

    def check(stderr: str) -> list[str]:
        return checks.check_evaluation(out, expected, ("E0", "E1"))

    return Workload(
        steps=[
            ["score", "--series", str(f.series), "--outcomes", str(f.outcomes),
             "--histograms", str(f.histograms), "--ev-realization", str(f.ev_realization),
             "--metrics", *checks.METRICS, "--out-dir", str(out / "score")],
            ["trade", "--experts", str(f.experts), "--reference-file", str(f.market),
             "--outcomes", str(f.outcomes), "--out-dir", str(out / "trade")],
            ["trade", "--experts", str(f.pair), "--reference", "pairmean",
             "--outcomes", str(f.outcomes), "--out-dir", str(out / "pair")],
            ["aggregate", "--experts", str(f.experts), "--reference-file", str(f.market),
             "--loss", "trading", "--out-dir", str(out / "aggregate")],
            ["curves", "--out-dir", str(out / "curves")],
        ],
        out=out, workers=1, check=check,
        inputs=[f.series, f.outcomes, f.histograms, f.experts, f.pair, f.market])


WORKLOADS = {"timeseries": timeseries, "bigrun": bigrun,
            "calibrate_bulk": calibrate_bulk, "evaluate": evaluate}
