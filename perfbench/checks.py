"""Output checks for the benchmark workloads.

Each check reads what the CLI wrote and returns a list of problems; an empty
list means the operation's outputs are correct.  The checks use only the
standard library and numpy, never statecast itself, so a defect in the
program cannot also hide in its check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from gen import N_BINS, WIN_EV

METRICS = ("brier", "loglik", "selten", "spherical", "cdf")
CURVE_METRICS = ("selten", "spherical", "log", "cdf")
N_CURVE_DENSITIES = 6


def phi(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_forecast(out: Path, ev: dict[str, int], seen: dict) -> tuple[list[str], dict]:
    """EV identity, p_national = mass at 270 and above, and the same
    ``forecast.json`` digest as the first operation of the run."""
    raw = (out / "forecast.json").read_bytes()
    doc = json.loads(raw)
    problems = []
    hist, p_state = doc["ev_histogram"], doc["p_state"]
    if len(hist) != N_BINS:
        problems.append(f"histogram has {len(hist)} bins, not {N_BINS}")
    if set(p_state) != set(ev):
        problems.append("p_state does not cover exactly the 51 states")
        return problems, doc
    by_state = math.fsum(ev[s] * p_state[s] for s in ev)
    by_hist = math.fsum(k * h for k, h in enumerate(hist))
    if not _close(by_state, by_hist, 1e-9):
        problems.append(f"sum ev*p_state {by_state!r} != sum k*hist {by_hist!r}")
    upper = math.fsum(hist[WIN_EV:])
    if not _close(doc["p_national"], upper, 1e-12):
        problems.append(f"p_national {doc['p_national']!r} != hist[270:] {upper!r}")
    digest = hashlib.sha256(raw).hexdigest()
    if seen.setdefault("digest", digest) != digest:
        problems.append("forecast.json differs from the first operation's")
    return problems, doc


def check_closed_form(doc: dict, cal: dict, threshold: float = 0.0) -> list[str]:
    """Gaussian-noise p_state against Phi((a + b*m0 - theta) / sqrt(s_eps^2 +
    b^2 (s_samp + s_m)^2 T)), within 5 standard errors plus one path."""
    n = doc["n_paths"]
    mkt = cal["market"]
    spread_var = (mkt["sigma_samp"] + mkt["sigma_m"]) ** 2 * mkt["horizon"]
    problems = []
    for state, c in cal["states"].items():
        mean = c["alpha"] + c["beta"] * mkt["m_current"] - threshold
        sd = math.sqrt(c["sigma_eps"] ** 2 + c["beta"] ** 2 * spread_var)
        p = phi(mean / sd) if sd > 0 else float(mean > 0)
        tol = 5.0 * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
        if abs(doc["p_state"][state] - p) > tol:
            problems.append(f"p_state[{state}] {doc['p_state'][state]:.5f} vs "
                            f"closed form {p:.5f} (tol {tol:.5f})")
    return problems


def check_timeseries(out: Path, p_national: float, grid_points: int) -> list[str]:
    rows = _rows(out / "timeseries.csv")
    problems = []
    if len(rows) != grid_points:
        problems.append(f"timeseries has {len(rows)} rows, grid has {grid_points}")
    if not rows or float(rows[0]["p_national"]) != p_national:
        problems.append("first timeseries row is not p_national")
    if not 0.3 <= p_national <= 0.8:
        problems.append(f"race is not contested: p_national = {p_national}")
    return problems


def check_calibration(out: Path, stderr: str, n_malformed: int,
                      thin: list[str]) -> list[str]:
    doc = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
    problems = []
    if len(doc["states"]) != 51:
        problems.append(f"{len(doc['states'])} states calibrated, not 51")
    historical = sorted(s for s, c in doc["states"].items() if c["source"] == "historical")
    if historical != sorted(thin):
        problems.append(f"historical fallback for {historical}, thin states are {thin}")
    match = re.search(r"skipped (\d+) poll row", stderr)
    skipped = int(match.group(1)) if match else 0
    if skipped != n_malformed:
        problems.append(f"{skipped} rows skipped, {n_malformed} malformed rows injected")
    return problems


def read_histograms(path: Path) -> dict[str, np.ndarray]:
    acc: dict[str, np.ndarray] = {}
    for row in _rows(path):
        acc.setdefault(row["forecaster"], np.zeros(N_BINS))[int(row["ev"])] += float(row["p"])
    return {name: h / h.sum() for name, h in acc.items()}


def crps(h: np.ndarray, realized: int) -> float:
    """E|X - w| - E|X - X'| / 2 for a histogram on 0..538."""
    k = np.arange(h.size, dtype=float)
    spread = np.abs(k[:, None] - k[None, :])
    return float(h @ np.abs(k - realized) - 0.5 * (h @ spread @ h))


def check_evaluation(out: Path, expected_crps: dict[str, float],
                     pair: tuple[str, str]) -> list[str]:
    problems = []
    scored = {row["metric"] for row in json.loads(
        (out / "score" / "scores.json").read_text(encoding="utf-8"))}
    if scored != set(METRICS):
        problems.append(f"scored metrics {sorted(scored)}, expected {sorted(METRICS)}")
    cdf = {r["forecaster"]: float(r["value"])
           for r in _rows(out / "score" / "scores_cdf_overall.csv")}
    for name, want in expected_crps.items():
        if name not in cdf or not _close(cdf[name], want, 1e-9):
            problems.append(f"cdf score of {name} {cdf.get(name)!r} != CRPS {want!r}")

    settled = {r["forecaster"]: float(r["total_settled"])
               for r in _rows(out / "pair" / "pnl_summary.csv")}
    if settled.get(pair[0], 1.0) + settled.get(pair[1], 1.0) != 0.0:
        problems.append(f"pair totals {settled.get(pair[0])!r} + "
                        f"{settled.get(pair[1])!r} do not sum to 0.0")

    learner = json.loads((out / "aggregate" / "learner.json").read_text(encoding="utf-8"))
    if not learner["regret"] <= learner["regret_bound"]:
        problems.append(f"regret {learner['regret']} above bound {learner['regret_bound']}")

    for metric in CURVE_METRICS:
        rows = _rows(out / "curves" / f"curves_{metric}.csv")
        width = {len(r) - 1 for r in rows}
        if len(rows) != N_BINS or width != {N_CURVE_DENSITIES}:
            problems.append(f"curves_{metric}.csv is {len(rows)} x {sorted(width)}, "
                            f"not {N_BINS} x {N_CURVE_DENSITIES}")
    return problems
