"""Acceptance suite: one test per criterion, each printing a pass/fail line.

These pin the package's load-bearing guarantees at their stated tolerances:
propriety of every score, the CRPS identity, the Brownian terminal law,
the exponential-weights regret bound, trading-score propriety, the
topology-sensitivity contrast, bitwise deterministic parallelism, symmetry,
the more-time-more-uncertainty property, and the learning-rate constant.
"""

import math
import time

import numpy as np
import pytest

from statecast.calibration import MarketCalibration, StateCalibration
from statecast.cli import main
from statecast.online import ExpertPanel, init, regret_bound, run
from statecast.scoring import BinaryForecastSeries, cdf_score, selten
from statecast.simulation import (
    SimulationConfig,
    probability_time_series,
    run_forecast,
    simulate_market_terminals,
)
from statecast.states import default_ev_table
from statecast.trading import pair_trading_scores

from propriety import propriety_violations
from test_cli import FIXTURES


def report(number: int, label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def flat_cals(ev, alpha=0.0, beta=0.0, sigma=1.0):
    return {s: StateCalibration(s, alpha, beta, sigma, 5, "polls") for s in ev}


def test_criterion_1_propriety_suite():
    start = time.monotonic()
    failures = {
        metric: propriety_violations(metric, step=0.05)
        for metric in ("brier", "log", "selten", "spherical", "cdf")
    }
    elapsed = time.monotonic() - start
    ok = all(not bad for bad in failures.values()) and elapsed < 60.0
    report(1, f"every score proper on the 3-bin simplex grid "
              f"({elapsed:.2f}s)", ok)


def test_criterion_2_cdf_equals_crps():
    rng = np.random.default_rng(2026)
    x = np.arange(539, dtype=float)
    pairwise = np.abs(np.subtract.outer(x, x))
    worst = 0.0
    for _ in range(100):
        support = rng.choice(539, size=int(rng.integers(2, 60)), replace=False)
        h = np.zeros(539)
        h[support] = rng.dirichlet(np.ones(len(support)))
        w = int(rng.integers(0, 539))
        crps = float(h @ np.abs(x - w)) - 0.5 * float(h @ pairwise @ h)
        worst = max(worst, abs(cdf_score(h, w) - crps))
    report(2, f"CDF score matches the CRPS double-sum oracle "
              f"(max |diff| = {worst:.2e})", worst <= 1e-9)


def test_criterion_3_brownian_terminal_law():
    mkt = MarketCalibration(sigma_samp=1.25, sigma_m=0.75, m_current=1.5,
                            horizon=25.0)
    [m] = simulate_market_terminals([mkt], SimulationConfig(seed=2, n_paths=10000))
    var_ok = abs(m.var(ddof=1) - 100.0) <= 0.05 * 100.0
    mean_tol = 4.0 * 2.0 * math.sqrt(25.0) / math.sqrt(10000.0)
    mean_ok = abs(m.mean() - 1.5) <= mean_tol
    report(3, f"terminal variance {m.var(ddof=1):.2f} within 5% of 100 and "
              f"mean drift {abs(m.mean() - 1.5):.4f} <= {mean_tol}", var_ok and mean_ok)


def test_criterion_4_regret_bound():
    n_experts, horizon = 5, 100
    bound = regret_bound(n_experts, horizon)
    assert bound == pytest.approx(8.970612889970507, abs=1e-9)
    names = [f"e{i}" for i in range(n_experts)]
    times = np.arange(horizon, dtype=float)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        losses = rng.uniform(0.0, 1.0, (horizon, n_experts))
        panel = ExpertPanel(names, times, rng.uniform(0, 1, (horizon, n_experts)))
        worst = max(worst, run(panel, losses).regret)
    # adversary: the best expert switches every 20 rounds
    losses = np.ones((horizon, n_experts))
    for seg in range(n_experts):
        losses[20 * seg:20 * (seg + 1), seg] = 0.0
    panel = ExpertPanel(names, times, np.full((horizon, n_experts), 0.5))
    worst = max(worst, run(panel, losses).regret)
    report(4, f"worst regret {worst:.3f} <= sqrt(T/2 ln N) = {bound:.3f} "
              "over 1000 random + 1 adversarial sequences", worst <= bound)


def test_criterion_5_trading_score_propriety():
    grid = np.round(np.arange(0.0, 1.0001, 0.01), 2)
    opponent = BinaryForecastSeries("b", [0.0], [0.5])
    ok = True
    for p in np.round(np.arange(0.1, 0.91, 0.1), 2):
        def expected_total(a):
            win, _ = pair_trading_scores(
                BinaryForecastSeries("a", [0.0], [a]), opponent, omega=1.0)
            lose, _ = pair_trading_scores(
                BinaryForecastSeries("a", [0.0], [a]), opponent, omega=0.0)
            return p * win.total + (1.0 - p) * lose.total

        values = np.array([expected_total(a) for a in grid])
        best = grid[int(np.argmax(values))]
        ok = ok and abs(best - p) <= 0.01 + 1e-12
    report(5, "expected settled P&L is maximized by reporting the true "
              "probability (grid search, a* = p +/- 0.01)", ok)


def test_criterion_6_topology_contrast():
    near = np.zeros(539)
    near[226] = 1.0
    far = np.zeros(539)
    far[538] = 1.0
    selten_equal = selten(near, 227) == selten(far, 227) == -1.0
    cdf_near = cdf_score(near, 227)
    cdf_far = cdf_score(far, 227)
    ok = selten_equal and cdf_near == 1.0 and cdf_far == 311.0
    report(6, f"point masses at 226/538 vs outcome 227: equal Selten, "
              f"CDF {cdf_near:.0f} vs {cdf_far:.0f}", ok)


def test_criterion_7_deterministic_parallel_cli(tmp_path):
    blobs = []
    for sub, workers in (("one", "1"), ("many", "6")):
        out = tmp_path / sub
        code = main([
            "forecast", "--polls", str(FIXTURES / "polls.csv"),
            "--historical", str(FIXTURES / "historical.csv"),
            "--election-date", "2016-11-08", "--seed", "20161108",
            "--paths", "10000", "--workers", workers, "--out-dir", str(out),
        ])
        assert code == 0
        blobs.append((out / "forecast.json").read_bytes())
    report(7, "forecast.json is byte-identical under 1 and 6 worker threads",
           blobs[0] == blobs[1])


def test_criterion_8_symmetry_band():
    ev = default_ev_table()
    dist = run_forecast(flat_cals(ev),
                        MarketCalibration(sigma_samp=0.5, sigma_m=0.5,
                                          m_current=0.0, horizon=9.0),
                        ev, SimulationConfig(seed=7, n_paths=10000))
    lo = min(dist.p_state.values())
    hi = max(dist.p_state.values())
    state_ok = 0.48 <= lo and hi <= 0.52
    national_ok = 0.44 <= dist.p_national <= 0.52
    report(8, f"symmetric noise: p_state in [{lo:.3f}, {hi:.3f}], "
              f"p_national = {dist.p_national:.3f}", state_ok and national_ok)


def test_criterion_9_time_uncertainty():
    ev = default_ev_table()
    offsets = [-1.0, -0.5, 0.0, 0.5, 1.0]
    cals = {
        s: StateCalibration(s, offsets[i % 5], 1.0, 1.5, 5, "polls")
        for i, s in enumerate(sorted(ev))
    }
    markets = [
        MarketCalibration(sigma_samp=0.5, sigma_m=0.5, m_current=2.0, horizon=h)
        for h in (100.0, 1.0)
    ]
    series = probability_time_series(cals, markets, ev,
                                     SimulationConfig(seed=3, n_paths=10000))
    p_far, p_near = (dist.p_national for dist in series)
    ok = abs(p_far - 0.5) <= abs(p_near - 0.5) + 0.02
    report(9, f"a 100-day horizon ({p_far:.3f}) is no more decisive than a "
              f"1-day horizon ({p_near:.3f}) on the same modest lead", ok)


def test_criterion_10_learning_rate_constant():
    eta = init(2, 8).eta
    ok = abs(eta - math.sqrt(math.log(2.0))) <= 1e-12
    report(10, f"init(N=2, T=8) eta = {eta!r} matches sqrt(ln 2)", ok)
