"""The trading score: judging forecasters by P&L, before the event settles.

A forecaster's position each day is their probability minus the reference
price.  Marking those positions to market gives a running score at every
date, no realization needed; settlement at 0/1 finishes the job.  The kicker
is propriety: against the pair-mean reference, the expected settled P&L is
maximized by reporting your true probability, so honesty is the best trade.

Run from the repo root:  python demos/03_trading_score.py
"""

import numpy as np

from statecast import (
    BinaryForecastSeries,
    mark_to_market,
    pair_trading_scores,
    positions,
    settle,
)

# --- a backtest against a drifting market ------------------------------------
days = np.arange(10, dtype=float)
market = BinaryForecastSeries("market", days,
                              np.array([0.62, 0.60, 0.57, 0.55, 0.50,
                                        0.47, 0.42, 0.38, 0.30, 0.18]))
bull = BinaryForecastSeries("bull", days, np.full(10, 0.90))
bear = BinaryForecastSeries("bear", days, np.full(10, 0.20))

print("market drifts from 0.62 down to 0.18, event resolves to 0\n")
for f in (bull, bear):
    pnl = mark_to_market(positions(f, market), market, forecaster=f.forecaster)
    print(f"{f.forecaster}: running P&L by day "
          + " ".join(f"{c:+.3f}" for c in pnl.cumulative))
    settled = settle(pnl, omega=0.0)
    print(f"      settled total {settled.total:+.3f}\n")
print("the running column is the ex-ante score: the bear already ranks "
      "first well before settlement\n")

# --- propriety sweep ----------------------------------------------------------
print("one-period pair game vs an opponent reporting 0.5, true p = 0.3:")
print("  report a   expected settled P&L")
grid = np.round(np.arange(0.0, 1.01, 0.1), 1)
p_true = 0.3
opponent = BinaryForecastSeries("b", [0.0], [0.5])
best_a, best_v = None, -np.inf
for a in grid:
    mine = BinaryForecastSeries("a", [0.0], [a])
    win, _ = pair_trading_scores(mine, opponent, omega=1.0)
    lose, _ = pair_trading_scores(mine, opponent, omega=0.0)
    value = p_true * win.total + (1 - p_true) * lose.total
    marker = ""
    if value > best_v:
        best_a, best_v = a, value
    print(f"  {a:8.1f}   {value:+.4f}")
print(f"best report: {best_a}  (the truth; finer grids pin it exactly)")

# --- zero-sum bookkeeping ------------------------------------------------------
a = BinaryForecastSeries("a", days, np.linspace(0.8, 0.95, 10))
b = BinaryForecastSeries("b", days, np.linspace(0.45, 0.2, 10))
pnl_a, pnl_b = pair_trading_scores(a, b, omega=1.0)
print(f"\npair game is exactly zero-sum: {pnl_a.total:+.4f} + {pnl_b.total:+.4f} "
      f"= {pnl_a.total + pnl_b.total}")
