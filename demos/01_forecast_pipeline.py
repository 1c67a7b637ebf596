"""End-to-end forecast walkthrough on synthetic polls.

Builds a competitive race in memory: national polls drifting around +2 for
candidate 1, five battleground states with their own leans, and a historical
file for everything else.  Then: smooth -> calibrate -> forecast -> report.

Run from the repo root:  python demos/01_forecast_pipeline.py
"""

import io
from datetime import date, timedelta

import numpy as np

from statecast import (
    MarketCalibration,
    SimulationConfig,
    calibrate_market,
    calibrate_states,
    load_historical,
    parse_polls,
    probability_time_series,
    run_forecast,
    smooth_national,
    to_spreads,
    default_ev_table,
)
from statecast.states import NATIONAL, STATE_CODES

ELECTION = date(2016, 11, 8)
rng = np.random.default_rng(2016)


def synthetic_polls() -> str:
    rows = ["pollster,state,date,sample_size,sample_type,pct_c1,pct_c2"]
    # national: true spread wanders around +2
    for k in range(40):
        d = ELECTION - timedelta(days=5 + 2 * k)
        spread = 2.0 + 1.5 * np.sin(k / 6.0) + rng.normal(0, 1.2)
        c1 = 46.0 + spread / 2
        rows.append(f"Nat{k},US,{d},900,LV,{c1:.1f},{c1 - spread:.1f}")
    # battlegrounds lean a point or two either way around the national race
    leans = {"OH": -1.5, "FL": -0.5, "PA": 0.5, "NC": -2.0, "NV": 1.0}
    for state, lean in leans.items():
        for k in range(8):
            d = ELECTION - timedelta(days=8 + 9 * k)
            spread = lean + 2.0 + rng.normal(0, 2.0)
            c1 = 46.0 + spread / 2
            rows.append(f"{state}{k},{state},{d},700,RV,{c1:.1f},{c1 - spread:.1f}")
    return "\n".join(rows) + "\n"


def synthetic_historical() -> str:
    # three past cycles; each state keeps a stable lean vs the national spread
    rows = ["year,state,state_spread,national_spread"]
    nat = {2004: -2.46, 2008: 7.27, 2012: 3.86}
    for i, state in enumerate(sorted(STATE_CODES)):
        lean = rng.normal(0, 12.0)
        for year, m in nat.items():
            rows.append(f"{year},{state},{lean + 0.9 * m + rng.normal(0, 1):.2f},{m}")
    return "\n".join(rows) + "\n"


polls = parse_polls(io.StringIO(synthetic_polls()), ELECTION)
print(f"parsed {len(polls.records)} polls ({polls.n_skipped} skipped)")

table = polls.records  # one column per field, one entry per poll
us = table.state == NATIONAL
national = smooth_national(table.t[us], to_spreads(table)[us], bandwidth=5.0)
print(f"smoothed national spread: {national.values[0]:+.2f} at "
      f"{national.grid[0]:.0f} days out (grid of {len(national.grid)} days)")

historical = load_historical(io.StringIO(synthetic_historical())).records  # state -> arrays
ev = default_ev_table()
cals = calibrate_states(table, national, historical, states=ev)
n_poll = sum(1 for c in cals.values() if c.source == "polls")
print(f"calibrated 51 states: {n_poll} from polls, {51 - n_poll} from history")

market = calibrate_market(national, table)
print(f"market: level {market.m_current:+.2f}, horizon {market.horizon:.0f} days, "
      f"sigma {market.sigma_total:.2f}/sqrt(day)")

cfg = SimulationConfig()  # Gaussian noise is computed: no seed or paths to give
dist = run_forecast(cals, market, ev, cfg)
print(f"\nP(candidate 1 wins) = {dist.p_national:.3f}")

ev_grid = np.arange(539)
mean_ev = float(ev_grid @ dist.ev_histogram)
print(f"expected electoral votes: {mean_ev:.1f}")
print("\nEV histogram (coarse):")
for lo in range(180, 400, 20):
    mass = dist.ev_histogram[lo:lo + 20].sum()
    print(f"  {lo:3d}-{lo + 19:3d} | {'#' * int(80 * mass)}")

print("\nwin probability vs days remaining (same data, shrinking horizon):")
days = [90.0, 60.0, 30.0, 10.0, 1.0]
markets = [
    MarketCalibration(sigma_samp=market.sigma_samp, sigma_m=market.sigma_m,
                      m_current=market.m_current, horizon=h)
    for h in days
]
for h, day in zip(days, probability_time_series(cals, markets, ev, cfg)):
    print(f"  {h:5.0f} days out: {day.p_national:.3f}")
print("more time on the clock pulls the probability toward 1/2")
