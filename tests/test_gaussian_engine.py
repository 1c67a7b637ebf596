"""The exact Gaussian engine (``simulation.gaussian_days``) against the
closed form, against itself on a finer lattice and against the Monte Carlo
it replaces for Gaussian noise.

Every check runs on every day of the bundled fixture (71 days, 46 states on
two-row historical fits, so nearly steps) and of seeded contested races.
``GRID_BOUND`` is the error the module docstring states for every output.
"""

import math

import numpy as np
import pytest

from statecast import cli, simulation
from statecast.calibration import MarketCalibration, StateCalibration
from statecast.simulation import SimulationConfig, gaussian_days, simulate_paths
from statecast.states import EV_BINS, WIN_ELECTORAL_VOTES, default_ev_table

from test_cli import FIXTURES

#: The stated bound: each p_state within it of the closed form, and no
#: output moved by more than it when the cells per sd double.
GRID_BOUND = 1e-5
#: Standard errors a Monte Carlo value may stray.  A run's days share its
#: draws, so their errors are correlated; a union bound needs no
#: independence: 2 Phi(-5.5) = 3.8e-8 per value, over the at most 20,000
#: values (days x (bins + states)) of a run, is below 1e-3.
K_SE = 5.5
MC_PATHS = 1_000_000


def contested_race(seed: int):
    """A seeded race close to even: 51 random state lines (a few of them
    steps or nearly: a two-row fit has s = 0), and 31 days from 110 to 20
    days out whose level walks."""
    rng = np.random.default_rng(seed)
    ev = default_ev_table()
    cals = {}
    for i, s in enumerate(sorted(ev)):
        sigma = 0.0 if i % 17 == 0 else 0.02 if i % 13 == 0 else float(rng.uniform(1.0, 5.0))
        cals[s] = StateCalibration(s, float(rng.normal(0.0, 8.0)), float(rng.uniform(0.5, 1.5)),
                                   sigma, 8, "polls")
    walk = np.cumsum(rng.normal(0.0, 0.4, 31))
    days = [MarketCalibration(3.2, 0.05, float(m), float(t))
            for m, t in zip(walk - walk.mean(), range(110, 19, -3))]
    return cals, days, ev


def fixture_days():
    args = cli.build_parser().parse_args([
        "forecast", "--polls", str(FIXTURES / "polls.csv"),
        "--historical", str(FIXTURES / "historical.csv"), "--election-date", "2016-11-08"])
    return cli._calibrate_from_files(args)


INPUTS = {"fixture": fixture_days, **{f"race{s}": (lambda s=s: contested_race(s))
                                      for s in (3, 5, 11)}}
CASES = [(name, threshold) for name in INPUTS for threshold in (0.0, 18.0)]


def closed_form(cals, days, states, threshold):
    """Phi((a + b m - theta) / sqrt(s^2 + b^2 sigma_total^2 T)) of each day and state."""
    out = np.empty((len(days), len(states)))
    for d, mkt in enumerate(days):
        for i, s in enumerate(states):
            c = cals[s]
            sd = math.sqrt(c.sigma_eps ** 2 + c.beta ** 2 * mkt.sigma_total ** 2 * mkt.horizon)
            mean = c.alpha + c.beta * mkt.m_current - threshold
            out[d, i] = 0.5 * math.erfc(-mean / sd / math.sqrt(2.0)) if sd else float(mean > 0)
    return out


@pytest.mark.parametrize("name,threshold", CASES)
def test_p_state_is_the_closed_form_within_the_grid_bound(name, threshold):
    cals, days, ev = INPUTS[name]()
    states, histograms, p_state = gaussian_days(cals, days, ev, threshold)
    assert np.abs(p_state - closed_form(cals, days, states, threshold)).max() <= GRID_BOUND
    # each day's histogram is a distribution whose mean is the states' votes won
    votes = np.array([ev[s] for s in states], dtype=float)
    assert np.abs(histograms.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(p_state @ votes - histograms @ np.arange(EV_BINS)).max() <= 1e-9
    assert histograms.min() >= 0.0 and 0.0 <= p_state.min() <= p_state.max() <= 1.0
    if name != "fixture" and threshold == 0.0:  # the races are contested
        assert (np.abs(histograms[:, WIN_ELECTORAL_VOTES:].sum(axis=1) - 0.5) < 0.2).all()


@pytest.mark.parametrize("name,threshold", CASES)
def test_doubling_the_cells_moves_no_output_past_the_grid_bound(name, threshold, monkeypatch):
    cals, days, ev = INPUTS[name]()
    _, histograms, p_state = gaussian_days(cals, days, ev, threshold)
    monkeypatch.setattr(simulation, "CELLS_PER_SD", 2 * simulation.CELLS_PER_SD)
    _, finer, p_finer = gaussian_days(cals, days, ev, threshold)
    assert np.abs(histograms - finer).max() <= GRID_BOUND
    assert np.abs(p_state - p_finer).max() <= GRID_BOUND
    national = histograms[:, WIN_ELECTORAL_VOTES:].sum(axis=1)
    assert np.abs(national - finer[:, WIN_ELECTORAL_VOTES:].sum(axis=1)).max() <= GRID_BOUND


# (input, threshold, Monte Carlo seed): each input at both thresholds, or
# one race at each, on three seeds of the draws
MONTE_CARLO = [("fixture", 0.0, 1), ("fixture", 18.0, 2), ("race3", 0.0, 3), ("race3", 18.0, 4),
               ("race5", 0.0, 5), ("race11", 18.0, 6)]


@pytest.mark.parametrize("name,threshold,seed", MONTE_CARLO)
def test_every_day_agrees_with_a_million_paths(name, threshold, seed):
    cals, days, ev = INPUTS[name]()
    states, histograms, p_state = gaussian_days(cals, days, ev, threshold)
    cfg = SimulationConfig(seed=seed, n_paths=MC_PATHS, win_threshold=threshold, workers=2)
    paths = simulate_paths(cals, days, ev, cfg)
    assert paths.states == states
    national = histograms[:, WIN_ELECTORAL_VOTES:].sum(axis=1, keepdims=True)
    sampled = paths.ev_counts / MC_PATHS
    for exact, mc in ((histograms, sampled), (p_state, paths.p_state),
                      (national, sampled[:, WIN_ELECTORAL_VOTES:].sum(axis=1, keepdims=True))):
        se = np.sqrt(exact * (1.0 - exact) / MC_PATHS)
        assert (np.abs(exact - mc) <= K_SE * se + GRID_BOUND + 1.0 / MC_PATHS).all()


def test_each_day_equals_its_one_day_run_bit_for_bit():
    # a day's lattice is set by its own scale, anchored at 0, and each day
    # sums its own cells in order: the days around it change no bit
    cals, days, ev = contested_race(3)
    _, histograms, p_state = gaussian_days(cals, days, ev, 18.0)
    for d in (0, 7, 30):
        _, one, p_one = gaussian_days(cals, [days[d]], ev, 18.0)
        assert histograms[d].tobytes() == one[0].tobytes()
        assert p_state[d].tobytes() == p_one[0].tobytes()


def test_one_state_days_equal_their_one_day_runs_bit_for_bit():
    cals, days, _ = contested_race(11)
    ev = {"OH": 18}
    _, histograms, p_state = gaussian_days(cals, days, ev)
    for d in (0, 30):
        _, one, p_one = gaussian_days(cals, [days[d]], ev)
        assert (histograms[d].tobytes(), p_state[d].tobytes()) == (one[0].tobytes(),
                                                                   p_one[0].tobytes())


@pytest.mark.parametrize("name", ["fixture", "race5"])
def test_each_sum_adds_its_terms_in_order(name, monkeypatch):
    # what keeps a day's bits its own, and free of the SIMD width: every
    # einsum adds its terms in order, as this loop does
    def in_order(spec, w, m):
        assert spec in ("dj,jk->dk", "dj,js->ds")
        out = np.zeros((w.shape[0], m.shape[1]))
        for j in range(w.shape[1]):
            out = out + w[:, j:j + 1] * m[j]
        return out

    cals, days, ev = INPUTS[name]()
    _, histograms, p_state = gaussian_days(cals, days, ev, 18.0)
    monkeypatch.setattr(simulation.np, "einsum", in_order)
    _, looped, p_looped = gaussian_days(cals, days, ev, 18.0)
    assert histograms.tobytes() == looped.tobytes() and p_state.tobytes() == p_looped.tobytes()


def market(sigma_samp=0.5, sigma_m=0.5, m=0.0, horizon=9.0):
    return MarketCalibration(sigma_samp, sigma_m, m, horizon)


def test_degenerate_scales_keep_the_monte_carlo_meaning():
    # horizon 0: a point mass at m, ties lose; an overflowing scale: half
    # the paths at -inf and half at +inf, where a flat line is 0 * inf =
    # NaN and never wins; an infinite volatility over horizon 0: inf * 0 =
    # NaN on every path, so no state wins
    ev = default_ev_table()
    cals, _, _ = contested_race(5)
    cals["OH"] = StateCalibration("OH", -1.0, 1.0, 0.0, 2, "historical")  # a tie at m = 1
    cals["PA"] = StateCalibration("PA", 2.0, 0.0, 1.5, 8, "polls")  # flat
    days = [market(m=1.0, horizon=0.0), market(sigma_m=1e308), market(1e308, 1e308, 0.0, 0.0)]
    states, histograms, p_state = gaussian_days(cals, days, ev)
    paths = simulate_paths(cals, days, ev, SimulationConfig(seed=8, n_paths=200_000))
    oh, pa = states.index("OH"), states.index("PA")
    assert (p_state[0, oh], p_state[1, pa], p_state[2].max()) == (0.0, 0.0, 0.0)
    assert histograms[2, 0] == 1.0
    # on the infinite day every state is won on one side only
    assert set(p_state[1]) <= {0.0, 0.5}
    for exact, mc in ((histograms, paths.ev_counts / 200_000), (p_state, paths.p_state)):
        se = np.sqrt(exact * (1.0 - exact) / 200_000)
        assert (np.abs(exact - mc) <= K_SE * se + GRID_BOUND).all()


EXTREMES = [0.0, 1e-300, 1e-12, 1e-3, 0.5, 3.0, 1e6, 1e150, 1e307, 1e308]


def extreme_case(rng):
    """Lines and days drawn from zeros, tiny and huge values of either sign."""
    pick = lambda: float(rng.choice([-1.0, 1.0]) * rng.choice(EXTREMES))  # noqa: E731
    cals = {s: StateCalibration(s, pick(), pick(), abs(pick()), 5, "polls")
            for s in default_ev_table()}
    days = [MarketCalibration(abs(pick()), abs(pick()), pick(),
                              float(rng.choice([0.0, 1.0, 100.0, 1e6, 2.0**70])))
            for _ in range(int(rng.integers(1, 5)))]
    return cals, days, float(rng.choice([0.0, 18.0, -1e300]))


def test_cells_far_narrower_than_the_day_keep_their_weights_nonnegative(monkeypatch):
    # a day of scale 1e7 over crossings 1e-3 wide: their cells' first
    # moments, as a difference of densities, lost every digit, and tilted
    # the cells' two weights past their mass
    ev = default_ev_table()
    cals = {s: StateCalibration(s, -1e5 * i, 1.0, 1e-3, 5, "polls")
            for i, s in enumerate(sorted(ev), -25)}
    seen = []
    level_part = simulation._level_part

    def recorded(*args):
        part = level_part(*args)
        seen.append(part[2])
        return part

    monkeypatch.setattr(simulation, "_level_part", recorded)
    check_distributions(cals, [MarketCalibration(1e6, 0.5, 1e6, 100.0)], ev, 0.0)
    assert min(weights.min() for weights in seen) >= 0.0


@pytest.mark.parametrize("case", [
    # a scale near the largest float: the day's span passes it
    (StateCalibration("OH", 1.0, 1.0, 3.0, 5, "polls"), MarketCalibration(1e307, 0.5, 0.5, 100.0)),
    # a spread too large for its slope to move, and a density that overflowed
    (StateCalibration("OH", 1e308, -1e-3, 3.0, 5, "polls"), MarketCalibration(0.0, 0.5, -1e6, 1.0)),
], ids=["near_max", "flat_at_max"])
def test_extreme_inputs_give_distributions(case):
    cal, mkt = case
    cals, _, ev = contested_race(7)
    cals["OH"] = cal
    check_distributions(cals, [mkt], ev, 0.0)


def test_random_extreme_inputs_give_distributions():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        cals, days, threshold = extreme_case(rng)
        check_distributions(cals, days, default_ev_table(), threshold)


def check_distributions(cals, days, ev, threshold):
    states, histograms, p_state = gaussian_days(cals, days, ev, threshold)
    votes = np.array([ev[s] for s in states], dtype=float)
    assert np.isfinite(histograms).all() and histograms.min() >= 0.0
    assert np.abs(histograms.sum(axis=1) - 1.0).max() <= 1e-12
    assert 0.0 <= p_state.min() <= p_state.max() <= 1.0
    assert np.abs(p_state @ votes - histograms @ np.arange(EV_BINS)).max() <= 1e-9 * 538


def test_normal_cdf_matches_math_erfc():
    x = np.concatenate([np.linspace(-40.0, 40.0, 80_001), [0.0, -0.0, 1e-300, np.inf, -np.inf]])
    expected = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    got = simulation._phi(x)
    assert np.abs(got - expected).max() <= 4e-16
    tail = (x < -1.0) & (x > -37.0)  # where the tail is a normal float
    assert (np.abs(got[tail] - expected[tail]) <= 1e-12 * expected[tail]).all()
    assert simulation._phi(np.array([np.nan]))[0] == 0.0
