"""Monte Carlo simulation: terminal law, state noise, EV aggregation."""

import json
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from statecast import simulation
from statecast.calibration import MarketCalibration, StateCalibration, calibration_from_dict
from statecast.errors import ConfigurationError
from statecast.simulation import (
    NOISE_MODELS,
    SimulationConfig,
    _TILE,
    _screen,
    _stream,
    probability_time_series,
    run_forecast,
    sample_state_noise,
    simulate_market_terminals,
    simulate_paths,
)
from statecast.states import default_ev_table


def aggregate_electoral_votes(state_spreads, ev_table, win_threshold=0.0):
    """Per-path oracle: candidate 1's electoral votes, winner-take-all.

    A state counts only when its spread strictly exceeds the threshold; a
    spread exactly at the threshold goes to candidate 2.
    """
    total = 0
    for state, votes in ev_table.items():
        if state not in state_spreads:
            raise ConfigurationError(f"no simulated spread for state {state}")
        if state_spreads[state] > win_threshold:
            total += votes
    return total


def flat_cals(ev, alpha=0.0, beta=0.0, sigma=1.0):
    return {s: StateCalibration(s, alpha, beta, sigma, 5, "polls") for s in ev}


def market(sigma_samp=0.5, sigma_m=0.5, m=0.0, horizon=9.0):
    return MarketCalibration(sigma_samp=sigma_samp, sigma_m=sigma_m,
                             m_current=m, horizon=horizon)


class TestMarketTerminals:
    def test_zero_volatility_is_constant(self):
        m = simulate_market_terminals([market(0.0, 0.0, m=2.5)],
                                      SimulationConfig(seed=1, n_paths=100))
        np.testing.assert_array_equal(m, np.full((1, 100), 2.5))

    def test_zero_horizon_is_constant(self):
        m = simulate_market_terminals([market(1.0, 1.0, m=-1.0, horizon=0.0)],
                                      SimulationConfig(seed=1, n_paths=100))
        np.testing.assert_array_equal(m, np.full((1, 100), -1.0))

    def test_terminal_variance_and_mean(self):
        # sigma_total = 2, T = 25 -> Var = 100; martingale keeps the mean at m
        mkt = market(1.2, 0.8, m=1.5, horizon=25.0)
        [m] = simulate_market_terminals([mkt], SimulationConfig(seed=2, n_paths=10000))
        assert m.var(ddof=1) == pytest.approx(100.0, rel=0.05)
        assert abs(m.mean() - 1.5) <= 4 * 2.0 * 5.0 / np.sqrt(10000)

    def test_variance_within_three_mc_standard_errors(self):
        # chi-square: se(Var-hat) ~ sigma^2 T sqrt(2/(n-1))
        mkt = market(0.7, 0.3, m=0.0, horizon=16.0)
        for seed in (3, 4, 5):
            [m] = simulate_market_terminals([mkt], SimulationConfig(seed=seed, n_paths=10000))
            true_var = 1.0 * 16.0
            se = true_var * np.sqrt(2.0 / 9999)
            assert abs(m.var(ddof=1) - true_var) <= 3 * se

    def test_seeded_reproducibility(self):
        mkt = market()
        cfg = SimulationConfig(seed=77, n_paths=500)
        np.testing.assert_array_equal(simulate_market_terminals([mkt], cfg),
                                      simulate_market_terminals([mkt], cfg))


class TestStateNoise:
    def test_gaussian_deterministic_line(self):
        cal = StateCalibration("OH", 1.0, 2.0, 0.0, 5, "polls")
        intercept, slope, noise = sample_state_noise(cal, 10, "gaussian", _stream(1, 1))
        assert (intercept, slope) == (1.0, 2.0)
        np.testing.assert_array_equal(intercept + slope * np.full(10, 3.0) + noise,
                                      np.full(10, 7.0))

    @pytest.fixture
    def degenerate_priors(self, monkeypatch):
        monkeypatch.setattr(simulation, "SIGMA_ALPHA", 0.0)
        monkeypatch.setattr(simulation, "SIGMA_BETA", 0.0)

    def test_student_t_degenerate_priors(self, degenerate_priors):
        cal = StateCalibration("OH", 1.0, 2.0, 0.0, 5, "polls")
        intercept, slope, noise = sample_state_noise(cal, 10, "student_t", _stream(1, 1))
        np.testing.assert_array_equal(intercept, np.full(10, 1.0))
        np.testing.assert_array_equal(slope, np.full(10, 2.0))
        np.testing.assert_array_equal(intercept + slope * np.full(10, 3.0) + noise,
                                      np.full(10, 7.0))

    def test_student_t_scale_matches_nested_mc_oracle(self, degenerate_priors):
        # noise should be |N(0,1)| * t_3; compare sample std against an
        # independent simulation of the same law
        cal = StateCalibration("NV", 0.0, 0.0, 1.0, 5, "polls")
        _, _, noise = sample_state_noise(cal, 100000, "student_t", _stream(1, 1))
        rng = np.random.default_rng(1001)
        oracle = np.abs(rng.standard_normal(100000)) * rng.standard_t(3, 100000)
        assert abs(noise.std(ddof=1) - oracle.std(ddof=1)) <= 0.10 * oracle.std(ddof=1)

    def test_single_path(self):
        cal = StateCalibration("OH", 0.5, 1.0, 0.0, 5, "polls")
        intercept, slope, noise = sample_state_noise(cal, 1, "gaussian", _stream(1, 1))
        spread = intercept + slope * 2.0 + noise
        assert spread.shape == (1,) and spread[0] == 2.5


# Each kind of draw sample_state_noise takes, as (stream, count) -> values.
DRAWS = {
    "normal": lambda rng, k: rng.normal(1.5, 2.0, k),
    "standard_normal": lambda rng, k: rng.standard_normal(k),
    "standard_t": lambda rng, k: rng.standard_t(3, k),
}


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_a_draw_in_tiles_equals_the_whole_draw(draw):
    # numpy gives the same values from a stream whether a draw is taken
    # whole or in _TILE pieces, and leaves the stream at the same place; the
    # per-tile Student-T draw relies on this.  2 * _TILE + 7 paths: not a
    # multiple of _TILE.
    n = 2 * _TILE + 7
    whole_rng, tiled_rng = _stream(31, 4), _stream(31, 4)
    whole = DRAWS[draw](whole_rng, n)
    tiled = np.concatenate([DRAWS[draw](tiled_rng, min(_TILE, n - c))
                            for c in range(0, n, _TILE)])
    assert tiled.tobytes() == whole.tobytes()
    assert tiled_rng.standard_normal(3).tobytes() == whole_rng.standard_normal(3).tobytes()


class TestAggregateElectoralVotes:
    def test_sweep(self):
        ev = default_ev_table()
        assert aggregate_electoral_votes({s: 1.0 for s in ev}, ev) == 538
        assert aggregate_electoral_votes({s: -1.0 for s in ev}, ev) == 0

    def test_two_state_win(self):
        ev = default_ev_table()
        spreads = {s: -1.0 for s in ev}
        spreads["CA"] = 0.5
        spreads["TX"] = 0.5
        assert aggregate_electoral_votes(spreads, ev) == 93  # 55 + 38

    def test_tie_goes_to_candidate_two(self):
        ev = default_ev_table()
        spreads = {s: 0.0 for s in ev}
        assert aggregate_electoral_votes(spreads, ev, win_threshold=0.0) == 0

    def test_missing_state_named(self):
        ev = default_ev_table()
        spreads = {s: 1.0 for s in ev if s != "VT"}
        with pytest.raises(ConfigurationError, match="VT"):
            aggregate_electoral_votes(spreads, ev)


class TestRunForecast:
    def test_deterministic_landslide(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=5.0, beta=0.0, sigma=0.0)
        dist = run_forecast(cals, market(0.0, 0.0), ev,
                            SimulationConfig(seed=1, n_paths=1000))
        assert dist.p_national == 1.0
        assert dist.ev_histogram[538] == 1.0
        assert np.count_nonzero(dist.ev_histogram) == 1

    def test_symmetric_states_are_coin_flips(self):
        ev = default_ev_table()
        dist = run_forecast(flat_cals(ev), market(), ev,
                            SimulationConfig(seed=7, n_paths=10000))
        for state, p in dist.p_state.items():
            assert abs(p - 0.5) <= 0.02, state

    def test_histogram_mean_equals_path_mean(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=0.3, beta=1.0, sigma=2.0)
        cfg = SimulationConfig(seed=11, n_paths=4000)
        mkt = market(m=0.5, horizon=16.0)
        paths = simulate_paths(cals, [mkt], ev, cfg)
        dist = run_forecast(cals, mkt, ev, cfg)
        hist_mean = float(np.arange(539) @ dist.ev_histogram)
        assert hist_mean == pytest.approx(paths.ev_c1.mean(), abs=1e-12)

    def test_histogram_sums_to_one_and_national_matches(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=0.5, beta=0.8, sigma=3.0)
        dist = run_forecast(cals, market(m=1.0, horizon=30.0), ev,
                            SimulationConfig(seed=13, n_paths=5000))
        assert dist.ev_histogram.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.p_national == pytest.approx(dist.ev_histogram[270:].sum(), abs=0)

    def test_monotone_in_win_threshold(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=1.0, beta=1.0, sigma=2.0)
        mkt = market(m=0.5, horizon=9.0)
        probs = [
            run_forecast(cals, mkt, ev,
                         SimulationConfig(seed=19, n_paths=3000, win_threshold=thr)).p_national
            for thr in (-2.0, -0.5, 0.0, 0.5, 2.0)
        ]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_threads_do_not_change_bits(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=0.2, beta=1.1, sigma=1.5)
        mkt = market(m=0.8, horizon=12.0)
        base = run_forecast(cals, mkt, ev, SimulationConfig(seed=5, n_paths=2000))
        for workers in (2, 4, 8):
            alt = run_forecast(cals, mkt, ev,
                               SimulationConfig(seed=5, n_paths=2000, workers=workers))
            assert alt.p_state == base.p_state
            np.testing.assert_array_equal(alt.ev_histogram, base.ev_histogram)

    def test_student_t_run(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=0.5, beta=1.0, sigma=1.0)
        cfg = SimulationConfig(seed=23, n_paths=2000, noise_model="student_t")
        dist = run_forecast(cals, market(m=1.0), ev, cfg)
        assert dist.ev_histogram.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= dist.p_national <= 1.0

    def test_integer_horizon_past_int64(self):
        # numpy refused the Python int 2**70 with a TypeError; the type now
        # holds it as a float
        ev = default_ev_table()
        mkt = MarketCalibration(1.0, 0.5, 2.0, 2**70)
        dist = run_forecast(flat_cals(ev), mkt, ev, SimulationConfig(seed=1, n_paths=100))
        assert dist.ev_histogram.sum() == pytest.approx(1.0, abs=1e-12)

    def test_missing_calibration_raises(self):
        ev = default_ev_table()
        cals = flat_cals(ev)
        del cals["OH"]
        with pytest.raises(ConfigurationError, match="OH"):
            run_forecast(cals, market(), ev, SimulationConfig(seed=1, n_paths=10))

    def test_empty_ev_table_raises(self):
        cals = flat_cals(default_ev_table())
        with pytest.raises(ConfigurationError, match="electoral-vote table is empty"):
            simulate_paths(cals, [market()], {}, SimulationConfig(seed=1, n_paths=10))

    def test_wide_horizon_tends_to_half(self):
        # one beta-coalition holds >= 270 EV, so an enormous diffusion makes
        # the race a fair coin on the market's sign
        ev = default_ev_table()
        plus, total = set(), 0
        for s in sorted(ev, key=lambda k: -ev[k]):
            if total < 300:
                plus.add(s)
                total += ev[s]
        cals = {
            s: StateCalibration(s, 0.0, 1.0 if s in plus else -1.0, 0.1, 5, "polls")
            for s in ev
        }
        mkt = market(5.0, 5.0, m=0.0, horizon=10000.0)
        dist = run_forecast(cals, mkt, ev, SimulationConfig(seed=1, n_paths=10000))
        assert 0.45 <= dist.p_national <= 0.55


def phi(x: float) -> float:
    """The standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


FIXTURE_CALIBRATION = Path(__file__).parent / "fixtures" / "calibration.json"


@pytest.mark.parametrize("threshold", [0.0, 18.0])
@pytest.mark.parametrize("seed", [1, 7, 99])
def test_p_state_matches_closed_form(seed, threshold):
    """Under Gaussian noise a state's spread is normal with mean a + b*m and
    variance s_eps^2 + b^2 s_tot^2 T, so p_state is Phi((a + b*m - theta) /
    sd), to within 5 standard errors plus one path.  States share the market
    draw, so one seed's errors are correlated: the bound holds per state."""
    cals, mkt = calibration_from_dict(json.loads(FIXTURE_CALIBRATION.read_text()))
    n = 20_000
    dist = run_forecast(cals, mkt, default_ev_table(),
                        SimulationConfig(seed=seed, n_paths=n, win_threshold=threshold))
    for state, c in cals.items():
        sd = math.sqrt(c.sigma_eps ** 2 + c.beta ** 2 * mkt.sigma_total ** 2 * mkt.horizon)
        p = phi((c.alpha + c.beta * mkt.m_current - threshold) / sd)
        assert abs(dist.p_state[state] - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n) + 1.0 / n, state


def test_p_state_without_noise_or_time_is_the_line_against_the_threshold():
    """With s_eps = 0 and T = 0 every path has the spread a + b*m, so p_state
    is exactly 1[a + b*m > theta]; a tie, a + b*m = theta, loses under the
    strict ``>``."""
    ev = default_ev_table()
    cals = flat_cals(ev, alpha=0.0, beta=1.0, sigma=0.0)  # 2.0: above
    cals["OH"] = StateCalibration("OH", -1.5, 1.0, 0.0, 5, "polls")  # 0.5: below
    cals["PA"] = StateCalibration("PA", -1.0, 1.0, 0.0, 5, "polls")  # 1.0: a tie
    cals["FL"] = StateCalibration("FL", 5.0, -2.0, 0.0, 5, "polls")  # 1.0: a tie
    dist = run_forecast(cals, market(m=2.0, horizon=0.0), ev,
                        SimulationConfig(seed=3, n_paths=1000, win_threshold=1.0))
    assert (dist.p_state["OH"], dist.p_state["PA"], dist.p_state["FL"]) == (0.0, 0.0, 0.0)
    assert all(dist.p_state[s] == 1.0 for s in ev if s not in ("OH", "PA", "FL"))


class TestProbabilityTimeSeries:
    def _leaning_cals(self, ev):
        offsets = [-1.0, -0.5, 0.0, 0.5, 1.0]
        return {
            s: StateCalibration(s, offsets[i % 5], 1.0, 1.5, 5, "polls")
            for i, s in enumerate(sorted(ev))
        }

    def test_zero_horizon_with_positive_spreads(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=3.0, beta=1.0, sigma=0.0)
        series = probability_time_series(
            cals, [market(1.0, 1.0, m=2.0, horizon=0.0)], ev,
            SimulationConfig(seed=3, n_paths=500),
        )
        assert [dist.p_national for dist in series] == [1.0]

    def test_long_horizon_is_less_decisive(self):
        ev = default_ev_table()
        cals = self._leaning_cals(ev)
        series = probability_time_series(
            cals,
            [market(0.5, 0.5, m=2.0, horizon=100.0),
             market(0.5, 0.5, m=2.0, horizon=1.0)],
            ev,
            SimulationConfig(seed=3, n_paths=10000),
        )
        p100, p1 = (dist.p_national for dist in series)
        assert abs(p100 - 0.5) <= abs(p1 - 0.5) + 0.02

    def test_no_markets_no_forecasts(self):
        ev = default_ev_table()
        assert probability_time_series(flat_cals(ev), [], ev,
                                       SimulationConfig(seed=3, n_paths=50)) == []

    def test_same_horizon_reproduces(self):
        # identical data on consecutive days differ only through the horizon
        ev = default_ev_table()
        cals = self._leaning_cals(ev)
        cfg = SimulationConfig(seed=9, n_paths=2000)
        day_a = probability_time_series(cals, [market(m=1.0, horizon=30.0)], ev, cfg)
        day_b = probability_time_series(cals, [market(m=1.0, horizon=30.0)], ev, cfg)
        assert [d.to_dict() for d in day_a] == [d.to_dict() for d in day_b]


def contested_cals(ev):
    """Random state lines around an even national race."""
    rng = np.random.default_rng(2016)
    return {
        s: StateCalibration(s, float(rng.normal(0.0, 3.0)), float(rng.uniform(0.5, 1.5)),
                            float(rng.uniform(1.0, 4.0)), 8, "polls")
        for s in sorted(ev)
    }


# Days of one run: the level and the remaining horizon both move.
DAYS = [market(m=-1.0, horizon=40.0), market(m=0.5, horizon=20.0),
        market(m=1.5, horizon=5.0), market(m=0.0, horizon=0.0)]


def rebuilt_spreads(cals, markets, cfg):
    """Every state's spread on every path of each market, drawn straight
    from the Philox streams in the order the simulator consumes them."""
    n, model = cfg.n_paths, cfg.noise_model
    z = _stream(cfg.seed, 0).standard_normal(n)
    ms = [mkt.m_current + mkt.sigma_total * np.sqrt(mkt.horizon) * z for mkt in markets]
    out = [{} for _ in markets]
    for i, state in enumerate(sorted(cals)):
        rng, cal = _stream(cfg.seed, 1 + i), cals[state]
        if model == "gaussian":
            alpha, beta, noise = cal.alpha, cal.beta, cal.sigma_eps * rng.standard_normal(n)
        else:
            alpha = rng.normal(cal.alpha, simulation.SIGMA_ALPHA, n)
            beta = rng.normal(cal.beta, simulation.SIGMA_BETA, n)
            scale = np.abs(rng.normal(0.0, cal.sigma_eps, n))
            noise = scale * rng.standard_t(simulation.NU, n)
        for day, m in zip(out, ms):
            day[state] = alpha + beta * m + noise
    return out


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("model", NOISE_MODELS)
class TestSharedDraws:
    """Every day of a run is settled from one set of state draws."""

    def test_day_rows_match_one_market_calls(self, model, workers):
        ev = default_ev_table()
        cals = contested_cals(ev)
        cfg = SimulationConfig(seed=31, n_paths=3000, noise_model=model, workers=workers)
        paths = simulate_paths(cals, DAYS, ev, cfg)
        assert paths.ev_c1.shape == (len(DAYS), 3000)
        for d, mkt in enumerate(DAYS):
            one = simulate_paths(cals, [mkt], ev, cfg)
            np.testing.assert_array_equal(paths.ev_c1[d], one.ev_c1[0])
            np.testing.assert_array_equal(paths.p_state[d], one.p_state[0])

    def test_time_series_matches_run_forecast(self, model, workers):
        ev = default_ev_table()
        cals = contested_cals(ev)
        cfg = SimulationConfig(seed=37, n_paths=3000, noise_model=model, workers=workers)
        series = probability_time_series(cals, DAYS, ev, cfg)
        assert ([dist.to_dict() for dist in series]
                == [run_forecast(cals, mkt, ev, cfg).to_dict() for mkt in DAYS])
        assert all(0.05 < dist.p_national < 0.95 for dist in series)

    def test_oracle_reproduces_every_path(self, model, workers):
        ev = default_ev_table()
        cals = contested_cals(ev)
        cfg = SimulationConfig(seed=41, n_paths=300, noise_model=model, workers=workers)
        # put the threshold exactly on OH's spread on path 0 of day 1
        days = rebuilt_spreads(cals, DAYS, cfg)
        threshold = float(days[1]["OH"][0])
        cfg = replace(cfg, win_threshold=threshold)
        paths = simulate_paths(cals, DAYS, ev, cfg)
        for d, spreads in enumerate(days):
            expected = [
                aggregate_electoral_votes({s: v[k] for s, v in spreads.items()}, ev, threshold)
                for k in range(cfg.n_paths)
            ]
            np.testing.assert_array_equal(paths.ev_c1[d], expected)
        # the tie went to candidate 2: one ulp lower hands OH to candidate 1
        lower = replace(cfg, win_threshold=float(np.nextafter(threshold, -np.inf)))
        assert (simulate_paths(cals, [DAYS[1]], ev, lower).ev_c1[0, 0]
                == paths.ev_c1[1, 0] + ev["OH"])


def assert_matches_oracle(cals, days, cfg):
    """Each day's EV on every path and win shares equal settling the
    oracle's spreads with a strict ``>``.  In the oracle a term that
    overflows is +-inf, and one that is undefined NaN."""
    ev = default_ev_table()
    with np.errstate(over="ignore", invalid="ignore"):
        spreads = rebuilt_spreads(cals, days, cfg)
    paths = simulate_paths(cals, days, ev, cfg)
    assert paths.ev_c1.shape == (len(days), cfg.n_paths)
    for d in range(len(days)):
        won = {s: v > cfg.win_threshold for s, v in spreads[d].items()}
        expected = sum(ev[s] * w.astype(np.int64) for s, w in won.items())
        np.testing.assert_array_equal(paths.ev_c1[d], expected)
        np.testing.assert_array_equal(paths.p_state[d], [won[s].mean() for s in paths.states])


# (paths, days, tie day, tie path): the first case crosses a path tile, the
# second settles 25 days of 3,001 paths; each tie sits past the first
# _TILE elements.
TILE_EDGES = [(_TILE + 7, 3, 1, _TILE + 3),
              (3001, _TILE // 3001 + 4, _TILE // 3001 + 1, 1500)]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("model", NOISE_MODELS)
@pytest.mark.parametrize("n_paths,n_days,tie_day,tie_path", TILE_EDGES,
                         ids=["path_tile", "day_block"])
def test_tiles_match_vectorized_oracle(model, workers, n_paths, n_days, tie_day, tie_path):
    cals = contested_cals(default_ev_table())
    days = [market(m=-1.0 + 0.1 * d, horizon=float(n_days - d)) for d in range(n_days)]
    cfg = SimulationConfig(seed=47, n_paths=n_paths, noise_model=model, workers=workers)
    threshold = float(rebuilt_spreads(cals, days, cfg)[tie_day]["OH"][tie_path])
    assert_matches_oracle(cals, days, replace(cfg, win_threshold=threshold))


def test_market_memory_is_per_path():
    # The EV table (int16, paths x days) is the only array as large as the
    # paths times the days; a float64 one of that size would be 9.6 MB.
    ev = default_ev_table()
    n_paths, n_days = 20_000, 60
    days = [market(m=-1.0 + 0.05 * d, horizon=float(n_days - d)) for d in range(n_days)]
    cfg = SimulationConfig(seed=71, n_paths=n_paths)
    tracemalloc.start()
    try:
        simulate_paths(contested_cals(ev), days, ev, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_paths * n_days * np.dtype(np.float64).itemsize


@pytest.mark.parametrize("workers", [1, 2])
def test_a_worker_holds_one_states_draws(workers):
    # A worker frees each state's draws before it draws the next state.  In
    # floats of 8 bytes, with one day, Student-T noise and n paths, the
    # traced peak is at most:
    #   the market draw z, shared by the workers:                 n
    #   per worker, one state's draws, its line folded at the
    #     market before the noise is drawn (line, noise):         2n
    #     and one _TILE of t while the noise is formed:           _TILE
    #   per worker, its int16 EV table:                           n / 4
    #   per worker, the one-day settle tiles (lo, and 4 bytes of
    #     bool, bool and int16 for each of its elements):         3/2 _TILE
    #   the interpreter's own objects (thread states, frames):    < _TILE
    # Measured, the peak less n + workers * (2n + n / 4 + _TILE) is 1.53
    # _TILE with one worker and 3.05 _TILE with two: the tile terms are
    # exact, and the interpreter's objects are about 2,000 floats.  Keeping
    # the intercept until the noise is drawn (3n), or allocating a series'
    # settle tiles (hi, x and the rows' bool and int16: 19/8 _TILE more),
    # goes past the bound with one worker.
    # 3 * _TILE + 7 paths: the draws span whole tiles and a partial one.
    ev = default_ev_table()
    n = 3 * _TILE + 7
    cals = contested_cals(ev)
    model = "student_t"
    simulate_paths(cals, [market()], ev,  # warm-up: numpy.random imports on first use
                   SimulationConfig(seed=71, n_paths=7, noise_model=model))
    cfg = SimulationConfig(seed=71, n_paths=n, noise_model=model, workers=workers)
    tracemalloc.start()
    try:
        simulate_paths(cals, [market()], ev, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = n + workers * (2 * n + _TILE + n / 4 + 3 / 2 * _TILE) + _TILE
    assert peak <= bound * np.dtype(np.float64).itemsize


def screen_cals(ev):
    """Contested lines, one falling (beta < 0) and one flat (beta == 0.0)."""
    cals = contested_cals(ev)
    cals["OH"] = StateCalibration("OH", 1.0, -0.8, 2.0, 8, "polls")
    cals["PA"] = StateCalibration("PA", 0.5, 0.0, 2.0, 8, "polls")
    return cals


# The day range of a path is screened by the spread at its lowest and
# highest market; a path is settled day by day only when the screen cannot
# decide it.  2,999 paths: not a multiple of _TILE.
SCREEN_PATHS = 2999
SCREEN_DAYS = [market(m=-2.0, horizon=40.0), market(m=1.0, horizon=25.0),
               market(m=0.5, horizon=10.0), market(m=-0.5, horizon=1.0)]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("model", NOISE_MODELS)
class TestScreen:
    def test_slopes_of_both_signs_and_zero(self, model, workers):
        cals = screen_cals(default_ev_table())
        cfg = SimulationConfig(seed=53, n_paths=SCREEN_PATHS, noise_model=model,
                               workers=workers)
        if model == "student_t":  # per-path slopes of both signs
            _, slope, _ = sample_state_noise(cals["TX"], SCREEN_PATHS, model,
                                             _stream(53, 1 + sorted(cals).index("TX")))
            assert (slope < 0).any() and (slope > 0).any()
        assert_matches_oracle(cals, SCREEN_DAYS, cfg)

    @pytest.mark.parametrize("end", [np.min, np.max], ids=["at_lo", "at_hi"])
    @pytest.mark.parametrize("state", ["OH", "PA", "TX"])
    def test_threshold_on_a_bound(self, model, workers, end, state):
        # the threshold equals one path's lowest (or highest) spread over
        # the days: at lo the path wins on every day but one, at hi it
        # loses on every day
        cals = screen_cals(default_ev_table())
        cfg = SimulationConfig(seed=59, n_paths=SCREEN_PATHS, noise_model=model,
                               workers=workers)
        days = rebuilt_spreads(cals, SCREEN_DAYS, cfg)
        spread = np.array([day[state][17] for day in days])
        threshold = float(end(spread))
        assert_matches_oracle(cals, SCREEN_DAYS, replace(cfg, win_threshold=threshold))

    @pytest.mark.parametrize("tile", [7, 64])
    def test_small_tiles(self, model, workers, tile, monkeypatch):
        # 301 paths in tiles of 7 or 64 paths, undecided paths in chunks of
        # 1 or 16: many partial tiles and chunks
        monkeypatch.setattr(simulation, "_TILE", tile)
        cfg = SimulationConfig(seed=67, n_paths=301, noise_model=model, workers=workers)
        assert_matches_oracle(screen_cals(default_ev_table()), SCREEN_DAYS, cfg)

    def test_single_day(self, model, workers):
        cals = screen_cals(default_ev_table())
        cfg = SimulationConfig(seed=61, n_paths=SCREEN_PATHS, noise_model=model,
                               workers=workers)
        [day] = rebuilt_spreads(cals, SCREEN_DAYS[1:2], cfg)
        threshold = float(day["OH"][17])  # a tie goes to candidate 2
        assert_matches_oracle(cals, SCREEN_DAYS[1:2], replace(cfg, win_threshold=threshold))

    def test_one_day_at_an_infinite_market(self, model, workers):
        # sigma_total * sqrt(T) overflows, so m is +-inf on every path.  A
        # Student-T line folded at m is +-inf, as in the three-term spread,
        # and not 0 * inf = NaN; the flat Gaussian line (PA, slope 0.0) is
        # NaN on every path, which never wins.
        cals = screen_cals(default_ev_table())
        cfg = SimulationConfig(seed=73, n_paths=SCREEN_PATHS, noise_model=model,
                               workers=workers)
        assert_matches_oracle(cals, [market(sigma_m=1e308)], cfg)


def test_screen_splits_at_the_threshold():
    t = 0.25
    up = float(np.nextafter(t, np.inf))
    lo = np.array([t, up, np.nan, t - 1.0, -np.inf])
    hi = np.array([t + 1.0, up, np.nan, t, np.inf])
    won, flat = np.empty(5, dtype=bool), np.empty(5, dtype=bool)
    undecided = _screen(lo, hi, t, won, flat)
    # lo == t may still lose a day; hi == t loses every day; NaN is undecided
    np.testing.assert_array_equal(won, [False, True, False, False, False])
    np.testing.assert_array_equal(undecided, [0, 2, 4])
    # the two ends in either order: a falling slope puts the greater
    # spread at the lowest market
    undecided = _screen(hi, lo, t, won, flat)
    np.testing.assert_array_equal(won, [False, True, False, False, False])
    np.testing.assert_array_equal(undecided, [0, 2, 4])
    # one day: lo is the spread, and every path is decided
    assert len(_screen(lo, None, t, won, flat)) == 0
    np.testing.assert_array_equal(won, [False, True, False, False, False])


def test_more_threads_than_cores_under_fast_switching():
    # workers write disjoint p_state cells and their own EV accumulators;
    # a lost or doubled update would change the bits
    ev = default_ev_table()
    cals = contested_cals(ev)
    cfg = SimulationConfig(seed=43, n_paths=2000, noise_model="student_t")
    base = simulate_paths(cals, DAYS, ev, cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        alt = simulate_paths(cals, DAYS, ev, replace(cfg, workers=16))
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(alt.ev_c1, base.ev_c1)
    np.testing.assert_array_equal(alt.p_state, base.p_state)


class TestConfigValidation:
    def test_bad_paths(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=1, n_paths=0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)
        SimulationConfig(seed=2**64 - 1)

    @pytest.mark.parametrize("seed", [1e3, 7.0, True, False])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(TypeError):
            SimulationConfig(seed=seed)

    # Each of these used to pass construction: a NaN or infinite threshold
    # returned p_national = 0.0, and a fractional count failed inside numpy.
    @pytest.mark.parametrize("name,value,error", [
        ("n_paths", 10.5, TypeError),
        ("n_paths", True, TypeError),
        ("workers", 2.5, TypeError),
        ("workers", True, TypeError),
        ("win_threshold", float("nan"), ValueError),
        ("win_threshold", float("inf"), ValueError),
        ("win_threshold", "0", ValueError),
        ("noise_model", "t", ValueError),
    ])
    def test_simulation_config_names_a_bad_field(self, name, value, error):
        with pytest.raises(error, match=f"^{name} "):
            SimulationConfig(seed=1, **{name: value})
