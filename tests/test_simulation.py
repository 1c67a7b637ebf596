"""Monte Carlo simulation: terminal law, state noise, EV aggregation."""

import json
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from statecast import simulation
from statecast.calibration import MarketCalibration, StateCalibration, calibration_from_dict
from statecast.errors import ConfigurationError
from statecast.simulation import (
    MAX_PATHS,
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
from statecast.states import EV_BINS, default_ev_table

from test_cli import FIXTURES


def counts(dist, n_paths: int) -> np.ndarray:
    """The Monte Carlo's path counts per day and EV bin, from its shares."""
    return np.rint(dist.ev_histogram * n_paths).astype(np.int64)


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


#: The Dvoretzky-Kiefer-Wolfowitz bound: an empirical CDF of n draws is
#: within sqrt(ln(2 / alpha) / (2 n)) of the true CDF everywhere, except
#: with probability at most alpha.  Here alpha = 1e-6.
def dkw_bound(n: int, alpha: float = 1e-6) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def shares_above(mkt: MarketCalibration, xs, seed: int, n_paths: int) -> np.ndarray:
    """The share of paths whose terminal market m_T, as ``simulate_paths``
    draws it for a forecast, is above each x_j: the win share of one state
    whose spread is m itself (alpha 0, beta 1, no noise) on day j, whose
    market is ``mkt`` shifted by -x_j."""
    cals = {"OH": StateCalibration("OH", 0.0, 1.0, 0.0, 5, "polls")}
    days = [replace(mkt, m_current=mkt.m_current - x) for x in xs]
    return simulate_paths(cals, days, {"OH": 18},
                          SimulationConfig(seed=seed, n_paths=n_paths)).p_state[:, 0]


def terminal_law_gap(seed: int, n_paths: int = 10_000) -> float:
    """The largest gap between the law of the terminal market m_T, as
    ``simulate_paths`` draws it, and N(m, sigma^2 T): the empirical law's
    survival at 201 points x_j within 4 sd of m, against Phi((m - x_j) /
    (sigma sqrt(T)))."""
    mkt = market(1.25, 0.75, m=1.5, horizon=25.0)  # sd 10
    sd = mkt.sigma_total * math.sqrt(mkt.horizon)
    xs = mkt.m_current + sd * np.linspace(-4.0, 4.0, 201)
    law = [0.5 * (1.0 + math.erf((mkt.m_current - x) / (sd * math.sqrt(2.0)))) for x in xs]
    return float(np.max(np.abs(shares_above(mkt, xs, seed, n_paths) - law)))


class TestMarketTerminals:
    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_terminal_law_within_dkw_bound(self, seed):
        # 0.0269 at 10,000 paths
        assert terminal_law_gap(seed) <= dkw_bound(10_000)

    def test_terminal_law_within_dkw_bound_at_100k_paths(self):
        # 0.0085 at 100,000 paths: tight enough that a 5% error in the
        # terminal scale, or a shift of 0.05 sd in its mean, falls outside
        assert terminal_law_gap(seed=2, n_paths=100_000) <= dkw_bound(100_000)

    @pytest.mark.parametrize("mkt", [market(0.0, 0.0, m=2.5),
                                     market(1.0, 1.0, m=2.5, horizon=0.0)],
                             ids=["zero-volatility", "zero-horizon"])
    def test_degenerate_terminal_law_is_a_step_at_m(self, mkt):
        shares = shares_above(mkt, [1.5, 2.5 - 1e-9, 2.5, 3.5], seed=1, n_paths=100)
        np.testing.assert_array_equal(shares, [1.0, 1.0, 0.0, 0.0])

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

    def test_unknown_model_is_refused(self):
        cal = StateCalibration("OH", 0.5, 1.0, 0.0, 5, "polls")
        with pytest.raises(ValueError, match="^unknown noise model 't'$"):
            sample_state_noise(cal, 1, "t", _stream(1, 1))


# Each kind of draw sample_state_noise and the market take, as (stream,
# count) -> values.
DRAWS = {
    "normal": lambda rng, k: rng.normal(1.5, 2.0, k),
    "standard_normal": lambda rng, k: rng.standard_normal(k),
    "standard_normal_out": lambda rng, k: rng.standard_normal(out=np.empty(k)),
    "standard_t": lambda rng, k: rng.standard_t(3, k),
}


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_a_draw_in_tiles_equals_the_whole_draw(draw):
    # numpy gives the same values from a stream whether a draw is taken
    # whole or in _TILE pieces, and leaves the stream at the same place;
    # the market and a Gaussian state, drawn a path tile at a time, and a
    # Student-T component, drawn a block at a time, rely on this.  2 *
    # _TILE + 7 paths: not a multiple of _TILE.
    n = 2 * _TILE + 7
    whole_rng, tiled_rng = _stream(31, 4), _stream(31, 4)
    whole = DRAWS[draw](whole_rng, n)
    tiled = np.concatenate([DRAWS[draw](tiled_rng, min(_TILE, n - c))
                            for c in range(0, n, _TILE)])
    assert tiled.tobytes() == whole.tobytes()
    assert tiled_rng.standard_normal(3).tobytes() == whole_rng.standard_normal(3).tobytes()


@pytest.mark.parametrize("model", NOISE_MODELS)
def test_a_draw_into_out_fills_it_as_a_whole_draw(model):
    # The draw fills the buffers it is given with the values that one call
    # per component for all paths gives, and leaves the stream where that
    # call would.  3 * _BLOCK + 7 paths: a Student-T component spans whole
    # blocks and a partial one.
    n = 3 * simulation._BLOCK + 7
    cal = StateCalibration("OH", 1.5, 0.8, 2.0, 8, "polls")
    out = tuple(np.full(n, np.nan) for _ in range(3))
    rng, whole_rng = _stream(5, 9), _stream(5, 9)
    intercept, slope, noise = sample_state_noise(cal, n, model, rng, out=out)
    alpha, beta, expected = tile_draws(whole_rng, cal, model, n)
    assert noise is out[2] and noise.tobytes() == expected.tobytes()
    if model == "gaussian":  # the line is the fit; its buffers are not read
        assert (intercept, slope) == (cal.alpha, cal.beta)
        assert np.isnan(out[0]).all() and np.isnan(out[1]).all()
    else:
        assert intercept is out[0] and intercept.tobytes() == alpha.tobytes()
        assert slope is out[1] and slope.tobytes() == beta.tobytes()
    assert rng.standard_normal(3).tobytes() == whole_rng.standard_normal(3).tobytes()


def test_a_student_t_state_reads_its_stream_a_tile_at_a_time(monkeypatch):
    # Tile k of a Student-T state's paths is four consecutive blocks of the
    # tile's length, read from the state's stream after tiles 0..k-1: the
    # intercepts, the slopes, the scales and t.  2 * _TILE + 7 paths: two
    # whole tiles and a partial one.
    n, seed = 2 * _TILE + 7, 29
    cal = StateCalibration("OH", 1.5, 0.8, 2.0, 8, "polls")
    tiles = []
    draw = simulation.sample_state_noise

    def recorded(*args, **kwargs):
        # the draw fills buffers that the next tile reuses: keep a copy
        result = draw(*args, **kwargs)
        tiles.append(tuple(np.copy(v) for v in result))
        return result

    monkeypatch.setattr(simulation, "sample_state_noise", recorded)
    cfg = SimulationConfig(seed=seed, n_paths=n, noise_model="student_t")
    simulate_paths({"OH": cal}, [market()], {"OH": 18}, cfg)
    assert [len(noise) for _, _, noise in tiles] == [_TILE, _TILE, 7]
    rng = _stream(seed, 1)
    for intercept, slope, noise in tiles:
        k = len(noise)
        alpha = rng.normal(cal.alpha, simulation.SIGMA_ALPHA, k)
        beta = rng.normal(cal.beta, simulation.SIGMA_BETA, k)
        scale = rng.normal(0.0, cal.sigma_eps, k)
        t = rng.standard_t(simulation.NU, k)
        assert intercept.tobytes() == alpha.tobytes()
        assert slope.tobytes() == beta.tobytes()
        assert noise.tobytes() == (np.abs(scale) * t).tobytes()


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
        assert dist.p_national.tolist() == [1.0]
        assert dist.ev_histogram[0, 538] == 1.0
        assert np.count_nonzero(dist.ev_histogram) == 1

    def test_symmetric_states_are_coin_flips(self):
        ev = default_ev_table()
        dist = run_forecast(flat_cals(ev), market(), ev,
                            SimulationConfig(seed=7, n_paths=10000))
        for state, p in zip(dist.states, dist.p_state[0]):
            assert abs(p - 0.5) <= 0.02, state

    def test_histogram_mean_equals_path_mean(self):
        # the Monte Carlo's, which a Gaussian forecast no longer runs
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=0.3, beta=1.0, sigma=2.0)
        cfg = SimulationConfig(seed=11, n_paths=4000)
        mkt = market(m=0.5, horizon=16.0)
        [spreads] = rebuilt_spreads(cals, [mkt], cfg)
        path_ev = sum(ev[s] * (v > 0.0) for s, v in spreads.items())
        [histogram] = simulate_paths(cals, [mkt], ev, cfg).ev_histogram
        hist_mean = float(np.arange(539) @ histogram)
        assert hist_mean == pytest.approx(path_ev.mean(), abs=1e-12)

    def test_histogram_sums_to_one_and_national_matches(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=0.5, beta=0.8, sigma=3.0)
        dist = run_forecast(cals, market(m=1.0, horizon=30.0), ev,
                            SimulationConfig(seed=13, n_paths=5000))
        assert dist.ev_histogram.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.p_national[0] == pytest.approx(dist.ev_histogram[0, 270:].sum(), abs=0)

    def test_monotone_in_win_threshold(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=1.0, beta=1.0, sigma=2.0)
        mkt = market(m=0.5, horizon=9.0)
        probs = [
            run_forecast(cals, mkt, ev, SimulationConfig(
                seed=19, n_paths=3000, win_threshold=thr)).p_national[0]
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
            np.testing.assert_array_equal(alt.p_state, base.p_state)
            np.testing.assert_array_equal(alt.ev_histogram, base.ev_histogram)

    def test_student_t_run(self):
        ev = default_ev_table()
        cals = flat_cals(ev, alpha=0.5, beta=1.0, sigma=1.0)
        cfg = SimulationConfig(seed=23, n_paths=2000, noise_model="student_t")
        dist = run_forecast(cals, market(m=1.0), ev, cfg)
        assert dist.ev_histogram.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= dist.p_national[0] <= 1.0

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
        assert 0.45 <= dist.p_national[0] <= 0.55


def phi(x: float) -> float:
    """The standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


FIXTURE_CALIBRATION = FIXTURES / "calibration.json"


@pytest.mark.parametrize("threshold", [0.0, 18.0])
@pytest.mark.parametrize("seed", [1, 7, 99])
def test_p_state_matches_closed_form(seed, threshold):
    """Under Gaussian noise a state's spread is normal with mean a + b*m and
    variance s_eps^2 + b^2 s_tot^2 T, so p_state is Phi((a + b*m - theta) /
    sd), to within 5 standard errors plus one path.  States share the market
    draw, so one seed's errors are correlated: the bound holds per state."""
    cals, mkt = calibration_from_dict(json.loads(FIXTURE_CALIBRATION.read_text()))
    n = 20_000
    p_state = run_forecast(cals, mkt, default_ev_table(), SimulationConfig(
        seed=seed, n_paths=n, win_threshold=threshold)).to_dict()["p_state"]
    for state, c in cals.items():
        sd = math.sqrt(c.sigma_eps ** 2 + c.beta ** 2 * mkt.sigma_total ** 2 * mkt.horizon)
        p = phi((c.alpha + c.beta * mkt.m_current - threshold) / sd)
        assert abs(p_state[state] - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n) + 1.0 / n, state


def test_p_state_without_noise_or_time_is_the_line_against_the_threshold():
    """With s_eps = 0 and T = 0 every path has the spread a + b*m, so p_state
    is exactly 1[a + b*m > theta]; a tie, a + b*m = theta, loses under the
    strict ``>``."""
    ev = default_ev_table()
    cals = flat_cals(ev, alpha=0.0, beta=1.0, sigma=0.0)  # 2.0: above
    cals["OH"] = StateCalibration("OH", -1.5, 1.0, 0.0, 5, "polls")  # 0.5: below
    cals["PA"] = StateCalibration("PA", -1.0, 1.0, 0.0, 5, "polls")  # 1.0: a tie
    cals["FL"] = StateCalibration("FL", 5.0, -2.0, 0.0, 5, "polls")  # 1.0: a tie
    p_state = run_forecast(cals, market(m=2.0, horizon=0.0), ev, SimulationConfig(
        seed=3, n_paths=1000, win_threshold=1.0)).to_dict()["p_state"]
    assert (p_state["OH"], p_state["PA"], p_state["FL"]) == (0.0, 0.0, 0.0)
    assert all(p_state[s] == 1.0 for s in ev if s not in ("OH", "PA", "FL"))


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
        assert series.p_national.tolist() == [1.0]

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
        p100, p1 = series.p_national
        assert abs(p100 - 0.5) <= abs(p1 - 0.5) + 0.02

    def test_no_markets_no_forecasts(self):
        ev = default_ev_table()
        for model in NOISE_MODELS:
            empty = probability_time_series(flat_cals(ev), [], ev, SimulationConfig(
                seed=3, n_paths=50, noise_model=model))
            assert empty.states == tuple(sorted(ev)), model
            assert empty.p_state.shape == (0, len(ev)), model
            assert empty.ev_histogram.shape == (0, EV_BINS), model
            assert empty.p_national.shape == (0,), model

    def test_same_horizon_reproduces(self):
        # identical data on consecutive days differ only through the horizon
        ev = default_ev_table()
        cals = self._leaning_cals(ev)
        cfg = SimulationConfig(seed=9, n_paths=2000)
        day_a = probability_time_series(cals, [market(m=1.0, horizon=30.0)], ev, cfg)
        day_b = probability_time_series(cals, [market(m=1.0, horizon=30.0)], ev, cfg)
        assert day_a.to_dict() == day_b.to_dict()


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


def tile_draws(rng, cal, model, k):
    """One tile of ``k`` paths of a state's draws as arrays (intercept,
    slope, noise), in the order the model reads its stream."""
    if model == "gaussian":
        noise = cal.sigma_eps * rng.standard_normal(k)
        return np.full(k, cal.alpha), np.full(k, cal.beta), noise
    alpha = rng.normal(cal.alpha, simulation.SIGMA_ALPHA, k)
    beta = rng.normal(cal.beta, simulation.SIGMA_BETA, k)
    scale = np.abs(rng.normal(0.0, cal.sigma_eps, k))
    return alpha, beta, scale * rng.standard_t(simulation.NU, k)


def rebuilt_spreads(cals, markets, cfg):
    """Every state's spread on every path of each market, drawn straight
    from the Philox streams in the order the simulator consumes them: each
    state's stream one tile of ``simulation._TILE`` paths at a time."""
    n, model, tile = cfg.n_paths, cfg.noise_model, simulation._TILE
    z = _stream(cfg.seed, 0).standard_normal(n)
    ms = [mkt.m_current + mkt.sigma_total * np.sqrt(mkt.horizon) * z for mkt in markets]
    out = [{} for _ in markets]
    for i, state in enumerate(sorted(cals)):
        rng, cal = _stream(cfg.seed, 1 + i), cals[state]
        tiles = [tile_draws(rng, cal, model, min(tile, n - c)) for c in range(0, n, tile)]
        alpha, beta, noise = (np.concatenate(v) for v in zip(*tiles))
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
        assert paths.ev_histogram.shape == (len(DAYS), EV_BINS)
        assert (counts(paths, 3000).sum(axis=1) == 3000).all()
        for d, mkt in enumerate(DAYS):
            one = simulate_paths(cals, [mkt], ev, cfg)
            np.testing.assert_array_equal(paths.ev_histogram[d], one.ev_histogram[0])
            np.testing.assert_array_equal(paths.p_state[d], one.p_state[0])

    def test_time_series_matches_run_forecast(self, model, workers):
        ev = default_ev_table()
        cals = contested_cals(ev)
        cfg = SimulationConfig(seed=37, n_paths=3000, noise_model=model, workers=workers)
        series = probability_time_series(cals, DAYS, ev, cfg)
        assert ([series.to_dict(d) for d in range(len(DAYS))]
                == [run_forecast(cals, mkt, ev, cfg).to_dict() for mkt in DAYS])
        # p_national's one sum over the days' axis is each day's own sum
        assert (series.p_national.tolist()
                == [float(row[270:].sum()) for row in series.ev_histogram])
        assert all(0.05 < p < 0.95 for p in series.p_national)

    def test_oracle_reproduces_every_path(self, model, workers):
        ev = default_ev_table()
        cals = contested_cals(ev)
        cfg = SimulationConfig(seed=41, n_paths=300, noise_model=model, workers=workers)
        # put the threshold exactly on OH's spread on path 0 of day 1
        days = rebuilt_spreads(cals, DAYS, cfg)
        threshold = float(days[1]["OH"][0])
        cfg = replace(cfg, win_threshold=threshold)
        paths = simulate_paths(cals, DAYS, ev, cfg)
        path_ev = []
        for d, spreads in enumerate(days):
            path_ev.append([
                aggregate_electoral_votes({s: v[k] for s, v in spreads.items()}, ev, threshold)
                for k in range(cfg.n_paths)
            ])
            np.testing.assert_array_equal(counts(paths, cfg.n_paths)[d],
                                          np.bincount(path_ev[d], minlength=EV_BINS))
        # the tie went to candidate 2: one ulp lower hands OH to candidate 1,
        # so path 0 moves from bin k to bin k + ev["OH"] and no other path moves
        lower = replace(cfg, win_threshold=float(np.nextafter(threshold, -np.inf)))
        k = path_ev[1][0]
        expected = counts(paths, cfg.n_paths)[1]
        expected[k] -= 1
        expected[k + ev["OH"]] += 1
        np.testing.assert_array_equal(
            counts(simulate_paths(cals, [DAYS[1]], ev, lower), cfg.n_paths)[0], expected)


def assert_matches_oracle(cals, days, cfg):
    """Each day's EV on every path and win shares equal settling the
    oracle's spreads with a strict ``>``.  In the oracle a term that
    overflows is +-inf, and one that is undefined NaN."""
    ev = default_ev_table()
    with np.errstate(over="ignore", invalid="ignore"):
        spreads = rebuilt_spreads(cals, days, cfg)
    paths = simulate_paths(cals, days, ev, cfg)
    assert paths.ev_histogram.shape == (len(days), EV_BINS)
    for d in range(len(days)):
        won = {s: v > cfg.win_threshold for s, v in spreads[d].items()}
        expected = sum(ev[s] * w.astype(np.int64) for s, w in won.items())
        np.testing.assert_array_equal(counts(paths, cfg.n_paths)[d],
                                      np.bincount(expected, minlength=EV_BINS))
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


def test_market_memory_is_per_path(monkeypatch):
    # The paths are settled a tile at a time: each worker's EV table (int16,
    # one tile of paths x days) is the only array as large as a tile times
    # the days, and a float64 one of that size would be 60 tiles.  With 60
    # days, 20,000 paths in tiles of MEMORY_TILE trace 36.6 tiles, 7.9 of
    # them the per-day count tables (60 x 539 int64); a table of every
    # path's votes (73 tiles as int16) goes past the bound.
    monkeypatch.setattr(simulation, "_TILE", MEMORY_TILE)
    ev = default_ev_table()
    n_paths, n_days = 20_000, 60
    days = [market(m=-1.0 + 0.05 * d, horizon=float(n_days - d)) for d in range(n_days)]
    peak = traced_peak(contested_cals(ev), days, ev, SimulationConfig(seed=71, n_paths=n_paths))
    assert peak < MEMORY_TILE * n_days


def traced_peak(cals, days, ev, cfg) -> float:
    """The traced peak of one ``simulate_paths`` call, in floats of 8 bytes."""
    # warm-up: numpy.random imports on first use, and the pool starts once
    simulate_paths(cals, days, ev, replace(cfg, n_paths=7))
    tracemalloc.start()
    try:
        simulate_paths(cals, days, ev, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / np.dtype(np.float64).itemsize


# The memory plans below are checked with tiles of 4,096 paths, which keeps
# each run short, over 8 tiles and 7 paths: a run that held the market, an
# EV table or a state's draws for every path at once would hold 8 tiles of
# each.
MEMORY_TILE = 1 << 12
MEMORY_PATHS = 8 * MEMORY_TILE + 7


@pytest.mark.parametrize("workers", [1, 2])
def test_a_worker_holds_one_states_draws(workers, monkeypatch):
    # The paths are settled one tile at a time, and each worker fills the
    # same draw and settle buffers on every tile.  In floats of 8 bytes,
    # with one day and Student-T noise, the traced peak is at most:
    #   the market tile, shared by the workers:                   _TILE
    #   a day's votes as intp, while the calling thread counts
    #     them:                                                   _TILE
    #   per worker, its int16 EV tile:                            1/4 _TILE
    #   per worker, one tile of draws (intercept, slope and
    #     noise) and one block of t while the noise is formed:    3 _TILE + _BLOCK
    #   per worker, the one-day settle tiles (lo, and 4 bytes of
    #     bool, bool and int16 for each of its elements):         3/2 _TILE
    #   per worker, the interpreter's own objects (thread
    #     states, frames) and numpy's buffers:                    < 4,096
    # Measured at _TILE 4,096, 16,384 and 65,536, the peak is at most these
    # tile terms plus 2,130 floats with one worker and 3,400 with two.  A
    # market, an EV table or a state's draws of all n paths (8 tiles each)
    # goes past the bound.
    monkeypatch.setattr(simulation, "_TILE", MEMORY_TILE)
    ev = default_ev_table()
    tile, block = MEMORY_TILE, simulation._BLOCK
    cfg = SimulationConfig(seed=71, n_paths=MEMORY_PATHS, noise_model="student_t",
                           workers=workers)
    peak = traced_peak(contested_cals(ev), [market()], ev, cfg)
    assert peak <= 2 * tile + workers * (19 / 4 * tile + block + 4096)


# The series plan below, in floats of 8 bytes, as a function of the tile.
def series_bound(workers, tile, block):
    """The traced peak of a Student-T series of 4 days is at most:
      the market tile and each path's lowest and highest market,
        shared by the workers:                                    3 _TILE
      one tile of rows of day levels, shared:                     _TILE
      a day's votes as intp, while the calling thread counts
        them:                                                     _TILE
      per worker, its int16 EV tile and base votes:               5/4 _TILE
      per worker, one tile of draws and one block of t:           3 _TILE + _BLOCK
      per worker, the settle tiles (lo, hi and x, and bool
        and int16 ones of 4 and 3 bytes an element):              31/8 _TILE
      per worker, the screen's temporaries: a bool mask, then the
        undecided paths' indices (intp), found a quarter of the
        tile at a time when more are undecided, into hi:          1/2 _TILE
      per worker, what does not grow with the tile (numpy's
        buffers, the interpreter's own objects, and a share of the
        count tables, days x 539 int64):                          < 16,384
    """
    return 5 * tile + workers * ((5 / 4 + 3 + 31 / 8 + 1 / 2) * tile + block + 16384)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_series_worker_holds_one_tile_of_draws(workers, monkeypatch):
    # Measured at _TILE 4,096 and 16,384, the peak less the tile terms of
    # series_bound is at most 6,900 floats with one worker and 10,200 with
    # two.  A market range or an EV table of all n paths (8 tiles each)
    # goes past the bound.
    monkeypatch.setattr(simulation, "_TILE", MEMORY_TILE)
    ev = default_ev_table()
    cfg = SimulationConfig(seed=71, n_paths=MEMORY_PATHS, noise_model="student_t",
                           workers=workers)
    peak = traced_peak(contested_cals(ev), DAYS, ev, cfg)
    assert len(DAYS) == 4 and peak <= series_bound(workers, MEMORY_TILE, simulation._BLOCK)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_traced_peak_does_not_grow_with_the_paths(workers, monkeypatch):
    # The same 4-day Student-T series at 8 and at 32 tiles and 7 paths
    # traces the same peak, to within one tile.  Measured, the slack covers
    # CPython's free lists, which tracemalloc counts as held (the 24 more
    # tiles added 226 floats with one worker), and, with two workers, where
    # the threads' temporaries meet (runs of one size moved the peak by up
    # to 1,430 floats).  A market range or an EV table of all n paths grows
    # by 24 tiles each.
    monkeypatch.setattr(simulation, "_TILE", MEMORY_TILE)
    ev, cals = default_ev_table(), contested_cals(default_ev_table())
    peaks = [traced_peak(cals, DAYS, ev, SimulationConfig(
        seed=71, n_paths=k * MEMORY_TILE + 7, noise_model="student_t", workers=workers))
        for k in (8, 32)]
    assert abs(peaks[1] - peaks[0]) <= MEMORY_TILE, peaks


@pytest.mark.parametrize("workers", [1, 2])
def test_the_settle_temporaries_do_not_grow_with_the_tile(workers, monkeypatch):
    # The same 4-day Student-T series, 8 tiles and 7 paths, at _TILE 4,096
    # and 16,384: the traced peak less the tile terms of series_bound does
    # not grow.  Each worker gathers the undecided paths into buffers it
    # made once, so what is left beyond the tile terms is what does not
    # depend on the tile.  The slack is where the threads' temporaries meet,
    # which moved a peak by up to 1,430 floats between runs of one size
    # (above), rounded up to 2,048.  A settle that gathers each state's
    # undecided intercepts, slopes and noise into fresh arrays grows by
    # about 9,600 floats with two workers.
    ev, cals = default_ev_table(), contested_cals(default_ev_table())
    excess = []
    for tile in (MEMORY_TILE, 4 * MEMORY_TILE):
        monkeypatch.setattr(simulation, "_TILE", tile)
        cfg = SimulationConfig(seed=71, n_paths=8 * tile + 7, noise_model="student_t",
                               workers=workers)
        terms = series_bound(workers, tile, simulation._BLOCK) - workers * 16384
        excess.append(traced_peak(cals, DAYS, ev, cfg) - terms)
    assert excess[1] <= excess[0] + 2048, excess


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
        # Student-T line at m is +-inf, and the flat Gaussian line (PA,
        # slope 0.0) is 0 * inf = NaN on every path, which never wins.
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


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, -2.5])


@pytest.mark.parametrize("case", ["random", "specials"])
def test_levels_are_the_outer_product_plus_the_level(case):
    if case == "random":
        rng = np.random.default_rng(83)
        z, sig, mc = rng.standard_normal(301), rng.uniform(0.0, 9.0, 17), rng.normal(0.0, 3.0, 17)
    else:
        z = sig = mc = SPECIALS
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.add(np.multiply.outer(z, sig), mc)
        got = simulation._levels(z, sig, mc, out=np.empty_like(expected))
        one_day = simulation._levels(z.copy(), sig[3], mc[3], out=np.empty_like(z))
    # equal values, NaN in the same cells; only a zero may change its sign
    np.testing.assert_array_equal(got, expected)
    assert (expected[np.signbit(got) != np.signbit(expected)] == 0.0).all()
    np.testing.assert_array_equal(one_day, expected[:, 3])


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("model", NOISE_MODELS)
@pytest.mark.parametrize("threshold", [0.0, -0.0])
def test_zero_scales_and_signed_zero_levels_match_the_oracle(model, workers, threshold):
    # a day of horizon 0 has scale 0, so z * 0 is -0.0 on the paths of z < 0,
    # which _levels may make +0.0; at a level of -0.0 that sign reaches the
    # market, and OH's spread is its market plus a zero noise
    cals = screen_cals(default_ev_table())
    cals["OH"] = StateCalibration("OH", 0.0, 1.0, 0.0, 8, "polls")
    days = [market(m=-0.0, horizon=0.0), market(m=0.0, horizon=0.0),
            market(m=-0.0, horizon=4.0), market(m=0.5, horizon=1.0)]
    cfg = SimulationConfig(seed=89, n_paths=SCREEN_PATHS, noise_model=model, workers=workers,
                           win_threshold=threshold)
    assert_matches_oracle(cals, days, cfg)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("key", ["beta", "sigma_eps", "sigma_m"])
def test_overflowing_calibration_samples_quietly(key, workers):
    # test_cli's overflowing calibrations through the Gaussian Monte Carlo,
    # which a Gaussian forecast no longer runs: a slope, noise scale or
    # market volatility of 1e308 gives +-inf and NaN spreads, and neither
    # is a warning, in the main thread or a worker's
    doc = json.loads(FIXTURE_CALIBRATION.read_text())
    for block in [doc["market"]] if key == "sigma_m" else doc["states"].values():
        block[key] = 1e308
    cals, mkt = calibration_from_dict(doc)
    cfg = SimulationConfig(seed=5, n_paths=500, workers=workers)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        paths = simulate_paths(cals, [mkt], default_ev_table(), cfg)
    assert not caught, [str(w.message) for w in caught]
    assert counts(paths, 500).sum() == 500 and not np.isnan(paths.p_state).any()


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
    np.testing.assert_array_equal(alt.ev_histogram, base.ev_histogram)
    np.testing.assert_array_equal(alt.p_state, base.p_state)


STATES = sorted(default_ev_table())


def draw_threads(monkeypatch, fail_on=None):
    """Record the thread that draws each state, by its index in the sorted
    states; a draw of the state ``fail_on`` raises."""
    threads = {}
    draw = simulation.sample_state_noise

    def recorded(cal, *args, **kwargs):
        threads[STATES.index(cal.state)] = threading.get_ident()
        if cal.state == fail_on:
            raise RuntimeError(f"draw of {cal.state} failed")
        return draw(cal, *args, **kwargs)

    monkeypatch.setattr(simulation, "sample_state_noise", recorded)
    return threads


@pytest.mark.parametrize("days", [DAYS, DAYS[:1]], ids=["series", "one_day"])
def test_the_calling_thread_settles_the_first_chunk(monkeypatch, days):
    # k workers: the calling thread settles states 0, k, 2k, ... and the
    # other k - 1 chunks run on at most k - 1 pool threads, joined on return
    ev = default_ev_table()
    cals = contested_cals(ev)
    cfg = SimulationConfig(seed=43, n_paths=500, noise_model="student_t")
    base = simulate_paths(cals, days, ev, cfg)
    caller, running = threading.get_ident(), threading.active_count()
    threads = draw_threads(monkeypatch)
    one = simulate_paths(cals, days, ev, cfg)
    assert sorted(threads) == list(range(len(STATES)))
    assert set(threads.values()) == {caller}
    assert threading.active_count() == running
    threads.clear()
    three = simulate_paths(cals, days, ev, replace(cfg, workers=3))
    assert sorted(threads) == list(range(len(STATES)))
    assert all((threads[i] == caller) == (i % 3 == 0) for i in threads)
    assert len(set(threads.values()) - {caller}) <= 2
    assert threading.active_count() == running
    for paths in (one, three):
        np.testing.assert_array_equal(paths.ev_histogram, base.ev_histogram)
        np.testing.assert_array_equal(paths.p_state, base.p_state)


def test_a_failed_draw_on_the_calling_thread_reaches_the_caller(monkeypatch):
    ev = default_ev_table()
    running = threading.active_count()
    draw_threads(monkeypatch, fail_on=STATES[0])
    cfg = SimulationConfig(seed=43, n_paths=500, workers=3)
    with pytest.raises(RuntimeError, match=f"draw of {STATES[0]} failed"):
        simulate_paths(contested_cals(ev), DAYS, ev, cfg)
    assert threading.active_count() == running


class TestConfigValidation:
    def test_bad_paths(self):
        with pytest.raises(ValueError):
            SimulationConfig(seed=1, n_paths=0)
        with pytest.raises(ValueError, match=r"^n_paths must be in 1\.\.2\*\*53"):
            SimulationConfig(seed=1, n_paths=MAX_PATHS + 1)
        assert SimulationConfig(seed=1, n_paths=MAX_PATHS).n_paths == 2**53

    def test_only_sampling_requires_a_seed(self):
        # a Gaussian forecast is computed and reads no seed; simulate_paths
        # samples, under either noise model
        cals, mkt = calibration_from_dict(json.loads(FIXTURE_CALIBRATION.read_text()))
        ev = default_ev_table()
        assert SimulationConfig().seed is None
        assert run_forecast(cals, mkt, ev, SimulationConfig()).ev_histogram.shape == (1, EV_BINS)
        for model in NOISE_MODELS:
            cfg = SimulationConfig(n_paths=10, noise_model=model)
            with pytest.raises(ConfigurationError, match="^a sampled run needs a seed$"):
                simulate_paths(cals, [mkt], ev, cfg)
        with pytest.raises(ConfigurationError, match="^a sampled run needs a seed$"):
            run_forecast(cals, mkt, ev, SimulationConfig(noise_model="student_t"))

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
        ("workers", 0, ValueError),
        ("workers", True, TypeError),
        ("win_threshold", float("nan"), ValueError),
        ("win_threshold", float("inf"), ValueError),
        ("win_threshold", "0", ValueError),
        ("noise_model", "t", ValueError),
    ])
    def test_simulation_config_names_a_bad_field(self, name, value, error):
        with pytest.raises(error, match=f"^{name} "):
            SimulationConfig(seed=1, **{name: value})
