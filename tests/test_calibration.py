"""State/market calibration against closed-form OLS and volatility oracles."""

import io
import math
from datetime import date

import numpy as np
import pytest

from statecast.calibration import (
    SOURCE_HISTORICAL,
    SOURCE_POLLS,
    MarketCalibration,
    StateCalibration,
    calibrate_from_historical,
    calibrate_market,
    calibrate_state,
    calibrate_states,
    calibration_from_dict,
    calibration_to_dict,
)
from statecast.errors import (
    CalibrationError,
    ConfigurationError,
    DegenerateDesignError,
    InsufficientDataError,
)
from statecast.ingest import (
    HistoricalResult,
    SmoothedSeries,
    SpreadObservation,
    parse_polls,
)
from statecast.states import STATE_CODES

# States that had too few 2016 polls and must take the historical route.
DATA_POOR = ["AL", "AK", "HI", "KY", "MT", "NE", "ND", "OK",
             "SD", "TN", "WV", "WY", "DC"]


def identity_series(ts):
    """Smoothed series whose value at day t is exactly t."""
    ts = np.asarray(ts, dtype=float)
    return SmoothedSeries(grid=ts, values=ts, bandwidth=5.0)


def state_obs(state, points):
    return [SpreadObservation(state, t, s, 500) for t, s in points]


def ols_oracle(x, y):
    """Normal-equation fit, independent of the library implementation."""
    X = np.column_stack([np.ones_like(x), x])
    coef = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ coef
    dof = len(x) - 2
    sigma = math.sqrt(float(resid @ resid) / dof) if dof > 0 else 0.0
    return coef[0], coef[1], sigma


class TestCalibrateState:
    def test_exact_double_of_national(self):
        nat = identity_series([0, 1, 2, 3, 4])
        cal = calibrate_state(state_obs("OH", [(t, 2.0 * t) for t in range(5)]), nat)
        assert cal.alpha == pytest.approx(0.0, abs=1e-12)
        assert cal.beta == pytest.approx(2.0, abs=1e-12)
        assert cal.sigma_eps == pytest.approx(0.0, abs=1e-12)
        assert cal.source == SOURCE_POLLS and cal.n_obs == 5

    def test_flat_response(self):
        nat = identity_series([0, 1, 2, 3])
        cal = calibrate_state(state_obs("PA", [(t, 7.0) for t in range(4)]), nat)
        assert cal.alpha == pytest.approx(7.0, abs=1e-12)
        assert cal.beta == pytest.approx(0.0, abs=1e-12)

    def test_four_point_hand_fit(self):
        # (M, S) = (0,1),(1,3),(2,5),(3,8): beta = cov/var = 11.5/5 = 2.3
        nat = identity_series([0, 1, 2, 3])
        cal = calibrate_state(state_obs("FL", [(0, 1.0), (1, 3.0), (2, 5.0), (3, 8.0)]), nat)
        assert cal.beta == pytest.approx(2.3, abs=1e-12)
        assert cal.alpha == pytest.approx(0.8, abs=1e-12)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(11)
        ts = np.arange(12.0)
        nat_vals = rng.normal(1.0, 4.0, 12)
        nat = SmoothedSeries(grid=ts, values=nat_vals, bandwidth=5.0)
        spreads = 1.4 + 0.8 * nat_vals + rng.normal(0, 0.5, 12)
        cal = calibrate_state(state_obs("NC", list(zip(ts, spreads))), nat)
        a, b, s = ols_oracle(nat_vals, spreads)
        assert cal.alpha == pytest.approx(a, abs=1e-10)
        assert cal.beta == pytest.approx(b, abs=1e-10)
        assert cal.sigma_eps == pytest.approx(s, abs=1e-10)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(5)
        ts = np.arange(9.0)
        nat = SmoothedSeries(grid=ts, values=rng.normal(0, 3, 9), bandwidth=5.0)
        cal = calibrate_state(
            state_obs("MI", [(t, -1.25 + 0.6 * v) for t, v in zip(ts, nat.values)]), nat
        )
        assert cal.alpha == pytest.approx(-1.25, abs=1e-10)
        assert cal.beta == pytest.approx(0.6, abs=1e-10)

    def test_residuals_orthogonal_to_regressor(self):
        rng = np.random.default_rng(6)
        ts = np.arange(20.0)
        nat = SmoothedSeries(grid=ts, values=rng.normal(0, 5, 20), bandwidth=5.0)
        spreads = 2.0 + 1.1 * nat.values + rng.normal(0, 2, 20)
        cal = calibrate_state(state_obs("WI", list(zip(ts, spreads))), nat)
        resid = spreads - (cal.alpha + cal.beta * nat.values)
        scale = max(np.abs(spreads).max(), 1.0)
        assert abs(float(resid @ nat.values)) <= 1e-8 * len(ts) * scale

    def test_beta_invariant_under_spread_shift(self):
        rng = np.random.default_rng(7)
        ts = np.arange(10.0)
        nat = SmoothedSeries(grid=ts, values=rng.normal(0, 3, 10), bandwidth=5.0)
        spreads = 0.5 * nat.values + rng.normal(0, 1, 10)
        base = calibrate_state(state_obs("VA", list(zip(ts, spreads))), nat)
        shifted = calibrate_state(state_obs("VA", list(zip(ts, spreads + 4.0))), nat)
        assert shifted.beta == pytest.approx(base.beta, abs=1e-12)
        assert shifted.alpha == pytest.approx(base.alpha + 4.0, abs=1e-10)

    def test_too_few_polls(self):
        nat = identity_series([0, 1, 2])
        with pytest.raises(InsufficientDataError):
            calibrate_state(state_obs("IA", [(0, 1.0), (1, 2.0), (2, 3.0)]), nat)

    def test_constant_national_is_degenerate(self):
        nat = SmoothedSeries(grid=[0, 1, 2, 3], values=[2.0] * 4, bandwidth=5.0)
        with pytest.raises(DegenerateDesignError):
            calibrate_state(state_obs("CO", [(t, float(t)) for t in range(4)]), nat)


class TestCalibrateFromHistorical:
    def test_two_rows_exact_line(self):
        rows = [
            HistoricalResult(2008, "UT", -10.0, 7.0),
            HistoricalResult(2012, "UT", -20.0, 4.0),
        ]
        cal = calibrate_from_historical("UT", rows)
        assert cal.sigma_eps == 0.0
        assert cal.source == SOURCE_HISTORICAL and cal.n_obs == 2

    def test_matches_oracle_on_eleven_elections(self):
        rng = np.random.default_rng(13)
        national = rng.normal(2.0, 6.0, 11)
        spreads = -3.0 + 1.2 * national + rng.normal(0, 1.5, 11)
        rows = [
            HistoricalResult(1976 + 4 * i, "KY", spreads[i], national[i])
            for i in range(11)
        ]
        cal = calibrate_from_historical("KY", rows)
        a, b, s = ols_oracle(national, spreads)
        assert cal.alpha == pytest.approx(a, abs=1e-10)
        assert cal.beta == pytest.approx(b, abs=1e-10)
        assert cal.sigma_eps == pytest.approx(s, abs=1e-10)

    def test_single_row_insufficient(self):
        with pytest.raises(InsufficientDataError):
            calibrate_from_historical("WY", [HistoricalResult(2012, "WY", -40.0, 4.0)])

    def test_constant_national_degenerate(self):
        rows = [HistoricalResult(2008, "ID", -20.0, 3.0),
                HistoricalResult(2012, "ID", -25.0, 3.0)]
        with pytest.raises(DegenerateDesignError):
            calibrate_from_historical("ID", rows)

    def test_other_states_rows_ignored(self):
        rows = [HistoricalResult(2008, "MT", -2.0, 7.0),
                HistoricalResult(2012, "MT", -13.0, 4.0),
                HistoricalResult(2012, "CA", 23.0, 4.0)]
        cal = calibrate_from_historical("MT", rows)
        assert cal.n_obs == 2


class TestCalibrateStates:
    def _historical(self):
        rows = []
        for state in sorted(STATE_CODES):
            for i, nat in enumerate([2.06, -9.74, 9.74]):
                rows.append(HistoricalResult(1976 + 4 * i, state, 1.0 + 0.9 * nat, nat))
        return rows

    def test_data_poor_states_route_to_historical(self):
        ts = np.arange(30.0)
        nat = SmoothedSeries(grid=ts, values=2.0 + 0.05 * ts, bandwidth=5.0)
        obs = []
        for state in sorted(STATE_CODES):
            if state in DATA_POOR:
                continue  # no polls at all for these
            obs.extend(state_obs(state, [(t, 1.0 + 0.9 * nat.values_at(t)[0]) for t in range(6)]))
        cals = calibrate_states(obs, nat, self._historical(), states=STATE_CODES)
        assert len(cals) == 51
        for state in DATA_POOR:
            assert cals[state].source == SOURCE_HISTORICAL
        assert cals["OH"].source == SOURCE_POLLS

    def test_unresolvable_state_names_it(self):
        nat = identity_series(np.arange(6.0))
        with pytest.raises(CalibrationError, match="WY"):
            calibrate_states([], nat, [], states=["WY"])


class TestCalibrateMarket:
    def test_constant_series_zero_sigma_m(self):
        nat = SmoothedSeries(grid=np.arange(10.0), values=np.full(10, 3.0), bandwidth=5.0)
        mkt = calibrate_market(nat)
        assert mkt.sigma_m == 0.0
        assert mkt.m_current == 3.0
        assert mkt.horizon == 0.0

    def test_alternating_increments_sample_std(self):
        # 11 grid points, values 0,1,0,1,... -> 10 increments of +-1,
        # sample std sqrt(n/(n-1)) with n = 10
        values = np.array([float(i % 2) for i in range(11)])
        nat = SmoothedSeries(grid=np.arange(11.0), values=values, bandwidth=5.0)
        mkt = calibrate_market(nat)
        assert mkt.sigma_m == pytest.approx(math.sqrt(10.0 / 9.0), abs=1e-12)

    def test_single_poll_sampling_error(self):
        # p = 0.5, n = 400 -> 2*sqrt(0.25/400)*100 = 5.0 points
        polls = parse_polls(
            io.StringIO(
                "pollster,state,date,sample_size,sample_type,pct_c1,pct_c2\n"
                "A,US,2016-10-01,400,LV,45,45\n"
            ),
            date(2016, 11, 8),
        ).records
        nat = SmoothedSeries(grid=[0.0, 1.0], values=[0.0, 0.0], bandwidth=5.0)
        mkt = calibrate_market(nat, polls)
        assert mkt.sigma_samp == pytest.approx(5.0, abs=1e-12)

    def test_sigma_samp_override(self):
        nat = SmoothedSeries(grid=[0.0, 1.0], values=[1.0, 2.0], bandwidth=5.0)
        assert calibrate_market(nat, sigma_samp=0.75).sigma_samp == 0.75

    def test_current_level_is_latest_grid_point(self):
        nat = SmoothedSeries(grid=[3.0, 4.0, 5.0], values=[1.5, 2.0, 2.5], bandwidth=5.0)
        mkt = calibrate_market(nat)
        assert mkt.m_current == 1.5  # day closest to the election
        assert mkt.horizon == 3.0

    def test_too_few_grid_points(self):
        nat = SmoothedSeries(grid=[5.0], values=[1.0], bandwidth=5.0)
        with pytest.raises(InsufficientDataError):
            calibrate_market(nat)

    def test_nonuniform_grid_scaled_per_day(self):
        # values t on grid spacing 4: increments 4/sqrt(4) = 2 per sqrt(day)
        nat = SmoothedSeries(grid=[0.0, 4.0, 8.0, 12.0], values=[0.0, 4.0, 8.0, 12.0],
                             bandwidth=5.0)
        assert calibrate_market(nat).sigma_m == pytest.approx(0.0, abs=1e-12)
        nat2 = SmoothedSeries(grid=[0.0, 4.0, 8.0], values=[0.0, 4.0, 0.0], bandwidth=5.0)
        # scaled increments +2, -2 -> sample std sqrt(2)*2/sqrt(2)... direct oracle:
        scaled = np.diff(nat2.values) / np.sqrt(np.diff(nat2.grid))
        assert calibrate_market(nat2).sigma_m == pytest.approx(np.std(scaled, ddof=1), abs=1e-12)


class TestCalibrationDocument:
    def test_round_trip(self):
        cals = {
            "OH": StateCalibration("OH", 1.0, 0.9, 2.0, 8, SOURCE_POLLS),
            "WY": StateCalibration("WY", -30.0, 1.2, 3.0, 10, SOURCE_HISTORICAL),
        }
        mkt = MarketCalibration(sigma_samp=1.0, sigma_m=0.4, m_current=2.5, horizon=20.0)
        doc = calibration_to_dict(cals, mkt)
        assert set(doc["states"]) == {"OH", "WY"}
        assert doc["states"]["OH"] == {
            "state": "OH", "alpha": 1.0, "beta": 0.9, "sigma_eps": 2.0,
            "n_obs": 8, "source": SOURCE_POLLS,
        }
        cals2, mkt2 = calibration_from_dict(doc)
        assert cals2 == cals
        assert mkt2 == mkt

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "1.0", None, True])
    @pytest.mark.parametrize("name", ["alpha", "beta", "sigma_eps"])
    def test_state_rejects_non_finite(self, name, bad):
        fields = dict(state="OH", alpha=1.0, beta=0.9, sigma_eps=2.0, n_obs=8,
                      source=SOURCE_POLLS)
        fields[name] = bad
        with pytest.raises(ValueError, match=name):
            StateCalibration(**fields)

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), "2", None])
    @pytest.mark.parametrize("name", ["sigma_samp", "sigma_m", "m_current", "horizon"])
    def test_market_rejects_non_finite(self, name, bad):
        fields = dict(sigma_samp=1.0, sigma_m=0.4, m_current=2.5, horizon=20.0)
        fields[name] = bad
        with pytest.raises(ValueError, match=name):
            MarketCalibration(**fields)

    def test_n_obs_must_be_a_count(self):
        for bad in (8.0, -1, True):
            with pytest.raises(ValueError, match="n_obs"):
                StateCalibration("OH", 1.0, 0.9, 2.0, bad, SOURCE_POLLS)

    def test_document_key_faults_name_the_state(self):
        cals = {"OH": StateCalibration("OH", 1.0, 0.9, 2.0, 8, SOURCE_POLLS)}
        mkt = MarketCalibration(sigma_samp=1.0, sigma_m=0.4, m_current=2.5, horizon=20.0)
        doc = calibration_to_dict(cals, mkt)
        doc["states"]["OH"]["colour"] = "red"
        with pytest.raises(ConfigurationError, match="OH.*colour"):
            calibration_from_dict(doc)
        del doc["states"]["OH"]["colour"], doc["states"]["OH"]["alpha"]
        with pytest.raises(ConfigurationError, match="OH.*alpha"):
            calibration_from_dict(doc)
        doc = calibration_to_dict(cals, mkt)
        doc["states"]["OH"]["sigma_eps"] = float("nan")
        with pytest.raises(ConfigurationError, match="OH.*sigma_eps"):
            calibration_from_dict(doc)
        doc = calibration_to_dict(cals, mkt)
        del doc["market"]["horizon"]
        with pytest.raises(ConfigurationError, match="market.*horizon"):
            calibration_from_dict(doc)
