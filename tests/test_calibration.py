"""State/market calibration against closed-form OLS and volatility oracles."""

import io
import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    Polls,
    SmoothedSeries,
    load_historical,
    parse_polls,
    smooth_national,
)
from statecast.states import NATIONAL, STATE_CODES

# States that had too few 2016 polls and must take the historical route.
DATA_POOR = ["AL", "AK", "HI", "KY", "MT", "NE", "ND", "OK",
             "SD", "TN", "WV", "WY", "DC"]


def identity_series(ts):
    """Smoothed series whose value at day t is exactly t."""
    ts = np.asarray(ts, dtype=float)
    return SmoothedSeries(grid=ts, values=ts)


def state_obs(points):
    """(t, spreads) arrays of one state's (t, spread) points."""
    t, spreads = zip(*points)
    return np.array(t, dtype=float), np.array(spreads, dtype=float)


#: A poll table with no rows: calibrate_market then has no sampling error.
NO_POLLS = Polls([], [], [], [], [])


def poll_table(states, ts, spreads):
    """Polls whose spreads are ``spreads`` exactly: pct_c1 = spread, pct_c2 = 0."""
    n = len(states)
    return Polls(states, ts, spreads, np.zeros(n), np.full(n, 500))


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
        cal = calibrate_state("OH", *state_obs([(t, 2.0 * t) for t in range(5)]), nat)
        assert cal.alpha == pytest.approx(0.0, abs=1e-12)
        assert cal.beta == pytest.approx(2.0, abs=1e-12)
        assert cal.sigma_eps == pytest.approx(0.0, abs=1e-12)
        assert cal.source == SOURCE_POLLS and cal.n_obs == 5

    def test_flat_response(self):
        nat = identity_series([0, 1, 2, 3])
        cal = calibrate_state("PA", *state_obs([(t, 7.0) for t in range(4)]), nat)
        assert cal.alpha == pytest.approx(7.0, abs=1e-12)
        assert cal.beta == pytest.approx(0.0, abs=1e-12)

    def test_four_point_hand_fit(self):
        # (M, S) = (0,1),(1,3),(2,5),(3,8): beta = cov/var = 11.5/5 = 2.3
        nat = identity_series([0, 1, 2, 3])
        cal = calibrate_state("FL", *state_obs([(0, 1.0), (1, 3.0), (2, 5.0), (3, 8.0)]), nat)
        assert cal.beta == pytest.approx(2.3, abs=1e-12)
        assert cal.alpha == pytest.approx(0.8, abs=1e-12)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(11)
        ts = np.arange(12.0)
        nat_vals = rng.normal(1.0, 4.0, 12)
        nat = SmoothedSeries(grid=ts, values=nat_vals)
        spreads = 1.4 + 0.8 * nat_vals + rng.normal(0, 0.5, 12)
        cal = calibrate_state("NC", ts, spreads, nat)
        a, b, s = ols_oracle(nat_vals, spreads)
        assert cal.alpha == pytest.approx(a, abs=1e-10)
        assert cal.beta == pytest.approx(b, abs=1e-10)
        assert cal.sigma_eps == pytest.approx(s, abs=1e-10)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(5)
        ts = np.arange(9.0)
        nat = SmoothedSeries(grid=ts, values=rng.normal(0, 3, 9))
        cal = calibrate_state("MI", ts, -1.25 + 0.6 * nat.values, nat)
        assert cal.alpha == pytest.approx(-1.25, abs=1e-10)
        assert cal.beta == pytest.approx(0.6, abs=1e-10)

    def test_residuals_orthogonal_to_regressor(self):
        rng = np.random.default_rng(6)
        ts = np.arange(20.0)
        nat = SmoothedSeries(grid=ts, values=rng.normal(0, 5, 20))
        spreads = 2.0 + 1.1 * nat.values + rng.normal(0, 2, 20)
        cal = calibrate_state("WI", ts, spreads, nat)
        resid = spreads - (cal.alpha + cal.beta * nat.values)
        scale = max(np.abs(spreads).max(), 1.0)
        assert abs(float(resid @ nat.values)) <= 1e-8 * len(ts) * scale

    def test_beta_invariant_under_spread_shift(self):
        rng = np.random.default_rng(7)
        ts = np.arange(10.0)
        nat = SmoothedSeries(grid=ts, values=rng.normal(0, 3, 10))
        spreads = 0.5 * nat.values + rng.normal(0, 1, 10)
        base = calibrate_state("VA", ts, spreads, nat)
        shifted = calibrate_state("VA", ts, spreads + 4.0, nat)
        assert shifted.beta == pytest.approx(base.beta, abs=1e-12)
        assert shifted.alpha == pytest.approx(base.alpha + 4.0, abs=1e-10)

    def test_too_few_polls(self):
        nat = identity_series([0, 1, 2])
        with pytest.raises(InsufficientDataError):
            calibrate_state("IA", *state_obs([(0, 1.0), (1, 2.0), (2, 3.0)]), nat)

    def test_unequal_lengths_are_rejected(self):
        nat = identity_series([0, 1, 2, 3])
        with pytest.raises(ValueError, match="same length"):
            calibrate_state("CO", [0.0, 1.0, 2.0, 3.0], [1.0], nat)

    def test_constant_national_is_degenerate(self):
        nat = SmoothedSeries(grid=[0, 1, 2, 3], values=[2.0] * 4)
        with pytest.raises(DegenerateDesignError):
            calibrate_state("CO", *state_obs([(t, float(t)) for t in range(4)]), nat)


class TestCalibrateFromHistorical:
    def test_two_rows_exact_line(self):
        cal = calibrate_from_historical("UT", np.array([7.0, 4.0]), np.array([-10.0, -20.0]))
        assert cal.sigma_eps == 0.0
        assert cal.source == SOURCE_HISTORICAL and cal.n_obs == 2

    def test_matches_oracle_on_eleven_elections(self):
        rng = np.random.default_rng(13)
        national = rng.normal(2.0, 6.0, 11)
        spreads = -3.0 + 1.2 * national + rng.normal(0, 1.5, 11)
        cal = calibrate_from_historical("KY", national, spreads)
        a, b, s = ols_oracle(national, spreads)
        assert cal.alpha == pytest.approx(a, abs=1e-10)
        assert cal.beta == pytest.approx(b, abs=1e-10)
        assert cal.sigma_eps == pytest.approx(s, abs=1e-10)

    def test_single_row_insufficient(self):
        with pytest.raises(InsufficientDataError):
            calibrate_from_historical("WY", np.array([4.0]), np.array([-40.0]))

    def test_constant_national_degenerate(self):
        with pytest.raises(DegenerateDesignError):
            calibrate_from_historical("ID", np.array([3.0, 3.0]), np.array([-20.0, -25.0]))

    def test_mismatched_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            calibrate_from_historical("ID", np.array([3.0, 4.0]), np.array([-20.0]))

    def test_other_states_rows_ignored(self):
        # the reader gives each state its own rows
        historical = load_historical(io.StringIO(
            "year,state,state_spread,national_spread\n"
            "2008,MT,-2.0,7.0\n2012,CA,23.0,4.0\n2012,MT,-13.0,4.0\n")).records
        cal = calibrate_from_historical("MT", *historical["MT"])
        assert cal.n_obs == 2
        assert cal == calibrate_from_historical("MT", [7.0, 4.0], [-2.0, -13.0])


class TestCalibrateStates:
    def _historical(self):
        nat = np.array([2.06, -9.74, 9.74])
        return {state: (nat, 1.0 + 0.9 * nat) for state in STATE_CODES}

    def test_data_poor_states_route_to_historical(self):
        ts = np.arange(30.0)
        nat = SmoothedSeries(grid=ts, values=2.0 + 0.05 * ts)
        polled = sorted(STATE_CODES - set(DATA_POOR))  # no polls at all for DATA_POOR
        ts = np.tile(np.arange(6.0), len(polled))
        polls = poll_table(np.repeat(polled, 6), ts, 1.0 + 0.9 * nat.values_at(ts))
        cals = calibrate_states(polls, nat, self._historical(), states=STATE_CODES)
        assert len(cals) == 51
        for state in DATA_POOR:
            assert cals[state].source == SOURCE_HISTORICAL
        assert cals["OH"].source == SOURCE_POLLS

    def test_unresolvable_state_names_it(self):
        nat = identity_series(np.arange(6.0))
        with pytest.raises(CalibrationError, match="WY"):
            calibrate_states(poll_table([], [], []), nat, {}, states=["WY"])

    def test_degenerate_polls_name_their_own_reason(self):
        # 5 OH polls, all on one day: the matched national value is constant
        nat = identity_series(np.arange(6.0))
        polls = poll_table(["OH"] * 5 + [NATIONAL] * 3, [2.0] * 5 + [0.0, 1.0, 2.0],
                           [1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 1.0, 2.0])
        with pytest.raises(CalibrationError) as exc:
            calibrate_states(polls, nat, {}, states=["OH"])
        assert str(exc.value) == (
            "state OH cannot be calibrated: no poll fit (regressor is constant; slope "
            "unidentifiable) and no historical fallback (OH: 0 historical row(s), "
            "need at least 2)")

    def test_too_few_polls_name_their_count(self):
        nat = identity_series(np.arange(6.0))
        polls = poll_table(["WY"] * 3, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        historical = {"WY": (np.array([1.0]), np.array([2.0]))}
        with pytest.raises(CalibrationError) as exc:
            calibrate_states(polls, nat, historical, states=["WY"])
        assert str(exc.value) == (
            "state WY cannot be calibrated: no poll fit (WY: 3 poll(s) < MIN_POLLS=4) and "
            "no historical fallback (WY: 1 historical row(s), need at least 2)")

    def test_state_rows_in_file_order(self):
        # OH, PA and national rows interleaved: each state is fitted on its
        # own rows, exactly as calibrate_state fits them
        rng = np.random.default_rng(8)
        nat = SmoothedSeries(grid=np.arange(20.0), values=rng.normal(0, 3, 20))
        states = rng.choice(["OH", "PA", NATIONAL], 60)
        ts = rng.integers(0, 20, 60).astype(float)
        spreads = rng.normal(1.0, 4.0, 60)
        cals = calibrate_states(poll_table(states, ts, spreads), nat, {}, states=["OH", "PA"])
        for state in ("OH", "PA"):
            rows = states == state
            assert cals[state] == calibrate_state(state, ts[rows], spreads[rows], nat)
            assert cals[state].n_obs == rows.sum()


def sigma_samp_loop(rows):
    """sigma_samp as the per-row loop over parsed polls computed it before
    polls were columns: the reference the columnar form must equal bit for
    bit.  ``rows`` are (state, t, pct_c1, pct_c2, sample_size) tuples."""
    ses = []
    for state, _, pct_c1, pct_c2, sample_size in rows:
        if state != NATIONAL:
            continue
        two_party = pct_c1 + pct_c2
        if two_party <= 0:
            continue
        p = pct_c1 / two_party
        ses.append(2.0 * math.sqrt(p * (1.0 - p) / sample_size) * 100.0)
    return float(np.mean(ses)) if ses else 0.0


@st.composite
def poll_rows(draw):
    """One parsed poll row: national or state, with a share pair that sums
    to at most 100, sometimes both 0 (no two-party share)."""
    state = draw(st.sampled_from([NATIONAL, NATIONAL, "OH", "WY"]))
    pct_c1 = draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
    pct_c2 = draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0 - pct_c1)))
    sample_size = draw(st.integers(1, 10**9))
    return state, float(draw(st.integers(0, 120))), pct_c1, pct_c2, sample_size


class TestCalibrateMarket:
    def test_constant_series_zero_sigma_m(self):
        nat = SmoothedSeries(grid=np.arange(10.0), values=np.full(10, 3.0))
        mkt = calibrate_market(nat, NO_POLLS)
        assert mkt.sigma_m == 0.0
        assert mkt.m_current == 3.0
        assert mkt.horizon == 0.0

    def test_alternating_increments_sample_std(self):
        # 11 grid points, values 0,1,0,1,... -> 10 increments of +-1,
        # sample std sqrt(n/(n-1)) with n = 10
        values = np.array([float(i % 2) for i in range(11)])
        nat = SmoothedSeries(grid=np.arange(11.0), values=values)
        mkt = calibrate_market(nat, NO_POLLS)
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
        nat = SmoothedSeries(grid=[0.0, 1.0], values=[0.0, 0.0])
        mkt = calibrate_market(nat, polls)
        assert mkt.sigma_samp == pytest.approx(5.0, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(poll_rows(), max_size=30))
    def test_sigma_samp_equals_row_loop(self, rows):
        nat = SmoothedSeries(grid=[0.0, 1.0], values=[0.0, 0.0])
        polls = Polls(*(list(zip(*rows)) or [()] * 5))
        assert calibrate_market(nat, polls).sigma_samp == sigma_samp_loop(rows)

    def test_no_national_rows_zero_sigma_samp(self):
        nat = SmoothedSeries(grid=[0.0, 1.0], values=[0.0, 0.0])
        for polls in (poll_table(["OH", "PA"], [1.0, 2.0], [3.0, 4.0]),
                      Polls([NATIONAL], [1.0], [0.0], [0.0], [500])):
            assert calibrate_market(nat, polls).sigma_samp == 0.0

    def test_current_level_is_latest_grid_point(self):
        nat = SmoothedSeries(grid=[3.0, 4.0, 5.0], values=[1.5, 2.0, 2.5])
        mkt = calibrate_market(nat, NO_POLLS)
        assert mkt.m_current == 1.5  # day closest to the election
        assert mkt.horizon == 3.0

    def test_too_few_grid_points(self):
        nat = SmoothedSeries(grid=[5.0], values=[1.0])
        with pytest.raises(InsufficientDataError):
            calibrate_market(nat, NO_POLLS)

    # sigma_m is the sd of the smoothed series' one-day changes.  On a daily
    # grid the Nadaraya-Watson smoother is close to a convolution with K_h,
    # the normal density of sd h days, so for polls that are a random walk
    # with daily sd sigma_w plus white noise of sd sigma_n, one a day, the
    # smoothed slope has variance
    #   sigma_w^2 * int K_h^2 + sigma_n^2 * int K_h'^2
    #     = sigma_w^2 / (2 h sqrt(pi)) + sigma_n^2 / (4 sqrt(pi) h^3).
    # A finite series reads low: the sample sd is taken about the series' own
    # mean slope, and within about h days of either end the kernel is one-
    # sided and flattens the slope.  Over 1,000 walks of 400 days the mean
    # read 3.4%, 8.4%, 2.2% and 7.1% below the formula for (h, sigma_n) =
    # (5, 0), (10, 0), (5, 3), (10, 3); over 200 walks of 1,000 days, 0.9% to
    # 4.1% below.  The mean of 40 walks has a standard error of 1.4% to 3.2%
    # of the formula.  The bounds allow the largest shortfall and four
    # standard errors below (1 - 0.084 - 4 * 0.032 = 0.788, rounded to 0.78)
    # and four above (1.128, rounded to 1.13).  Without its noise term the
    # formula reads 0.095 for (5, 3), and the walks' mean is 1.42 times that.
    @pytest.mark.parametrize("h,sigma_n", [(5, 0), (10, 0), (5, 3), (10, 3)])
    def test_sigma_m_is_the_smoothed_daily_slope(self, h, sigma_n):
        sigma_w, n_days, n_walks = 0.4, 400, 40
        rng = np.random.default_rng([h, sigma_n])
        t = np.arange(float(n_days))
        sigma_m = []
        for _ in range(n_walks):
            spreads = np.cumsum(rng.normal(0.0, sigma_w, n_days))
            spreads += rng.normal(0.0, sigma_n, n_days)
            national = smooth_national(t, spreads, bandwidth=h)
            sigma_m.append(calibrate_market(national, NO_POLLS).sigma_m)
        law = math.sqrt(sigma_w**2 / (2 * h * math.sqrt(math.pi))
                        + sigma_n**2 / (4 * math.sqrt(math.pi) * h**3))
        assert 0.78 <= np.mean(sigma_m) / law <= 1.13

    def test_nonuniform_grid_scaled_per_day(self):
        # values t on grid spacing 4: increments 4/sqrt(4) = 2 per sqrt(day)
        nat = SmoothedSeries(grid=[0.0, 4.0, 8.0, 12.0], values=[0.0, 4.0, 8.0, 12.0])
        assert calibrate_market(nat, NO_POLLS).sigma_m == pytest.approx(0.0, abs=1e-12)
        nat2 = SmoothedSeries(grid=[0.0, 4.0, 8.0], values=[0.0, 4.0, 0.0])
        # scaled increments +2, -2 -> sample std sqrt(2)*2/sqrt(2)... direct oracle:
        scaled = np.diff(nat2.values) / np.sqrt(np.diff(nat2.grid))
        assert calibrate_market(nat2, NO_POLLS).sigma_m == pytest.approx(np.std(scaled, ddof=1), abs=1e-12)


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

    def test_numbers_are_stored_as_floats(self):
        mkt = MarketCalibration(sigma_samp=1, sigma_m=np.float64(0.5), m_current=-2,
                                horizon=2**70)
        assert [type(v) for v in vars(mkt).values()] == [float] * 4
        assert mkt.horizon == float(2**70)
        cal = StateCalibration("OH", np.int64(1), 2, np.float32(0.5), 8, SOURCE_POLLS)
        assert (type(cal.alpha), type(cal.beta), type(cal.sigma_eps)) == (float,) * 3

    @pytest.mark.parametrize("name", ["sigma_samp", "sigma_m", "m_current", "horizon"])
    def test_integer_too_large_for_a_float_is_refused(self, name):
        fields = dict(sigma_samp=1.0, sigma_m=0.5, m_current=2.0, horizon=30.0)
        fields[name] = 2**1100
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got an "
                                             "integer too large for a float$"):
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
        del doc["market"]
        with pytest.raises(ConfigurationError, match="has no market block; cannot simulate"):
            calibration_from_dict(doc)

    def test_document_keys_are_state_codes(self):
        cals = {"OH": StateCalibration("OH", 1.0, 0.9, 2.0, 8, SOURCE_POLLS)}
        mkt = MarketCalibration(sigma_samp=1.0, sigma_m=0.4, m_current=2.5, horizon=20.0)
        doc = calibration_to_dict(cals, mkt)
        doc["states"] = {" oh ": doc["states"]["OH"]}
        assert calibration_from_dict(doc)[0] == cals
        doc["states"]["US"] = dict(doc["states"][" oh "], state="US")
        with pytest.raises(ConfigurationError, match="unknown state code 'US'"):
            calibration_from_dict(doc)
        doc = calibration_to_dict(cals, mkt)
        doc["states"]["OH"]["state"] = "PA"
        with pytest.raises(ConfigurationError, match="state OH: its state field is 'PA'"):
            calibration_from_dict(doc)
