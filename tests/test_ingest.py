"""Poll parsing, spread computation, and kernel smoothing."""

import io
from datetime import date

import numpy as np
import pytest

from statecast.errors import CalibrationError, IngestError
from statecast.ingest import (
    Polls,
    SmoothedSeries,
    load_historical,
    parse_polls,
    smooth_national,
    to_spreads,
)

ELECTION = date(2016, 11, 8)

HEADER = "pollster,state,date,sample_size,sample_type,pct_c1,pct_c2\n"


def polls_csv(*rows: str) -> io.StringIO:
    return io.StringIO(HEADER + "".join(r + "\n" for r in rows))


class TestParsePolls:
    def test_single_national_row(self):
        result = parse_polls(polls_csv("ABC,US,2016-10-01,900,LV,48,44"), ELECTION)
        assert result.n_skipped == 0
        polls = result.records
        assert len(polls) == 1
        assert polls.state.tolist() == ["US"]
        assert polls.pct_c1.tolist() == [48.0] and polls.pct_c2.tolist() == [44.0]
        assert polls.t.tolist() == [38.0]
        assert polls.sample_size.tolist() == [900.0]
        assert to_spreads(polls).tolist() == [4.0]

    def test_columns_in_file_order(self):
        polls = parse_polls(polls_csv("A,OH,2016-10-01,500,LV,48,44",
                                      "B,us,2016-10-03,600,RV,44,48",
                                      "C, OH ,2016-11-08,700,All,45,45"), ELECTION).records
        assert polls.state.tolist() == ["OH", "US", "OH"]
        assert polls.t.tolist() == [38.0, 36.0, 0.0]
        assert polls.sample_size.tolist() == [500.0, 600.0, 700.0]

    @pytest.mark.parametrize("spelling", ["LV", "likely voters", "Likely_Voters", "LikelyVoters",
                                          "RV", "registered_voters", "All", "a"])
    def test_sample_type_spellings_accepted(self, spelling):
        result = parse_polls(polls_csv(f"A,US,2016-10-01,500,{spelling},48,44"), ELECTION)
        assert (len(result.records), result.n_skipped) == (1, 0)

    def test_header_only_file(self):
        result = parse_polls(polls_csv(), ELECTION)
        assert len(result.records) == 0
        assert result.records.state.shape == result.records.t.shape == (0,)
        assert result.n_skipped == 0

    def test_one_malformed_row_in_ten(self):
        good = [f"P{i},OH,2016-09-{10+i:02d},500,RV,47,45" for i in range(9)]
        bad = ["Pbad,OH,2016-09-30,,RV,47,45"]  # missing sample_size
        result = parse_polls(polls_csv(*(good + bad)), ELECTION)
        assert len(result.records) == 9
        assert result.n_skipped == 1
        assert "sample_size" in result.skipped[0][1]

    def test_unknown_state_is_row_level(self):
        result = parse_polls(
            polls_csv("A,ZZ,2016-10-01,500,LV,48,44",
                      "B,PA,2016-10-02,500,LV,48,44"),
            ELECTION,
        )
        assert result.records.state.tolist() == ["PA"]
        assert result.n_skipped == 1
        assert "ZZ" in result.skipped[0][1]

    def test_validation_skips(self):
        rows = [
            "A,US,2016-10-01,0,LV,48,44",        # sample_size < 1
            "B,US,2016-10-01,500,LV,60,45",      # sum > 100
            "C,US,2016-10-01,500,LV,101,0",      # pct out of range
            "D,US,2016-13-01,500,LV,48,44",      # bad date
            "E,US,2016-11-09,500,LV,48,44",      # after the election
            "F,US,2016-10-01,500,households,48,44",  # bad sample_type
            " ,US,2016-10-01,500,LV,48,44",      # no pollster
            "H,US,2016-10-01,1" + "0" * 400 + ",LV,48,44",  # past the float range
            "I,US,20161001,500,LV,48,44",        # a date not YYYY-MM-DD
            "J,US,2016-W39-6,500,LV,48,44",
            "K, ,2016-10-01,500,LV,48,44",       # no state
            "L,ZZ,2016-10-01,500,LV,48,44",      # unknown state
            "M,US, ,500,LV,48,44",               # no date
            "N,US,2016-10-01,,LV,48,44",         # no sample_size
            "O,US,2016-10-01,9.5,LV,48,44",      # sample_size not an integer
            "P,US,2016-10-01,500,LV,,44",        # no pct_c1
            "Q,US,2016-10-01,500,LV,x,44",       # pct_c1 not a number
            "R,US,2016-10-01,500,LV,48,",        # no pct_c2
            "S,US,2016-10-01,500, ,48,44",       # no sample_type
            " ,US,2016-10-01,500,LV,x,44",       # bad pct_c1 and no pollster
        ]
        result = parse_polls(polls_csv(*rows), ELECTION)
        assert len(result.records) == 0
        assert [reason for _, reason in result.skipped] == [
            "sample_size 0 < 1",
            "pct_c1 + pct_c2 exceeds 100",
            "percentage outside [0, 100]",
            "bad date: month must be in 1..12",
            "poll dated after the election",
            "unknown sample_type 'households'",
            "missing pollster",
            "sample_size is too large",
            "bad date: Invalid isoformat string: '20161001'",
            "bad date: Invalid isoformat string: '2016-W39-6'",
            "missing state",
            "unknown state code 'ZZ'",
            "missing date",
            "missing sample_size",
            "bad sample_size: invalid literal for int() with base 10: '9.5'",
            "missing pct_c1",
            "bad pct_c1: could not convert string to float: 'x'",
            "missing pct_c2",
            "missing sample_type",
            "bad pct_c1: could not convert string to float: 'x'",
        ]

    def test_skipped_row_after_blank_line_names_its_physical_line(self):
        src = polls_csv("A,US,2016-10-01,500,LV,48,44", "", "B,US,2016-10-01,0,LV,48,44")
        result = parse_polls(src, ELECTION)
        assert [line for line, _ in result.skipped] == [4]

    def test_extra_columns_are_ignored(self):
        src = io.StringIO(
            HEADER.rstrip("\n") + ",johnson,stein\n"
            "A,NM,2016-10-01,500,LV,40,29,16,2\n"
        )
        wide = parse_polls(src, ELECTION).records
        plain = parse_polls(polls_csv("A,NM,2016-10-01,500,LV,40,29"), ELECTION).records
        for name in ("state", "t", "pct_c1", "pct_c2", "sample_size"):
            np.testing.assert_array_equal(getattr(wide, name), getattr(plain, name))

    def test_missing_required_column_is_ingest_error(self):
        with pytest.raises(IngestError, match="pct_c2"):
            parse_polls(io.StringIO("pollster,state,date,sample_size,sample_type,pct_c1\n"), ELECTION)

    def test_unreadable_source(self):
        with pytest.raises(IngestError):
            parse_polls("/nonexistent/polls.csv", ELECTION)

    def test_deterministic(self):
        rows = ["A,US,2016-10-01,500,LV,48,44", "B,OH,2016-10-03,600,RV,44,48"]
        a = to_spreads(parse_polls(polls_csv(*rows), ELECTION).records)
        b = to_spreads(parse_polls(polls_csv(*rows), ELECTION).records)
        np.testing.assert_array_equal(a, b)


class TestPolls:
    def test_columns_must_be_one_length(self):
        with pytest.raises(ValueError, match="same length"):
            Polls(["US"], [1.0, 2.0], [48.0], [44.0], [500])
        with pytest.raises(ValueError, match="same length"):
            Polls("US", 1.0, 48.0, 44.0, 500)


class TestToSpreads:
    @pytest.mark.parametrize("c1,c2,expected", [(48, 44, 4.0), (44, 48, -4.0), (50, 50, 0.0)])
    def test_spread_sign(self, c1, c2, expected):
        result = parse_polls(polls_csv(f"A,US,2016-10-01,500,LV,{c1},{c2}"), ELECTION)
        assert to_spreads(result.records).tolist() == [expected]

    def test_order_preserved(self):
        rows = [f"P,US,2016-10-{d:02d},500,LV,{40+d},40" for d in range(1, 6)]
        spreads = to_spreads(parse_polls(polls_csv(*rows), ELECTION).records)
        assert spreads.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestSmoothNational:
    def test_single_observation_everywhere(self):
        # a poll at t = 2.5 spans the grid days 2 and 3
        series = smooth_national([2.5], [5.0], bandwidth=5.0)
        np.testing.assert_array_equal(series.grid, [2.0, 3.0])
        assert np.allclose(series.values, 5.0)

    def test_symmetry_midpoint(self):
        series = smooth_national([-1.0, 1.0], [4.0, 6.0], bandwidth=2.0)
        assert series.grid[1] == 0.0
        assert series.values[1] == pytest.approx(5.0, abs=1e-12)

    def test_two_term_kernel_sum(self):
        # hand oracle: 10*exp(-2) / (1 + exp(-2)) at t=0 with h=5
        series = smooth_national([0.0, 10.0], [0.0, 10.0], bandwidth=5.0)
        assert series.grid[0] == 0.0
        assert series.values[0] == pytest.approx(1.1920292202211755, abs=1e-12)

    def test_empty_observations(self):
        with pytest.raises(CalibrationError):
            smooth_national([], [], bandwidth=5.0)

    def test_empty_grid_is_rejected(self):
        with pytest.raises(ValueError, match="grid must not be empty"):
            SmoothedSeries(grid=[], values=[])

    def test_mismatched_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            smooth_national([0.0, 1.0], [2.0], bandwidth=5.0)

    def test_underflow_falls_back_to_nearest(self):
        # at h = 1 every weight underflows more than about 38.6 days from a poll
        with pytest.warns(RuntimeWarning, match="underflow"):
            series = smooth_national([0.0, 1.0, 1000.0], [2.0, 4.0, 9.0], bandwidth=1.0)
        assert series.grid[500] == 500.0
        assert series.values[500] == 4.0  # nearest observation to t=500

    def test_overflowed_kernel_weight_is_zero(self):
        # u^2 overflows to +inf, and exp(-inf) = 0 is the weight it stands for
        series = smooth_national([0.0, 1.0], [2.0, 4.0], bandwidth=1e-300)
        np.testing.assert_array_equal(series.values, [2.0, 4.0])

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        ts = np.sort(rng.uniform(0, 60, 25))
        spreads = rng.normal(2.0, 3.0, 25)
        base = smooth_national(ts, spreads, bandwidth=5.0)
        shifted = smooth_national(ts, spreads + 7.5, bandwidth=5.0)
        np.testing.assert_allclose(shifted.values, base.values + 7.5, atol=1e-9)

    def test_values_within_observed_range(self):
        rng = np.random.default_rng(4)
        ts = np.sort(rng.uniform(0, 90, 40))
        spreads = rng.normal(0.0, 6.0, 40)
        series = smooth_national(ts, spreads, bandwidth=5.0)
        eps = 1e-9
        assert series.values.min() >= spreads.min() - eps
        assert series.values.max() <= spreads.max() + eps

    def test_small_bandwidth_recovers_observation(self):
        series = smooth_national([0.0, 1.0, 2.0], [1.0, 9.0, -3.0], bandwidth=1e-3)
        np.testing.assert_allclose(series.values, [1.0, 9.0, -3.0], atol=1e-9)

    def test_default_grid_is_daily(self):
        series = smooth_national([2.5, 6.2], [1.0, 3.0], bandwidth=5.0)
        np.testing.assert_array_equal(series.grid, np.arange(2.0, 8.0))

    def test_nearest_grid_lookup(self):
        series = SmoothedSeries(grid=[0.0, 5.0, 10.0], values=[1.2, 5.0, 8.8])
        assert series.values_at(6.9)[0] == series.values[1]
        assert series.values_at(7.5)[0] == series.values[1]  # tie goes low
        assert series.values_at(-3.0)[0] == series.values[0]
        assert series.values_at(40.0)[0] == series.values[2]

    def test_nearest_grid_lookup_past_the_last_point(self):
        # |t - 5| and |10 - t| round to the same value, and that tie must
        # not pull t back from past the last grid point
        series = SmoothedSeries(grid=[0.0, 5.0, 10.0], values=[1.2, 5.0, 8.8])
        np.testing.assert_array_equal(series.values_at([np.inf, 1e301, -np.inf, -1e301]),
                                      series.values[[2, 2, 0, 0]])


HIST_HEADER = "year,state,state_spread,national_spread\n"


class TestLoadHistorical:
    def test_round_trip_row(self):
        result = load_historical(io.StringIO(HIST_HEADER + "1976, oh ,-0.27,2.06\n"))
        assert list(result.records) == ["OH"]
        national, spreads = result.records["OH"]
        assert national.dtype == spreads.dtype == np.float64
        assert national.tolist() == [2.06]
        assert spreads.tolist() == [-0.27]

    def test_empty_file(self):
        result = load_historical(io.StringIO(HIST_HEADER))
        assert result.records == {}

    def test_duplicates_kept(self):
        src = io.StringIO(HIST_HEADER + "2000,FL,0.1,0.5\n2000,FL,0.2,0.5\n")
        national, spreads = load_historical(src).records["FL"]
        assert (national.tolist(), spreads.tolist()) == ([0.5, 0.5], [0.1, 0.2])

    def test_pre_1976_kept_but_flagged(self):
        result = load_historical(io.StringIO(HIST_HEADER + "1972,OH,-10.0,-23.2\n"))
        assert result.records["OH"][0].tolist() == [-23.2]
        assert result.n_skipped == 0
        assert result.flagged and "1972" in result.flagged[0][1]

    @pytest.mark.parametrize("state", ["US", " zz "])
    def test_non_state_code_is_skipped(self, state):
        src = io.StringIO(HIST_HEADER + f"1980,{state},1.0,2.0\n1984,OH,2.0,1.5\n")
        result = load_historical(src)
        assert list(result.records) == ["OH"]
        assert result.skipped == [(2, f"unknown state code {state.strip().upper()!r}")]

    def test_malformed_skipped_and_counted(self):
        src = io.StringIO(HIST_HEADER + "1980,OH,abc,1.0\n1984,OH,2.0,1.5\n")
        result = load_historical(src)
        assert result.records["OH"][1].tolist() == [2.0]
        assert result.n_skipped == 1
