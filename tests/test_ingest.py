"""Poll parsing, spread computation, and kernel smoothing."""

import io
from datetime import date

import numpy as np
import pytest

from statecast.errors import CalibrationError, IngestError
from statecast.ingest import (
    SampleType,
    SpreadObservation,
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
        (rec,) = result.records
        assert rec.state == "US"
        assert rec.sample_type is SampleType.LIKELY_VOTERS
        assert rec.pct_c1 == 48.0 and rec.pct_c2 == 44.0
        assert rec.days_to_election == 38.0
        (spread,) = to_spreads([rec])
        assert spread.spread == 4.0

    def test_header_only_file(self):
        result = parse_polls(polls_csv(), ELECTION)
        assert result.records == []
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
        assert [r.state for r in result.records] == ["PA"]
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
        ]
        result = parse_polls(polls_csv(*rows), ELECTION)
        assert result.records == []
        assert result.n_skipped == len(rows)

    def test_skipped_row_after_blank_line_names_its_physical_line(self):
        src = polls_csv("A,US,2016-10-01,500,LV,48,44", "", "B,US,2016-10-01,0,LV,48,44")
        result = parse_polls(src, ELECTION)
        assert [line for line, _ in result.skipped] == [4]

    def test_extra_columns_are_ignored(self):
        src = io.StringIO(
            HEADER.rstrip("\n") + ",johnson,stein\n"
            "A,NM,2016-10-01,500,LV,40,29,16,2\n"
        )
        (rec,) = parse_polls(src, ELECTION).records
        (plain,) = parse_polls(polls_csv("A,NM,2016-10-01,500,LV,40,29"), ELECTION).records
        assert rec == plain

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
        assert a == b


class TestToSpreads:
    @pytest.mark.parametrize("c1,c2,expected", [(48, 44, 4.0), (44, 48, -4.0), (50, 50, 0.0)])
    def test_spread_sign(self, c1, c2, expected):
        result = parse_polls(polls_csv(f"A,US,2016-10-01,500,LV,{c1},{c2}"), ELECTION)
        (spread,) = to_spreads(result.records)
        assert spread.spread == expected

    def test_order_preserved(self):
        rows = [f"P,US,2016-10-{d:02d},500,LV,{40+d},40" for d in range(1, 6)]
        spreads = to_spreads(parse_polls(polls_csv(*rows), ELECTION).records)
        assert [s.spread for s in spreads] == [1.0, 2.0, 3.0, 4.0, 5.0]


def us_obs(points):
    return [SpreadObservation("US", t, s, 500) for t, s in points]


class TestSmoothNational:
    def test_single_observation_everywhere(self):
        series = smooth_national(us_obs([(0.0, 5.0)]), bandwidth=5.0, grid=[0.0, 3.0, 10.0])
        assert np.allclose(series.values, 5.0)

    def test_symmetry_midpoint(self):
        series = smooth_national(us_obs([(-1.0, 4.0), (1.0, 6.0)]), bandwidth=2.0, grid=[0.0])
        assert series.values[0] == pytest.approx(5.0, abs=1e-12)

    def test_two_term_kernel_sum(self):
        # hand oracle: 10*exp(-2) / (1 + exp(-2)) at t=0 with h=5
        series = smooth_national(us_obs([(0.0, 0.0), (10.0, 10.0)]), bandwidth=5.0, grid=[0.0])
        assert series.values[0] == pytest.approx(1.1920292202211755, abs=1e-12)

    def test_empty_observations(self):
        with pytest.raises(CalibrationError):
            smooth_national([], bandwidth=5.0)

    def test_underflow_falls_back_to_nearest(self):
        obs = us_obs([(0.0, 2.0), (1.0, 4.0)])
        with pytest.warns(RuntimeWarning, match="underflow"):
            series = smooth_national(obs, bandwidth=1.0, grid=[0.0, 500.0])
        assert series.values[1] == 4.0  # nearest observation to t=500

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        ts = np.sort(rng.uniform(0, 60, 25))
        spreads = rng.normal(2.0, 3.0, 25)
        base = smooth_national(us_obs(zip(ts, spreads)), bandwidth=5.0)
        shifted = smooth_national(us_obs(zip(ts, spreads + 7.5)), bandwidth=5.0)
        np.testing.assert_allclose(shifted.values, base.values + 7.5, atol=1e-9)

    def test_values_within_observed_range(self):
        rng = np.random.default_rng(4)
        ts = np.sort(rng.uniform(0, 90, 40))
        spreads = rng.normal(0.0, 6.0, 40)
        series = smooth_national(us_obs(zip(ts, spreads)), bandwidth=5.0)
        eps = 1e-9
        assert series.values.min() >= spreads.min() - eps
        assert series.values.max() <= spreads.max() + eps

    def test_small_bandwidth_recovers_observation(self):
        obs = us_obs([(0.0, 1.0), (5.0, 9.0), (10.0, -3.0)])
        series = smooth_national(obs, bandwidth=1e-3, grid=[0.0, 5.0, 10.0])
        np.testing.assert_allclose(series.values, [1.0, 9.0, -3.0], atol=1e-9)

    def test_default_grid_is_daily(self):
        series = smooth_national(us_obs([(2.5, 1.0), (6.2, 3.0)]), bandwidth=5.0)
        np.testing.assert_array_equal(series.grid, np.arange(2.0, 8.0))

    def test_nearest_grid_lookup(self):
        series = smooth_national(us_obs([(0.0, 0.0), (10.0, 10.0)]),
                                 bandwidth=5.0, grid=[0.0, 5.0, 10.0])
        assert series.values_at(6.9)[0] == series.values[1]
        assert series.values_at(7.5)[0] == series.values[1]  # tie goes low
        assert series.values_at(-3.0)[0] == series.values[0]
        assert series.values_at(40.0)[0] == series.values[2]

    def test_nearest_grid_lookup_past_the_last_point(self):
        # |t - 5| and |10 - t| round to the same value, and that tie must
        # not pull t back from past the last grid point
        series = smooth_national(us_obs([(0.0, 0.0), (10.0, 10.0)]),
                                 bandwidth=5.0, grid=[0.0, 5.0, 10.0])
        np.testing.assert_array_equal(series.values_at([np.inf, 1e301, -np.inf, -1e301]),
                                      series.values[[2, 2, 0, 0]])


HIST_HEADER = "year,state,state_spread,national_spread\n"


class TestLoadHistorical:
    def test_round_trip_row(self):
        result = load_historical(io.StringIO(HIST_HEADER + "1976,OH,-0.27,2.06\n"))
        (row,) = result.records
        assert (row.year, row.state) == (1976, "OH")
        assert row.state_spread == -0.27
        assert row.national_spread == 2.06

    def test_empty_file(self):
        result = load_historical(io.StringIO(HIST_HEADER))
        assert result.records == []

    def test_duplicates_kept(self):
        src = io.StringIO(HIST_HEADER + "2000,FL,0.1,0.5\n2000,FL,0.2,0.5\n")
        assert len(load_historical(src).records) == 2

    def test_pre_1976_kept_but_flagged(self):
        result = load_historical(io.StringIO(HIST_HEADER + "1972,OH,-10.0,-23.2\n"))
        assert len(result.records) == 1
        assert result.n_skipped == 0
        assert result.flagged and "1972" in result.flagged[0][1]

    def test_malformed_skipped_and_counted(self):
        src = io.StringIO(HIST_HEADER + "1980,OH,abc,1.0\n1984,OH,2.0,1.5\n")
        result = load_historical(src)
        assert len(result.records) == 1
        assert result.n_skipped == 1
