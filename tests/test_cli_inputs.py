"""Malformed CLI inputs: each ends with exit 1 and one stderr line naming the
file (and the line, for a row-level fault), never with a traceback or an
output holding NaN."""

import csv
import json
import math
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecast import cli
from statecast.calibration import (
    SOURCE_POLLS,
    MarketCalibration,
    StateCalibration,
    calibration_to_dict,
)
from statecast.cli import main
from statecast.errors import IngestError
from statecast.ingest import load_historical, parse_polls
from statecast.states import default_ev_table

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def assert_rejected(code, capsys, path, line=None, out_dir=None):
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert "Traceback" not in err
    where = f"{path}:{line}:" if line is not None else f"{path}"
    assert where in err, err
    for out in Path(out_dir).glob("*") if out_dir is not None else ():
        assert "nan" not in out.read_text().lower(), out
    return err


def write_calibration(path, state_fields=None, market_fields=None):
    ev = default_ev_table()
    cals = {s: StateCalibration(s, alpha=0.0, beta=1.0, sigma_eps=2.0,
                                n_obs=8, source=SOURCE_POLLS) for s in ev}
    doc = calibration_to_dict(cals, MarketCalibration(1.0, 0.5, 2.0, 30.0))
    doc["states"]["OH"].update(state_fields or {})
    doc["market"].update(market_fields or {})
    path.write_text(json.dumps(doc))
    return path


class TestHistogramRows:
    def score(self, path, out):
        return run_cli("score", "--histograms", path, "--ev-realization", "232",
                       "--metrics", "selten", "cdf", "--out-dir", out)

    @pytest.mark.parametrize("ev", ["-3", "600", "539", "12.5"])
    def test_ev_out_of_range_names_line(self, tmp_path, capsys, ev):
        hist = tmp_path / "h.csv"
        hist.write_text(f"forecaster,ev,p\nA,232,0.5\nA,{ev},0.5\n")
        out = tmp_path / "out"
        assert_rejected(self.score(hist, out), capsys, hist, 3, out)

    @pytest.mark.parametrize("p", ["nan", "inf", "-0.5", "x"])
    def test_bad_mass_names_line(self, tmp_path, capsys, p):
        hist = tmp_path / "h.csv"
        hist.write_text(f"forecaster,ev,p\nA,232,{p}\n")
        out = tmp_path / "out"
        assert_rejected(self.score(hist, out), capsys, hist, 2, out)

    def test_all_zero_histogram_names_file(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        hist.write_text("forecaster,ev,p\nA,232,1.0\nB,10,0\nB,20,0\n")
        out = tmp_path / "out"
        err = assert_rejected(self.score(hist, out), capsys, hist, out_dir=out)
        assert "'B'" in err

    def test_missing_column_names_file(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        hist.write_text("forecaster,ev\nA,232\n")
        err = assert_rejected(self.score(hist, tmp_path), capsys, hist)
        assert "p" in err


class TestSeriesRows:
    def score(self, series, out, outcomes=FIXTURES / "outcomes.csv"):
        return run_cli("score", "--series", series, "--outcomes", outcomes,
                       "--metrics", "brier", "loglik", "--out-dir", out)

    @pytest.mark.parametrize("p", ["nan", "1.5", "-inf", ""])
    def test_bad_probability_names_line(self, tmp_path, capsys, p):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          f"F,US,2016-11-01,0.5\nF,US,2016-11-02,{p}\n")
        out = tmp_path / "out"
        assert_rejected(self.score(series, out), capsys, series, 3, out)

    def test_short_row_names_line(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\nF,US,2016-11-01\n")
        assert_rejected(self.score(series, tmp_path), capsys, series, 2)

    def test_duplicate_date_names_file(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "F,US,2016-11-01,0.5\nF,US,2016-11-01,0.6\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 3)
        assert "2016-11-01" in err

    def test_same_day_written_two_ways_is_repeated(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "F,US,2016-11-01,0.5\nF,US, 2016-11-01,0.6\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 3)
        assert "date 2016-11-01 is repeated" in err

    def test_state_cells_written_two_ways_are_one_series(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "F,us,2016-11-01,0.5\nF,us,2016-11-02,0.5\n"
                          "F, US ,2016-11-02,0.6\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 4)
        assert "date 2016-11-02 is repeated" in err

    def test_bad_probability_is_reported_before_bad_date(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "F,US,2016-11-01,0.5\nF,US,2016-13-45,1.5\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 3)
        assert "'1.5' is not a probability in [0, 1]" in err

    def test_missing_column_names_file(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date\nF,US,2016-11-01\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 1)
        assert "missing column(s) p" in err

    def test_repeated_column_names_file(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p,p\nF,US,2016-11-01,0.5,0.6\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 1)
        assert "repeated column(s) p" in err

    def test_same_date_in_another_series_is_no_repeat(self, tmp_path):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "F,US,2016-11-01,0.5\nG,US,2016-11-01,0.6\n"
                          "F,OH,2016-11-01,0.4\n")
        outcomes = tmp_path / "o.csv"
        outcomes.write_text("state,omega\nUS,1\nOH,0\n")
        assert self.score(series, tmp_path, outcomes) == 0

    def test_state_without_outcome_names_its_first_row(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "F,US,2016-11-01,0.5\nF,oh,2016-11-01,0.4\n"
                          "G,OH,2016-11-01,0.3\nF,OH ,2016-11-02,0.4\n")
        outcomes = tmp_path / "o.csv"
        outcomes.write_text("state,omega\nUS,1\n")
        err = assert_rejected(self.score(series, tmp_path, outcomes), capsys, series, 3)
        assert "no outcome recorded for OH" in err

    @pytest.mark.parametrize("omega", ["2", "0.5", "yes"])
    def test_outcome_not_binary_names_line(self, tmp_path, capsys, omega):
        outcomes = tmp_path / "o.csv"
        outcomes.write_text(f"state,omega\nUS,1\nOH,{omega}\n")
        code = self.score(FIXTURES / "series.csv", tmp_path, outcomes)
        assert_rejected(code, capsys, outcomes, 3)

    @pytest.mark.parametrize("first", ["US", " us "])
    def test_repeated_outcome_state_names_line(self, tmp_path, capsys, first):
        outcomes = tmp_path / "o.csv"
        outcomes.write_text(f"state,omega\n{first},1\nOH,0\nUS,0\n")
        code = self.score(FIXTURES / "series.csv", tmp_path, outcomes)
        err = assert_rejected(code, capsys, outcomes, 4)
        assert "state US is repeated" in err

    def test_outcomes_missing_column_names_file(self, tmp_path, capsys):
        outcomes = tmp_path / "o.csv"
        outcomes.write_text("state,result\nUS,1\n")
        code = self.score(FIXTURES / "series.csv", tmp_path, outcomes)
        err = assert_rejected(code, capsys, outcomes, 1)
        assert "missing column(s) omega" in err


class TestPanelAndReference:
    def trade(self, experts, ref, out):
        return run_cli("trade", "--experts", experts, "--reference-file", ref,
                       "--out-dir", out)

    def test_price_out_of_range_names_line(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("date,price\n2016-10-01,0.6\n2016-10-02,1.5\n")
        assert_rejected(self.trade(FIXTURES / "experts.csv", ref, tmp_path),
                        capsys, ref, 3)

    @pytest.mark.parametrize("row", ["2016-10-02,0.5,nan", "2016-10-02,0.5",
                                     "2016-10-32,0.5,0.5"])
    def test_bad_prediction_names_line(self, tmp_path, capsys, row):
        experts = tmp_path / "experts.csv"
        experts.write_text(f"date,A,B\n2016-10-01,0.5,0.5\n{row}\n")
        assert_rejected(self.trade(experts, FIXTURES / "reference.csv", tmp_path),
                        capsys, experts, 3)


    def test_repeated_reference_date_names_line_and_date(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("date,price\n2016-10-01,0.6\n2016-10-02,0.5\n2016-10-01,0.7\n")
        err = assert_rejected(self.trade(FIXTURES / "experts.csv", ref, tmp_path),
                              capsys, ref, 4)
        assert "2016-10-01" in err

    def test_repeated_panel_date_names_line_and_date(self, tmp_path, capsys):
        experts = tmp_path / "experts.csv"
        experts.write_text("date,A,B\n2016-10-01,0.5,0.5\n2016-10-01,0.6,0.4\n")
        err = assert_rejected(self.trade(experts, FIXTURES / "reference.csv", tmp_path),
                              capsys, experts, 3)
        assert "2016-10-01" in err

    def test_panel_missing_date_column_names_file(self, tmp_path, capsys):
        experts = tmp_path / "experts.csv"
        experts.write_text("day,A,B\n2016-10-01,0.5,0.5\n")
        err = assert_rejected(self.trade(experts, FIXTURES / "reference.csv", tmp_path),
                              capsys, experts, 1)
        assert "missing column(s) date" in err

    @pytest.mark.parametrize("header,row,name", [
        ("date,E0,E0", "2016-10-01,0.5,0.6", "E0"),
        ("date,A,date", "2016-10-01,0.5,2016-10-02", "date"),
    ])
    def test_panel_repeated_column_names_file(self, tmp_path, capsys, header, row, name):
        experts = tmp_path / "experts.csv"
        experts.write_text(f"{header}\n{row}\n")
        err = assert_rejected(self.trade(experts, FIXTURES / "reference.csv", tmp_path),
                              capsys, experts, 1)
        assert f"repeated column(s) {name}" in err

    def test_repeated_outcome_state_names_line(self, tmp_path, capsys):
        outcomes = tmp_path / "o.csv"
        outcomes.write_text("state,omega\nUS,1\nUS,0\n")
        out = tmp_path / "out"
        code = run_cli("trade", "--experts", FIXTURES / "experts.csv",
                       "--reference-file", FIXTURES / "reference.csv",
                       "--outcomes", outcomes, "--out-dir", out)
        err = assert_rejected(code, capsys, outcomes, 3)
        assert "state US is repeated" in err
        assert not (out / "pnl_summary.csv").exists()

    @pytest.mark.parametrize("command", ["trade", "aggregate"])
    def test_header_only_panel_names_file(self, tmp_path, capsys, command):
        experts = tmp_path / "p.csv"
        experts.write_text("date,A,B\n")
        out = tmp_path / "out"
        code = run_cli(command, "--experts", experts,
                       "--reference-file", FIXTURES / "reference.csv", "--out-dir", out)
        err = assert_rejected(code, capsys, experts)
        assert err == f"error [{command}]: {experts}: panel has no dates\n"

    def test_reference_missing_column_names_file(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("date,value\n2016-10-01,0.6\n")
        err = assert_rejected(self.trade(FIXTURES / "experts.csv", ref, tmp_path),
                              capsys, ref, 1)
        assert "missing column(s) price" in err


class TestCalibrationDocument:
    def forecast(self, cal, out):
        return run_cli("forecast", "--calibration", cal, "--seed", "5",
                       "--paths", "200", "--out-dir", out)

    @pytest.mark.parametrize("fields", [
        {"colour": "red"}, {"alpha": "1.0"}, {"sigma_eps": float("nan")},
    ])
    def test_bad_state_entry_names_file_and_state(self, tmp_path, capsys, fields):
        cal = write_calibration(tmp_path / "cal.json", state_fields=fields)
        out = tmp_path / "out"
        err = assert_rejected(self.forecast(cal, out), capsys, cal, out_dir=out)
        assert "OH" in err

    def test_missing_state_key_names_state(self, tmp_path, capsys):
        cal = tmp_path / "cal.json"
        write_calibration(cal)
        doc = json.loads(cal.read_text())
        del doc["states"]["WY"]["beta"]
        cal.write_text(json.dumps(doc))
        err = assert_rejected(self.forecast(cal, tmp_path), capsys, cal)
        assert "WY" in err and "beta" in err

    def test_nan_market_volatility_names_file(self, tmp_path, capsys):
        cal = write_calibration(tmp_path / "cal.json",
                                market_fields={"sigma_samp": float("nan")})
        out = tmp_path / "out"
        assert_rejected(self.forecast(cal, out), capsys, cal, out_dir=out)


class TestConfigValues:
    def write_config(self, tmp_path, *lines):
        cal = write_calibration(tmp_path / "cal.json")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join([f'calibration = "{cal}"', *lines]) + "\n")
        return cfg

    @pytest.mark.parametrize("line", ["seed = 1e3", "paths = 1e3", "seed = true",
                                      "seed = 7.0", "noise_model = t",
                                      "noise_model = Student_T", "bandwidth = nan",
                                      "realization = 2"])
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, line):
        cfg = self.write_config(tmp_path, "seed = 5", "paths = 200", line)
        out = tmp_path / "out"
        code = run_cli("forecast", "--config", cfg, "--out-dir", out)
        assert_rejected(code, capsys, cfg, 4, out)

    def test_unknown_loss_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("loss = banana\n")
        out = tmp_path / "out"
        code = run_cli("aggregate", "--config", cfg,
                       "--experts", FIXTURES / "experts.csv",
                       "--reference-file", FIXTURES / "reference.csv", "--out-dir", out)
        assert_rejected(code, capsys, cfg, 1)
        assert not (out / "learner.json").exists()

    def test_float_key_takes_integer_literal_as_float(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma_samp = 1\nseed = 3 # a comment\nloss = \"trading\"\n")
        loaded = cli.load_config(cfg)
        assert loaded.sigma_samp == 1.0 and isinstance(loaded.sigma_samp, float)
        assert loaded.seed == 3 and loaded.loss == "trading"

    def test_non_finite_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("forecast", "--bandwidth", "inf", "--out-dir", tmp_path)
        assert exc.value.code == 2


class TestElectionDate:
    def test_bad_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("calibrate", "--polls", FIXTURES / "polls.csv",
                    "--election-date", "2016-13-45", "--out-dir", tmp_path)
        assert exc.value.code == 2

    def test_bad_config_value_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'polls = "{FIXTURES / "polls.csv"}"\nelection_date = 2016-13-45\n')
        code = run_cli("calibrate", "--config", cfg, "--out-dir", tmp_path)
        err = assert_rejected(code, capsys, cfg, 2)
        assert "election_date" in err

    def test_config_value_is_a_date(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text('election_date = "2016-11-08"\n')
        assert cli.load_config(cfg).election_date == date(2016, 11, 8)


# ---------------------------------------------------------------------------
# the ingested tables: polls, historical results and the EV table

POLL_HEADER = "pollster,state,date,sample_size,sample_type,pct_c1,pct_c2\n"
HIST_HEADER = "year,state,state_spread,national_spread\n"
ELECTION = date(2016, 11, 8)


def calibrate(out, polls=FIXTURES / "polls.csv", historical=FIXTURES / "historical.csv",
              *extra):
    return run_cli("calibrate", "--polls", polls, "--historical", historical,
                   "--election-date", "2016-11-08", "--out-dir", out, *extra)


def fixture_plus(tmp_path, name, *lines, encoding="utf-8"):
    """A copy of a fixture with ``lines`` appended; returns (path, the
    line number of the first appended line)."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8") + "".join(line + "\n" for line in lines).encode(encoding))
    return path, text.count("\n") + 1


class TestPollAndHistoricalFiles:
    def test_oversized_poll_field_names_line(self, tmp_path, capsys):
        polls, line = fixture_plus(tmp_path, "polls.csv",
                                   "X" * 200_000 + ",US,2016-10-01,500,LV,48,44")
        out = tmp_path / "out"
        assert_rejected(calibrate(out, polls), capsys, polls, line, out)

    def test_oversized_historical_field_names_line(self, tmp_path, capsys):
        hist, line = fixture_plus(tmp_path, "historical.csv",
                                  "2012,OH," + "9" * 200_000 + ",3.9")
        out = tmp_path / "out"
        assert_rejected(calibrate(out, historical=hist), capsys, hist, line, out)

    def test_latin1_byte_in_polls_names_line(self, tmp_path, capsys):
        polls, line = fixture_plus(tmp_path, "polls.csv",
                                   "Caf\xe9,US,2016-10-01,500,LV,48,44",
                                   "B,US,2016-10-02,500,LV,48,44", encoding="latin-1")
        out = tmp_path / "out"
        err = assert_rejected(calibrate(out, polls), capsys, polls, line, out)
        assert "UTF-8" in err

    def test_latin1_byte_in_table_names_its_line(self, tmp_path, capsys):
        hist, line = fixture_plus(tmp_path, "histograms.csv", "Caf\xe9,232,1.0",
                                  encoding="latin-1")
        assert line == 65
        code = run_cli("score", "--histograms", hist, "--ev-realization", "232",
                       "--metrics", "selten", "--out-dir", tmp_path)
        assert_rejected(code, capsys, hist, line)

    def test_latin1_byte_after_carriage_returns_names_its_line(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        hist.write_bytes(b"forecaster,ev,p\rA,232,0.5\rB\xe9,232,0.5\r")
        code = run_cli("score", "--histograms", hist, "--ev-realization", "232",
                       "--metrics", "selten", "--out-dir", tmp_path)
        assert_rejected(code, capsys, hist, 3)

    def test_polls_missing_column_names_file(self, tmp_path, capsys):
        polls = tmp_path / "polls.csv"
        polls.write_text("pollster,state,date,sample_size,sample_type,pct_c1\n"
                         "A,US,2016-10-01,500,LV,48\n")
        err = assert_rejected(calibrate(tmp_path, polls), capsys, polls, 1)
        assert "pct_c2" in err

    def test_historical_missing_column_names_file(self, tmp_path, capsys):
        hist = tmp_path / "historical.csv"
        hist.write_text("year,state,state_spread\n2012,OH,3.0\n")
        err = assert_rejected(calibrate(tmp_path, historical=hist), capsys, hist, 1)
        assert "national_spread" in err

    def test_skipped_poll_row_note_names_file_and_line(self, tmp_path, capsys):
        polls, line = fixture_plus(tmp_path, "polls.csv", "A,ZZ,2016-10-01,500,LV,48,44",
                                   "B,US,2016-10-01,0,LV,48,44")
        assert calibrate(tmp_path, polls) == 0
        err = capsys.readouterr().err
        assert (f"note: skipped 2 poll row(s) of {polls}; first at line {line}: "
                "unknown state code 'ZZ'") in err

    def test_skipped_historical_row_note_names_file_and_line(self, tmp_path, capsys):
        hist, line = fixture_plus(tmp_path, "historical.csv", "2012,OH,abc,3.9")
        assert calibrate(tmp_path, historical=hist) == 0
        err = capsys.readouterr().err
        assert f"note: skipped 1 historical row(s) of {hist}; first at line {line}: " in err


class TestEvTable:
    def forecast(self, tmp_path, ev_lines, header="state,ev"):
        ev = tmp_path / "ev.csv"
        ev.write_text(header + "\n" + "".join(line + "\n" for line in ev_lines))
        cal = write_calibration(tmp_path / "cal.json")
        out = tmp_path / "out"
        code = run_cli("forecast", "--calibration", cal, "--ev-table", ev,
                       "--seed", "5", "--paths", "200", "--out-dir", out)
        return code, ev, out

    def lines(self, **changes):
        table = {**default_ev_table(), **changes}
        return [f"{s},{v}" for s, v in table.items()]

    def test_bundled_table_runs(self, tmp_path):
        assert self.forecast(tmp_path, self.lines())[0] == 0

    def test_negative_votes_name_line(self, tmp_path, capsys):
        lines = self.lines(AL=-1, CA=65)
        code, ev, out = self.forecast(tmp_path, lines)
        assert_rejected(code, capsys, ev, 2 + lines.index("AL,-1"), out)

    def test_state_listed_twice_names_line(self, tmp_path, capsys):
        lines = self.lines()
        lines.append(lines[0])
        code, ev, out = self.forecast(tmp_path, lines)
        err = assert_rejected(code, capsys, ev, 1 + len(lines), out)
        assert f"state {lines[0][:2]} is listed twice" in err

    def test_non_integer_votes_name_line(self, tmp_path, capsys):
        lines = self.lines(OH="x")
        code, ev, out = self.forecast(tmp_path, lines)
        assert_rejected(code, capsys, ev, 2 + lines.index("OH,x"), out)

    def test_wrong_total_names_file(self, tmp_path, capsys):
        code, ev, out = self.forecast(tmp_path, self.lines(CA=50))
        err = assert_rejected(code, capsys, ev, out_dir=out)
        assert "538" in err

    def test_missing_column_names_file(self, tmp_path, capsys):
        code, ev, out = self.forecast(tmp_path, self.lines(), header="state,votes")
        err = assert_rejected(code, capsys, ev, 1, out)
        assert "missing column(s) ev" in err


# The flag names of each subcommand, besides the common ones; the settings
# table must keep every one of them.
COMMAND_FLAGS = {
    "forecast": {"--polls", "--historical", "--ev-table", "--calibration",
                 "--election-date", "--bandwidth", "--noise-model", "--win-threshold"},
    "calibrate": {"--polls", "--historical", "--ev-table", "--election-date",
                  "--bandwidth"},
    "score": {"--series", "--outcomes", "--histograms", "--ev-table",
              "--ev-realization", "--metrics"},
    "trade": {"--experts", "--reference-file", "--reference", "--outcomes", "--loss"},
    "aggregate": {"--experts", "--reference-file", "--loss"},
    "curves": set(),
}


def test_subcommands_accept_the_same_flags():
    common = {"-h", "--help", "--config", "--out-dir", "--seed", "--paths", "--workers"}
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(COMMAND_FLAGS)
    for name, parser in subparsers.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags == common | COMMAND_FLAGS[name], name


def test_flags_land_on_their_fields():
    args = cli.build_parser().parse_args(
        ["trade", "--reference", "pairmean", "--reference-file", "r.csv",
         "--loss", "trading", "--seed", "4"])
    cfg = cli._apply_overrides(cli.RunConfig(), args)
    assert (cfg.reference_mode, cfg.reference, cfg.loss, cfg.seed) == (
        "pairmean", "r.csv", "trading", 4)


def test_metric_tables_come_from_scoring():
    from statecast import scoring
    assert list(cli._BINARY_SCORERS) == list(scoring.BINARY_METRICS)
    assert list(cli._DENSITY_SCORERS) == list(scoring.DENSITY_METRICS)
    assert set(cli._CURVE_METRICS) == set(scoring._DENSITY_FNS)
    assert cli._DENSITY_SCORERS is not scoring._DENSITY_FNS
    assert "log" not in cli._DENSITY_SCORERS


# ---------------------------------------------------------------------------
# property: arbitrary text in the numeric cells never escapes as a traceback
# or a NaN score

EDGE_CELLS = st.sampled_from(["nan", "inf", "-inf", "-3", "600", "538", "0", "-0",
                               "1", "1e308", "5e-324", " 0.25 ", "1_0"])
CELL = st.one_of(
    EDGE_CELLS, EDGE_CELLS,
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
)


def _edit(rows, edits, columns):
    rows = [dict(r) for r in rows]
    for (i, col), text in edits.items():
        rows[i % len(rows)][columns[col % len(columns)]] = text
    return rows


def _write(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


with open(FIXTURES / "histograms.csv", newline="") as _fh:
    HIST_ROWS = list(csv.DictReader(_fh))
with open(FIXTURES / "series.csv", newline="") as _fh:
    SERIES_ROWS = list(csv.DictReader(_fh))
EDITS = st.dictionaries(st.tuples(st.integers(0, 200), st.integers(0, 1)), CELL,
                        max_size=3)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(hist_edits=EDITS, series_edits=EDITS)
def test_arbitrary_cells_exit_cleanly(hist_edits, series_edits):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write(tmp / "h.csv", _edit(HIST_ROWS, hist_edits, ("ev", "p")))
        _write(tmp / "s.csv", _edit(SERIES_ROWS, series_edits, ("p", "p")))
        code = run_cli("score", "--series", tmp / "s.csv",
                       "--outcomes", FIXTURES / "outcomes.csv",
                       "--histograms", tmp / "h.csv", "--ev-realization", "232",
                       "--out-dir", tmp / "out")
        assert code in (0, 1)
        if code == 0:
            for row in json.loads((tmp / "out" / "scores.json").read_text()):
                value = float(row["value"])
                assert math.isfinite(value) or value == -math.inf, row


with open(FIXTURES / "polls.csv", newline="") as _fh:
    POLL_ROWS = list(csv.DictReader(_fh))
with open(FIXTURES / "historical.csv", newline="") as _fh:
    HISTORICAL_ROWS = list(csv.DictReader(_fh))
EV_ROWS = [{"state": s, "ev": str(v)} for s, v in default_ev_table().items()]
TABLE_EDITS = st.dictionaries(st.tuples(st.integers(0, 200), st.integers(0, 6)), CELL,
                              max_size=3)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(poll_edits=TABLE_EDITS, hist_edits=TABLE_EDITS, ev_edits=TABLE_EDITS)
def test_arbitrary_cells_in_ingested_tables(poll_edits, hist_edits, ev_edits):
    """A calibration from edited polls, historical and EV files exits 0 or 1,
    and each poll or historical data row is either parsed or skipped, once."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        polls = _edit(POLL_ROWS, poll_edits, list(POLL_ROWS[0]))
        historical = _edit(HISTORICAL_ROWS, hist_edits, list(HISTORICAL_ROWS[0]))
        _write(tmp / "polls.csv", polls)
        _write(tmp / "historical.csv", historical)
        _write(tmp / "ev.csv", _edit(EV_ROWS, ev_edits, ("state", "ev")))
        code = calibrate(tmp / "out", tmp / "polls.csv", tmp / "historical.csv",
                         "--ev-table", tmp / "ev.csv")
        assert code in (0, 1)
        for path, rows, read in ((tmp / "polls.csv", polls, lambda f: parse_polls(f, ELECTION)),
                                 (tmp / "historical.csv", historical, load_historical)):
            try:
                result = read(path)
            except IngestError:
                continue  # a fault of the file itself stops the read
            assert len(result.records) + result.n_skipped == len(rows)
            lines = [line for line, _ in result.skipped]
            assert len(set(lines)) == len(lines) and all(line > 1 for line in lines)
