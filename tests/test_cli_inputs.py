"""Malformed CLI inputs: each ends with exit 1 and one stderr line naming the
file (and the line, for a row-level fault), never with a traceback or an
output holding NaN."""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
import operator
import tempfile
import warnings
from datetime import date
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecast import cli, scoring, simulation
from statecast.calibration import (
    SOURCE_POLLS,
    MarketCalibration,
    StateCalibration,
    calibration_to_dict,
)
from statecast.errors import IngestError
from statecast.ingest import load_historical, parse_polls
from statecast.states import default_ev_table, load_ev_table

from test_cli import FIXTURES, run_cli


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

    @pytest.mark.parametrize("row", ["A,232,0.5", " A ,0232 ,0.25"])
    def test_repeated_bin_names_line(self, tmp_path, capsys, row):
        hist = tmp_path / "h.csv"
        hist.write_text(f"forecaster,ev,p\nA,232,0.5\nB,232,0.5\n{row}\n")
        out = tmp_path / "out"
        err = assert_rejected(self.score(hist, out), capsys, hist, 4, out)
        assert err == f"error [score]: {hist}:4: ev 232 of A is repeated\n"

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

    @pytest.mark.parametrize("given,missing", [
        ([], "--histograms"),
        (["--histograms", FIXTURES / "histograms.csv"], "--ev-realization")])
    def test_missing_density_setting_is_the_only_line(self, tmp_path, capsys, given, missing):
        # checked with the series and outcomes settings, before the series
        # is read and scored: its -inf log-likelihood note is not printed
        series, out = tmp_path / "s.csv", tmp_path / "out"
        series.write_text("forecaster,state,date,p\nF,US,2016-11-01,0.0\n")
        code = run_cli("score", "--series", series, "--outcomes", FIXTURES / "outcomes.csv",
                       *given, "--out-dir", out)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error [score]: score needs {missing}\n")
        assert not list(out.glob("*"))

    def outputs(self, tmp_path, name, rows):
        """Each output file's bytes of scoring the series file of ``rows``."""
        series, out = tmp_path / f"{name}.csv", tmp_path / name
        series.write_text("forecaster,state,date,p\n" + "".join(f"{r}\n" for r in rows))
        assert self.score(series, out) == 0
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())}

    def test_interleaved_series_score_as_grouped(self, tmp_path):
        # the reader keeps the series of a run of rows: rows of two or more
        # series taken one by one each start a run
        lines = (FIXTURES / "series.csv").read_text().splitlines()[1:]
        runs = {}
        for line in lines:
            runs.setdefault(tuple(line.split(",")[:2]), []).append(line)
        assert len(runs) > 2
        interleaved = [line for rows in itertools.zip_longest(*runs.values())
                       for line in rows if line is not None]
        assert interleaved != lines
        assert (self.outputs(tmp_path, "interleaved", interleaved)
                == self.outputs(tmp_path, "grouped", lines))

    def test_date_repeated_in_a_later_run_names_its_line(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "F,US,2016-11-01,0.5\nG,US,2016-11-01,0.5\nF,US,2016-11-01,0.6\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 4)
        assert "date 2016-11-01 is repeated" in err

    def test_alternating_state_cells_are_one_series(self, tmp_path):
        days = [f"2016-11-0{d},0.{d}" for d in range(1, 6)]
        alternating = [f"F,{'us' if i % 2 else 'US'},{day}" for i, day in enumerate(days)]
        assert (self.outputs(tmp_path, "alternating", alternating)
                == self.outputs(tmp_path, "one", [f"F,US,{day}" for day in days]))

    def test_bad_probability_is_reported_before_bad_date(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "F,US,2016-11-01,0.5\nF,US,2016-13-45,1.5\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 3)
        assert "'1.5' is not a probability in [0, 1]" in err

    @pytest.mark.parametrize("text,reason", [
        ("2016-13-45", "month must be in 1..12"),
        ("20161102", "Invalid isoformat string: '20161102'"),
        ("2016-W44-3", "Invalid isoformat string: '2016-W44-3'"),
    ])
    def test_bad_date_names_line(self, tmp_path, capsys, text, reason):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          f"F,US,2016-11-01,0.5\nF,US,{text},0.6\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 3)
        assert err == f"error [score]: {series}:3: {reason}\n"

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

    @pytest.mark.parametrize("state", ["", "ZZ"])
    def test_unknown_series_state_names_its_row(self, tmp_path, capsys, state):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          f"F,US,2016-11-01,0.5\nF,{state},2016-11-01,0.4\n")
        err = assert_rejected(self.score(series, tmp_path), capsys, series, 3)
        assert f"unknown state code {state!r}" in err

    def test_unknown_outcome_state_names_line(self, tmp_path, capsys):
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\nF,US,2016-11-01,0.5\nF,ZZ,2016-11-01,0.4\n")
        outcomes = tmp_path / "o.csv"
        outcomes.write_text("state,omega\nUS,1\nZZ,0\n")
        err = assert_rejected(self.score(series, tmp_path, outcomes), capsys, outcomes, 3)
        assert "unknown state code 'ZZ'" in err

    def test_state_missing_from_ev_table_names_its_row(self, tmp_path, capsys):
        # a custom table with DC's 3 votes folded into MD's
        table = default_ev_table()
        table["MD"] += table.pop("DC")
        ev = tmp_path / "ev.csv"
        ev.write_text("state,ev\n" + "".join(f"{s},{v}\n" for s, v in table.items()))
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "F,US,2016-11-01,0.5\nF,DC,2016-11-01,0.9\n")
        outcomes = tmp_path / "o.csv"
        outcomes.write_text("state,omega\nUS,1\nDC,1\n")
        code = run_cli("score", "--series", series, "--outcomes", outcomes,
                       "--ev-table", ev, "--metrics", "brier", "--out-dir", tmp_path)
        err = assert_rejected(code, capsys, series, 3)
        assert "state DC has no EV table entry" in err

    def test_forecaster_of_zero_vote_states_is_named(self, tmp_path, capsys):
        # a custom table with WY's 3 votes moved to CA: the EV-weighted score
        # of a WY-only forecaster was 0 / 0, written as nan
        table = default_ev_table()
        table["CA"] += table["WY"]
        table["WY"] = 0
        ev = tmp_path / "ev.csv"
        ev.write_text("state,ev\n" + "".join(f"{s},{v}\n" for s, v in table.items()))
        series = tmp_path / "s.csv"
        series.write_text("forecaster,state,date,p\n"
                          "A,WY,2016-11-01,0.9\nB,CA,2016-11-01,0.8\n")
        outcomes = tmp_path / "o.csv"
        outcomes.write_text("state,omega\nWY,1\nCA,1\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("score", "--series", series, "--outcomes", outcomes,
                           "--ev-table", ev, "--metrics", "brier", "--out-dir", out)
        assert code == 1
        assert capsys.readouterr().err == (
            "error [score]: forecaster A: the electoral votes of WY sum to 0\n")
        assert not list(out.glob("*"))

    def test_us_series_without_us_outcome_names_its_row(self, tmp_path, capsys):
        series = FIXTURES / "series.csv"
        line = 2 + [r["state"] for r in SERIES_ROWS].index("US")  # after the header
        outcomes = tmp_path / "o.csv"
        outcomes.write_text("".join(row for row in
                                    (FIXTURES / "outcomes.csv").read_text().splitlines(True)
                                    if not row.startswith("US,")))
        out = tmp_path / "out"
        code = run_cli("score", "--series", series, "--outcomes", outcomes,
                       "--metrics", "brier", "--out-dir", out)
        err = assert_rejected(code, capsys, series, line, out)
        assert err == f"error [score]: {series}:{line}: no outcome recorded for US\n"
        assert not list(out.glob("scores_*.csv"))

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


def reversed_rows(src, dst):
    """Write ``src``'s header and then its rows in reverse order to ``dst``."""
    header, *rows = src.read_text().splitlines()
    dst.write_text("\n".join([header, *reversed(rows)]) + "\n")
    return dst


def output_bytes(out_dir):
    return {p.name: p.read_bytes() for p in Path(out_dir).iterdir()}


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
        assert "date 2016-10-01 is repeated" in err

    def test_reversed_reference_gives_the_fixture_bytes(self, tmp_path):
        ref = reversed_rows(FIXTURES / "reference.csv", tmp_path / "ref.csv")
        experts = FIXTURES / "experts.csv"
        assert self.trade(experts, FIXTURES / "reference.csv", tmp_path / "a") == 0
        assert self.trade(experts, ref, tmp_path / "b") == 0
        assert output_bytes(tmp_path / "b") == output_bytes(tmp_path / "a")

    @pytest.mark.parametrize("command", ["trade", "aggregate"])
    def test_reversed_panel_gives_the_fixture_bytes(self, tmp_path, command):
        experts = reversed_rows(FIXTURES / "experts.csv", tmp_path / "experts.csv")
        for panel, out in ((FIXTURES / "experts.csv", "a"), (experts, "b")):
            assert run_cli(command, "--experts", panel,
                           "--reference-file", FIXTURES / "reference.csv",
                           "--out-dir", tmp_path / out) == 0
        assert output_bytes(tmp_path / "b") == output_bytes(tmp_path / "a")

    def test_reference_row_with_bad_date_and_price_names_the_date(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        ref.write_text("date,price\n2016-10-01,0.5\n2016-13-01,1.5\n")
        err = assert_rejected(self.trade(FIXTURES / "experts.csv", ref, tmp_path),
                              capsys, ref, 3)
        assert err == f"error [trade]: {ref}:3: month must be in 1..12\n"

    @pytest.mark.parametrize("command", ["trade", "aggregate"])
    @pytest.mark.parametrize("header,other,name,safe", [
        ("date,a b,a_b", "expert 'a b'", "a_b", "a_b"),
        ("date,x/y,B,x y", "expert 'x/y'", "x y", "x_y"),
        ("date,A,ONLINE", "the online mixture", "ONLINE", "ONLINE"),
        ("date,summary,B", "the P&L summary", "summary", "summary"),
    ], ids=["space", "slash", "online", "summary"])
    def test_expert_output_names_collide(self, tmp_path, capsys, command, header, other,
                                         name, safe):
        n = header.count(",")
        experts = tmp_path / "experts.csv"
        experts.write_text(f"{header}\n2016-10-01{',0.5' * n}\n2016-10-02{',0.6' * n}\n")
        out = tmp_path / "out"
        code = run_cli(command, "--experts", experts,
                       "--reference-file", FIXTURES / "reference.csv", "--out-dir", out)
        err = assert_rejected(code, capsys, experts, 1)
        assert err == (f"error [{command}]: {experts}:1: expert {name!r} and {other} "
                       f"both have the output name {safe}\n")
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command", ["trade", "aggregate"])
    @pytest.mark.parametrize("name", ["x" * 300, "x" * 248, "é" * 124, "a\0b"],
                             ids=["300", "256_bytes", "256_utf8_bytes", "nul"])
    def test_expert_name_that_cannot_name_a_file(self, tmp_path, capsys, command, name):
        experts = tmp_path / "experts.csv"
        experts.write_text(f"date,A,{name}\n2016-10-01,0.5,0.5\n2016-10-02,0.6,0.6\n")
        out = tmp_path / "out"
        code = run_cli(command, "--experts", experts,
                       "--reference-file", FIXTURES / "reference.csv", "--out-dir", out)
        err = assert_rejected(code, capsys, experts, 1)
        if "line contains NUL" not in err:  # Python 3.10's CSV reader refuses a NUL
            assert err == (f"error [{command}]: {experts}:1: expert {name!r} has no "
                           "usable output file name: pnl_<output name>.csv holds a NUL "
                           "byte or is over 255 bytes of UTF-8\n")
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command", ["trade", "aggregate"])
    def test_longest_expert_name_is_a_file_name(self, tmp_path, command):
        name = "x" * 247  # pnl_<name>.csv is 255 bytes
        experts = tmp_path / "experts.csv"
        experts.write_text(f"date,{name}\n2016-10-01,0.5\n2016-10-02,0.6\n")
        out = tmp_path / "out"
        assert run_cli(command, "--experts", experts,
                       "--reference-file", FIXTURES / "reference.csv", "--out-dir", out) == 0
        assert (out / f"pnl_{name}.csv").exists() == (command == "trade")

    @pytest.mark.parametrize("command", ["trade", "aggregate"])
    @pytest.mark.parametrize("header,rows,column", [
        ("date,,CAPM", ["2016-10-01,x,0.5", "2016-10-02,y,0.5"], 2),
        ("date,CAPM, ", ["2016-10-01,0.5,x", "2016-10-02,0.5,y"], 3),
        (",date,CAPM", ["x,2016-10-01,0.5", "y,2016-10-02,0.5"], 1),
    ], ids=["empty", "blank", "first"])
    def test_unnamed_panel_column_names_file(self, tmp_path, capsys, command, header, rows,
                                             column):
        experts = tmp_path / "experts.csv"
        experts.write_text("\n".join([header, *rows]) + "\n")
        out = tmp_path / "out"
        code = run_cli(command, "--experts", experts,
                       "--reference-file", FIXTURES / "reference.csv", "--out-dir", out)
        err = assert_rejected(code, capsys, experts, 1)
        assert err == f"error [{command}]: {experts}:1: column {column} has no name\n"
        assert not list(out.glob("*"))

    def test_reference_file_ignores_unnamed_columns(self, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("".join(line + ",\n" for line in
                               (FIXTURES / "reference.csv").read_text().splitlines()))
        assert self.trade(FIXTURES / "experts.csv", FIXTURES / "reference.csv",
                          tmp_path / "a") == 0
        assert self.trade(FIXTURES / "experts.csv", ref, tmp_path / "b") == 0
        assert output_bytes(tmp_path / "b") == output_bytes(tmp_path / "a")

    @pytest.mark.parametrize("text", ["20161003", "2016-W40-1", "2016-10-3"])
    def test_bad_reference_date_names_line(self, tmp_path, capsys, text):
        ref = tmp_path / "ref.csv"
        ref.write_text(f"date,price\n2016-10-01,0.5\n{text},0.6\n")
        err = assert_rejected(self.trade(FIXTURES / "experts.csv", ref, tmp_path),
                              capsys, ref, 3)
        assert err == f"error [trade]: {ref}:3: Invalid isoformat string: {text!r}\n"

    @pytest.mark.parametrize("text", ["20161002", "2016-W39-7", " 2016-10-2"])
    def test_bad_panel_date_names_line(self, tmp_path, capsys, text):
        experts = tmp_path / "experts.csv"
        experts.write_text(f"date,A,B\n2016-10-01,0.5,0.5\n{text},0.5,0.6\n")
        err = assert_rejected(self.trade(experts, FIXTURES / "reference.csv", tmp_path),
                              capsys, experts, 3)
        assert err == (f"error [trade]: {experts}:3: "
                       f"Invalid isoformat string: {text.strip()!r}\n")

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

    def test_unknown_outcome_state_names_line(self, tmp_path, capsys):
        outcomes = tmp_path / "o.csv"
        outcomes.write_text("state,omega\nUS,1\nZZ,0\n")
        code = run_cli("trade", "--experts", FIXTURES / "experts.csv",
                       "--reference-file", FIXTURES / "reference.csv",
                       "--outcomes", outcomes, "--out-dir", tmp_path)
        err = assert_rejected(code, capsys, outcomes, 3)
        assert "unknown state code 'ZZ'" in err

    @pytest.mark.parametrize("command", ["trade", "aggregate"])
    def test_panel_date_without_reference_price_names_line(self, tmp_path, capsys, command):
        ref = tmp_path / "ref.csv"
        ref.write_text("".join(line for line in
                               (FIXTURES / "reference.csv").read_text().splitlines(True)
                               if not line.startswith("2016-10-03")))
        experts = FIXTURES / "experts.csv"
        code = run_cli(command, "--experts", experts, "--reference-file", ref,
                       "--out-dir", tmp_path)
        err = assert_rejected(code, capsys, experts, 4)
        assert err == (f"error [{command}]: {experts}:4: "
                       "date 2016-10-03 has no reference price\n")

    @pytest.mark.parametrize("command", ["trade", "aggregate"])
    def test_header_only_panel_names_file(self, tmp_path, capsys, command):
        experts = tmp_path / "p.csv"
        experts.write_text("date,A,B\n")
        out = tmp_path / "out"
        code = run_cli(command, "--experts", experts,
                       "--reference-file", FIXTURES / "reference.csv", "--out-dir", out)
        err = assert_rejected(code, capsys, experts)
        assert err == f"error [{command}]: {experts}: no rows\n"

    @pytest.mark.parametrize("command", ["trade", "aggregate"])
    def test_panel_without_an_expert_names_file(self, tmp_path, capsys, command):
        experts = tmp_path / "p.csv"
        experts.write_text("date\n2016-10-01\n2016-10-02\n")
        out = tmp_path / "out"
        code = run_cli(command, "--experts", experts,
                       "--reference-file", FIXTURES / "reference.csv", "--out-dir", out)
        err = assert_rejected(code, capsys, experts)
        assert err == f"error [{command}]: {experts}: panel needs at least one expert\n"
        assert not list(out.glob("*"))

    def test_single_date_panel_is_refused_by_aggregate(self, tmp_path, capsys):
        experts = tmp_path / "p.csv"
        experts.write_text("date,A,B\n2016-10-02,0.5,0.6\n")
        out = tmp_path / "out"
        code = run_cli("aggregate", "--experts", experts,
                       "--reference-file", FIXTURES / "reference.csv", "--out-dir", out)
        err = assert_rejected(code, capsys, experts)
        assert err == (f"error [aggregate]: {experts}: "
                       "aggregate needs a panel of 2 or more dates\n")
        assert not list(out.glob("*"))

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

    def test_state_missing_from_document_names_file(self, tmp_path, capsys):
        cal = write_calibration(tmp_path / "cal.json")
        doc = json.loads(cal.read_text())
        del doc["states"]["AK"]
        cal.write_text(json.dumps(doc))
        out = tmp_path / "out"
        err = assert_rejected(self.forecast(cal, out), capsys, cal)
        assert "AK" in err
        assert not (out / "forecast.json").exists()

    def test_unknown_state_key_names_file(self, tmp_path, capsys):
        cal = write_calibration(tmp_path / "cal.json")
        doc = json.loads(cal.read_text())
        doc["states"]["ZZ"] = dict(doc["states"]["OH"], state="ZZ")
        cal.write_text(json.dumps(doc))
        out = tmp_path / "out"
        err = assert_rejected(self.forecast(cal, out), capsys, cal, out_dir=out)
        assert err == f"error [forecast]: {cal}: states: unknown state code 'ZZ'\n"
        assert not list(out.glob("*"))

    def test_state_field_not_its_key_names_file_and_state(self, tmp_path, capsys):
        cal = write_calibration(tmp_path / "cal.json", state_fields={"state": "PA"})
        out = tmp_path / "out"
        err = assert_rejected(self.forecast(cal, out), capsys, cal, out_dir=out)
        assert err == f"error [forecast]: {cal}: state OH: its state field is 'PA'\n"
        assert not list(out.glob("*"))

    def test_state_keyed_twice_names_file_and_state(self, tmp_path, capsys):
        cal = write_calibration(tmp_path / "cal.json")
        doc = json.loads(cal.read_text())
        doc["states"]["oh"] = doc["states"]["OH"]
        cal.write_text(json.dumps(doc))
        err = assert_rejected(self.forecast(cal, tmp_path / "out"), capsys, cal)
        assert err == f"error [forecast]: {cal}: state OH is listed twice\n"

    def test_integer_horizon_past_int64_is_read_as_a_float(self, tmp_path):
        # numpy refused the Python int 2**70 with a TypeError, a traceback
        cal = write_calibration(tmp_path / "cal.json", market_fields={"horizon": 2**70})
        out = tmp_path / "out"
        assert self.forecast(cal, out) == 0
        assert (out / "timeseries.csv").read_text().splitlines()[1].startswith(
            f"{float(2**70)!r},")

    @pytest.mark.parametrize("state_fields,market_fields,where", [
        ({}, {"horizon": 2**1100}, "market: horizon"),
        ({"alpha": -2**1100}, {}, "state OH: alpha"),
    ], ids=["market", "state"])
    def test_integer_too_large_for_a_float_names_file_and_field(
            self, tmp_path, capsys, state_fields, market_fields, where):
        cal = write_calibration(tmp_path / "cal.json", state_fields, market_fields)
        out = tmp_path / "out"
        err = assert_rejected(self.forecast(cal, out), capsys, cal, out_dir=out)
        assert err == (f"error [forecast]: {cal}: {where} must be a finite number, "
                       "got an integer too large for a float\n")

    def test_document_without_market_names_file(self, tmp_path, capsys):
        cal = write_calibration(tmp_path / "cal.json")
        doc = json.loads(cal.read_text())
        del doc["market"]
        cal.write_text(json.dumps(doc))
        out = tmp_path / "out"
        err = assert_rejected(self.forecast(cal, out), capsys, cal, out_dir=out)
        assert err == (f"error [forecast]: {cal}: calibration document has no market "
                       "block; cannot simulate\n")
        assert not list(out.glob("*"))

    def test_nan_market_volatility_names_file(self, tmp_path, capsys):
        cal = write_calibration(tmp_path / "cal.json",
                                market_fields={"sigma_samp": float("nan")})
        out = tmp_path / "out"
        assert_rejected(self.forecast(cal, out), capsys, cal, out_dir=out)

    @pytest.mark.parametrize("fields,reason", [
        ({"sigma_m": -1.0}, "volatilities must be nonnegative"),
        ({"horizon": -1.0}, "horizon must be nonnegative"),
    ], ids=["volatility", "horizon"])
    def test_negative_market_field_names_file(self, tmp_path, capsys, fields, reason):
        cal = write_calibration(tmp_path / "cal.json", market_fields=fields)
        out = tmp_path / "out"
        err = assert_rejected(self.forecast(cal, out), capsys, cal, out_dir=out)
        assert err == f"error [forecast]: {cal}: market: {reason}\n"
        assert not list(out.glob("*"))


OUT_OF_RANGE_FLAGS = [
    ("forecast", "--paths", "0"), ("forecast", "--paths", str(2**53 + 1)),
    ("forecast", "--workers", "0"),
    ("forecast", "--seed", "-1"), ("forecast", "--seed", str(2**64)),
    ("forecast", "--bandwidth", "0"), ("calibrate", "--bandwidth", "-1"),
    ("score", "--ev-realization", "600"), ("score", "--ev-realization", "-1"),
]


class TestConfigValues:
    """Each setting's flag parses its value as the field's type, within its
    range and choices; a bad value is a usage error (exit 2) that writes
    nothing."""

    @pytest.mark.parametrize("flag,text", [
        ("--seed", "1e3"), ("--paths", "1e3"), ("--seed", "true"), ("--seed", "7.0"),
        ("--noise-model", "t"), ("--noise-model", "Student_T"), ("--bandwidth", "nan"),
        # settings that are gone
        ("--realization", "2"), ("--nu", "5"), ("--sigma-alpha", "0.1"),
        ("--sigma-beta", "1"), ("--min-polls", "3"), ("--sigma-samp", "1"),
    ])
    def test_bad_flag_value_is_usage_error(self, tmp_path, flag, text):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("forecast", "--calibration", FIXTURES / "calibration.json",
                    "--seed", "5", "--paths", "200", flag, text, "--out-dir", out)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, (_, _, keys) in cli._COMMANDS.items()
        for key in keys if key in cli._CHOICES])
    def test_bad_choice_is_usage_error(self, tmp_path, capsys, command, key):
        flag = "--" + key.replace("_", "-")
        for value in cli._CHOICES[key]:
            args = cli.build_parser().parse_args([command, flag, value])
            assert getattr(args, key) == value
        out = tmp_path / "out"
        for text in ("banana", cli._CHOICES[key][-1].title()):
            with pytest.raises(SystemExit) as exc:
                run_cli(command, flag, text, "--out-dir", out)
            assert exc.value.code == 2
            assert f"argument {flag}: invalid choice: {text!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_choice_settings_are_pinned(self):
        assert cli._CHOICES == {"noise_model": ("gaussian", "student_t"),
                                "loss": ("quadratic", "trading"),
                                "reference": ("market", "pairmean")}

    def test_float_flag_takes_integer_literal_as_float(self):
        args = cli.build_parser().parse_args(["forecast", "--bandwidth", "1",
                                              "--win-threshold", "270"])
        assert args.bandwidth == 1.0 and isinstance(args.bandwidth, float)
        assert args.win_threshold == 270.0 and isinstance(args.win_threshold, float)

    def test_non_finite_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("forecast", "--bandwidth", "inf", "--out-dir", tmp_path)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag,text", OUT_OF_RANGE_FLAGS)
    def test_out_of_range_flag_is_usage_error(self, tmp_path, command, flag, text):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, flag, text, "--out-dir", tmp_path)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command,flag,text", OUT_OF_RANGE_FLAGS, ids=[
        "paths", "paths_above_2**53", "workers", "seed", "seed_above_2**64-1",
        "bandwidth", "calibrate_bandwidth", "ev_realization", "ev_realization_below_0"])
    def test_out_of_range_flag_names_its_range(self, tmp_path, capsys, command, flag, text):
        with pytest.raises(SystemExit):
            run_cli(command, flag, text, "--out-dir", tmp_path)
        key = flag[2:].replace("-", "_")
        allowed = {"seed": f"in 0..{2**64 - 1}", "paths": f"in 1..{2**53}",
                   "workers": ">= 1", "bandwidth": "> 0", "ev_realization": "in 0..538"}[key]
        assert (f"argument {flag}: invalid {key} ({allowed}) value: {text!r}"
                in capsys.readouterr().err)

    def test_range_ends_are_accepted(self):
        for argv, key, value in [
            (["forecast", "--seed", "0"], "seed", 0),
            (["forecast", "--seed", str(2**64 - 1)], "seed", 2**64 - 1),
            (["forecast", "--paths", "1"], "paths", 1),
            (["forecast", "--paths", str(2**53)], "paths", 2**53),
            (["forecast", "--workers", "1"], "workers", 1),
            (["forecast", "--bandwidth", "1e-300"], "bandwidth", 1e-300),
            (["score", "--ev-realization", "0"], "ev_realization", 0),
            (["score", "--ev-realization", "538"], "ev_realization", 538),
        ]:
            args = cli.build_parser().parse_args(argv)
            assert getattr(args, key) == value, argv

    def test_path_count_too_large_to_allocate_is_one_line(self, tmp_path, capsys, monkeypatch):
        # The simulator holds one tile of paths, so no accepted path count
        # fails to allocate; with a tile larger than the count, its 2**53
        # doubles are 64 PiB: more than any address space holds, yet under
        # numpy's size-overflow limit, so the allocation fails at once with
        # numpy's private MemoryError subclass and touches no memory.
        monkeypatch.setattr(simulation, "_TILE", 2**59)
        out = tmp_path / "out"
        code = run_cli("forecast", "--calibration", FIXTURES / "calibration.json",
                       "--noise-model", "student_t", "--seed", "1", "--paths", 2**53,
                       "--out-dir", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [forecast]: MemoryError: Unable to allocate 64.0 PiB"), err
        assert err.count("\n") == 1 and "_ArrayMemoryError" not in err, err
        assert not list(out.glob("*"))


class TestEmptyPaths:
    """An empty file setting names no file: its flag is a usage error.  It
    used to be read as "not given"."""

    @pytest.mark.parametrize("command,flag,rest", [
        ("calibrate", "--historical", ["--polls", FIXTURES / "polls.csv",
                                       "--election-date", "2016-11-08"]),
        ("forecast", "--calibration", ["--polls", FIXTURES / "polls.csv",
                                       "--historical", FIXTURES / "historical.csv",
                                       "--seed", "1", "--paths", "200"]),
        ("score", "--ev-table", ["--series", FIXTURES / "series.csv",
                                 "--outcomes", FIXTURES / "outcomes.csv",
                                 "--histograms", FIXTURES / "histograms.csv"]),
    ])
    def test_empty_flag_is_usage_error(self, tmp_path, capsys, command, flag, rest):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *rest, flag, "", "--out-dir", out)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid file_path value: ''" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, (_, _, keys) in cli._COMMANDS.items()
        for key in keys if cli._SETTINGS[key][0] is cli.file_path])
    def test_empty_file_flag_is_usage_error(self, tmp_path, capsys, command, key):
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, flag, "", "--out-dir", out)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid file_path value: ''" in capsys.readouterr().err
        assert not out.exists()

    def test_file_settings_are_the_optional_strings(self):
        assert {key for key, (parse, _) in cli._SETTINGS.items() if parse is cli.file_path} == {
            "polls", "historical", "ev_table", "experts", "series", "outcomes",
            "histograms", "reference_file", "calibration"}


class TestNeededSettings:
    """A run that needs a setting left unset stops with exit 1, one line
    naming its flag and no outputs.  The file settings given name absent
    files, the EV table included: each run is refused before it opens one."""

    @pytest.mark.parametrize("args,why,flag", [
        (["forecast"], "forecast without --calibration", "--polls"),
        (["forecast", "--ev-table", "absent"], "forecast without --calibration", "--polls"),
        (["forecast", "--polls", "absent"], "forecast without --calibration",
         "--election-date"),
        (["calibrate", "--historical", "absent"], "calibrate", "--polls"),
        (["calibrate", "--polls", "absent"], "calibrate", "--election-date"),
        (["score"], "score", "--series"),
        (["score", "--series", "absent"], "score", "--outcomes"),
        (["score", "--series", "absent", "--outcomes", "absent"], "score", "--histograms"),
        (["score", "--series", "absent", "--outcomes", "absent", "--histograms", "absent"],
         "score", "--ev-realization"),
        (["score", "--metrics", "brier", "loglik"], "--metrics brier loglik", "--series"),
        (["score", "--metrics", "brier", "--ev-table", "absent"], "--metrics brier", "--series"),
        (["score", "--metrics", "cdf", "--ev-realization", "0"], "--metrics cdf",
         "--histograms"),
        (["trade"], "trade", "--experts"),
        (["trade", "--reference", "pairmean"], "trade", "--experts"),
        (["trade", "--experts", "absent"], "trade", "--reference-file"),
        (["aggregate", "--reference-file", "absent"], "aggregate", "--experts"),
        (["aggregate", "--experts", "absent"], "aggregate", "--reference-file"),
        (["forecast", "--calibration", FIXTURES / "calibration.json",
          "--noise-model", "student_t"], "--noise-model student_t", "--seed"),
    ])
    def test_missing_setting_is_one_line_naming_its_flag(self, tmp_path, capsys, args, why,
                                                         flag):
        out = tmp_path / "out"
        args = [tmp_path / a if a == "absent" else a for a in args]
        assert run_cli(*args, "--out-dir", out) == 1
        assert capsys.readouterr().err == f"error [{args[0]}]: {why} needs {flag}\n"
        assert not list(out.glob("*"))


# 2016-13-45 is no day; the others are forms that only some Pythons read.
BAD_DATES = ("2016-13-45", "20161108", "2016-W45-2", "2016-11-8")


class TestElectionDate:
    def test_bad_flag_is_usage_error(self, tmp_path):
        for text in BAD_DATES:
            with pytest.raises(SystemExit) as exc:
                run_cli("calibrate", "--polls", FIXTURES / "polls.csv",
                        "--election-date", text, "--out-dir", tmp_path)
            assert exc.value.code == 2, text

    def test_bad_flag_names_flag_and_value(self, tmp_path, capsys):
        for text in BAD_DATES:
            with pytest.raises(SystemExit):
                run_cli("calibrate", "--polls", FIXTURES / "polls.csv",
                        "--election-date", text, "--out-dir", tmp_path)
            err = capsys.readouterr().err
            assert f"argument --election-date: invalid iso_date value: {text!r}" in err, text

    def test_flag_value_is_a_date(self):
        args = cli.build_parser().parse_args(["calibrate", "--election-date", "2016-11-08"])
        assert args.election_date == date(2016, 11, 8)


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

    def test_unclosed_quote_past_the_field_limit_names_its_line(self, tmp_path, capsys):
        # the reader stops at 131,072 characters, thousands of lines on
        rows = (FIXTURES / "polls.csv").read_text().splitlines(True)
        rows[9] = '"' + rows[9]
        polls = tmp_path / "polls.csv"
        polls.write_text("".join(rows) + "A,US,2016-10-01,500,LV,48,44\n" * 5000)
        out = tmp_path / "out"
        err = assert_rejected(calibrate(out, polls), capsys, polls, 10, out)
        assert "field larger than field limit (131072)" in err

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

    def test_flagged_historical_row_note_names_file_and_line(self, tmp_path, capsys):
        hist, line = fixture_plus(tmp_path, "historical.csv", "1968,OH,1.0,2.0")
        assert calibrate(tmp_path, historical=hist) == 0
        err = capsys.readouterr().err
        assert err == (f"note: flagged 1 historical row(s) of {hist}; first at line {line}: "
                       "year 1968 precedes 1976\n")

    def test_quoted_field_across_lines_still_parses(self, tmp_path, capsys):
        assert calibrate(tmp_path / "a") == 0
        plain = capsys.readouterr().err
        polls, _ = fixture_plus(tmp_path, "polls.csv", '"A', 'B",US,2016-10-01,500,LV,48,44')
        assert calibrate(tmp_path / "b", polls) == 0
        assert capsys.readouterr().err == plain

    @pytest.mark.parametrize("keep", [lambda row: row.split(",")[1] != "US",
                                      lambda row: False])
    def test_polls_without_national_row_name_file(self, tmp_path, capsys, keep):
        header, *rows = (FIXTURES / "polls.csv").read_text().splitlines(True)
        polls = tmp_path / "polls.csv"
        polls.write_text(header + "".join(filter(keep, rows)))
        out = tmp_path / "out"
        err = assert_rejected(calibrate(out, polls), capsys, polls, out_dir=out)
        assert err == f"error [calibrate]: {polls}: no national (US) poll row\n"
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command", ["forecast", "calibrate"])
    def test_national_polls_on_one_day_name_file(self, tmp_path, capsys, command):
        header, *rows = (FIXTURES / "polls.csv").read_text().splitlines()
        polls = tmp_path / "polls.csv"
        polls.write_text("\n".join([header, *(
            ",".join((c[0], c[1], "2016-10-01", *c[3:])) if c[1] == "US" else ",".join(c)
            for c in (row.split(",") for row in rows))]) + "\n")
        out = tmp_path / "out"
        seed = ["--seed", "1"] if command == "forecast" else []
        code = run_cli(command, "--polls", polls, "--historical", FIXTURES / "historical.csv",
                       "--election-date", "2016-11-08", *seed, "--out-dir", out)
        err = assert_rejected(code, capsys, polls, out_dir=out)
        assert err == f"error [{command}]: {polls}: need at least 2 grid points for sigma_m\n"
        assert not list(out.glob("*"))


# A '"' at the start of a line opens a quoted field that no later quote
# closes: read on, the rest of the file would be one field.  A tolerant table
# (polls, historical) and a strict one, each with the run that reads it, and
# a header.
UNCLOSED_QUOTE_RUNS = [
    ("polls.csv", 10, ["forecast", "--polls", "{}", "--historical", FIXTURES / "historical.csv",
                       "--election-date", "2016-11-08", "--seed", "1", "--paths", "300"]),
    ("historical.csv", 5, ["forecast", "--polls", FIXTURES / "polls.csv", "--historical", "{}",
                           "--election-date", "2016-11-08", "--seed", "1", "--paths", "300"]),
    ("outcomes.csv", 3, ["score", "--series", FIXTURES / "series.csv", "--outcomes", "{}",
                         "--metrics", "brier"]),
    ("outcomes.csv", 1, ["score", "--series", FIXTURES / "series.csv", "--outcomes", "{}",
                         "--metrics", "brier"]),
]


@pytest.mark.parametrize("name,line,args", UNCLOSED_QUOTE_RUNS,
                         ids=["polls", "historical", "strict", "header"])
def test_unclosed_quote_names_the_line_its_row_starts_on(tmp_path, capsys, name, line, args):
    lines = (FIXTURES / name).read_text().splitlines(True)
    lines[line - 1] = '"' + lines[line - 1]
    table = tmp_path / name
    table.write_text("".join(lines))
    out = tmp_path / "out"
    code = run_cli(*(table if a == "{}" else a for a in args), "--out-dir", out)
    err = assert_rejected(code, capsys, table, line, out)
    assert err == (f"error [{args[0]}]: {table}:{line}: "
                   "a quoted field is still open at the end of the file\n")
    assert not list(out.glob("*"))


# Quoting follows the csv module's strict rule.  A row's first line is
# named, the first data row (line 2) included.
@pytest.mark.parametrize("row,reason", [
    ('NatPoll0,US,2016-08-20,900,LV,"5"6.0,36.0', "',' expected after '\"'"),
    ('NatPoll0,US,2016-08-20,900,LV,"56.0,36.0',
     "a quoted field is still open at the end of the file"),
], ids=["text-after-quote", "unclosed"])
def test_bad_quoting_on_the_first_poll_row_names_line_2(tmp_path, capsys, row, reason):
    lines = (FIXTURES / "polls.csv").read_text().splitlines(True)
    assert lines[1] == row.replace('"', "") + "\n"  # the row, unquoted
    lines[1] = row + "\n"
    polls = tmp_path / "polls.csv"
    polls.write_text("".join(lines))
    out = tmp_path / "out"
    err = assert_rejected(calibrate(out, polls), capsys, polls, 2, out)
    assert err == f"error [calibrate]: {polls}:2: {reason}\n"
    assert not list(out.glob("*"))


def test_text_after_a_closing_quote_names_its_row(tmp_path, capsys):
    lines = (FIXTURES / "outcomes.csv").read_text().splitlines(True)
    state, omega = lines[2].rstrip("\n").split(",")
    lines[2] = f'"{state}"x,{omega}\n'
    table = tmp_path / "outcomes.csv"
    table.write_text("".join(lines))
    code = run_cli("score", "--series", FIXTURES / "series.csv", "--outcomes", table,
                   "--metrics", "brier", "--out-dir", tmp_path / "out")
    err = assert_rejected(code, capsys, table, 3)
    assert err == f"error [score]: {table}:3: ',' expected after '\"'\n"


# Each strict table (every table but the polls and the historical results),
# as the header of a file with no rows and a run that reads it from "{}".
HEADER_ONLY_RUNS = [
    ("state,omega", ["score", "--series", FIXTURES / "series.csv", "--outcomes", "{}",
                     "--metrics", "brier"]),
    ("forecaster,state,date,p", ["score", "--series", "{}",
                                 "--outcomes", FIXTURES / "outcomes.csv", "--metrics", "brier"]),
    ("forecaster,ev,p", ["score", "--histograms", "{}", "--ev-realization", "3",
                         "--metrics", "cdf"]),
    ("state,omega", ["trade", "--experts", FIXTURES / "experts.csv",
                     "--reference-file", FIXTURES / "reference.csv", "--outcomes", "{}"]),
    ("date,price", ["trade", "--experts", FIXTURES / "experts.csv", "--reference-file", "{}"]),
    ("date,price", ["aggregate", "--experts", FIXTURES / "experts.csv",
                    "--reference-file", "{}"]),
    ("state,ev", ["calibrate", "--polls", FIXTURES / "polls.csv",
                  "--election-date", "2016-11-08", "--ev-table", "{}"]),
]


@pytest.mark.parametrize("blank", ["", "\n\n"])
@pytest.mark.parametrize("header,args", HEADER_ONLY_RUNS)
def test_header_only_strict_table_names_file(tmp_path, capsys, header, args, blank):
    table = tmp_path / "t.csv"
    table.write_text(f"{header}\n{blank}")
    out = tmp_path / "out"
    code = run_cli(*(table if a == "{}" else a for a in args), "--out-dir", out)
    err = assert_rejected(code, capsys, table, out_dir=out)
    assert err == f"error [{args[0]}]: {table}: no rows\n"
    assert not list(out.glob("*"))


def test_header_only_ev_stream_has_no_rows():
    with pytest.raises(IngestError) as caught:
        load_ev_table(io.StringIO("state,ev\n"))
    assert str(caught.value) == "<stream>: no rows"


def test_short_series_row_names_its_line(tmp_path, capsys):
    series, line = fixture_plus(tmp_path, "series.csv", "FTE,US,2016-11-03")
    code = run_cli("score", "--series", series, "--outcomes", FIXTURES / "outcomes.csv",
                   "--metrics", "brier", "--out-dir", tmp_path / "out")
    err = assert_rejected(code, capsys, series, line)
    assert err == f"error [score]: {series}:{line}: too few fields\n"


def test_short_poll_row_is_skipped_and_reading_goes_on(tmp_path, capsys):
    polls, line = fixture_plus(tmp_path, "polls.csv", "A,US,2016-10-01",
                               "B,US,2016-10-02,500,LV,48,44")
    assert calibrate(tmp_path, polls) == 0
    assert (f"note: skipped 1 poll row(s) of {polls}; first at line {line}: too few fields\n"
            in capsys.readouterr().err)
    parsed = parse_polls(polls, date(2016, 11, 8))
    assert parsed.skipped == [(line, "too few fields")]
    fixture = parse_polls(FIXTURES / "polls.csv", date(2016, 11, 8)).records
    assert len(parsed.records) == len(fixture) + 1
    assert parsed.records.t[-1] == 37.0  # the row after the short one


def test_fault_after_a_quoted_field_across_lines_names_its_physical_line(tmp_path, capsys):
    # The row of the quoted name takes lines `line` and `line + 1`, so the
    # bad row is the file's next row but its line is `line + 2`.
    series, line = fixture_plus(tmp_path, "series.csv", '"A', 'B",US,2016-11-03,0.5',
                                "FTE,US,2016-11-04,1.5")
    code = run_cli("score", "--series", series, "--outcomes", FIXTURES / "outcomes.csv",
                   "--metrics", "brier", "--out-dir", tmp_path / "out")
    err = assert_rejected(code, capsys, series, line + 2)
    assert err == f"error [score]: {series}:{line + 2}: '1.5' is not a probability in [0, 1]\n"


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

    @pytest.mark.parametrize("state", ["US", "ZZ"])
    def test_non_state_code_names_line(self, tmp_path, capsys, state):
        lines = self.lines()
        lines.insert(3, f"{state},3")
        code, ev, out = self.forecast(tmp_path, lines)
        err = assert_rejected(code, capsys, ev, 5, out)
        assert err == f"error [forecast]: {ev}:5: unknown state code {state!r}\n"

    def test_wrong_total_names_file(self, tmp_path, capsys):
        code, ev, out = self.forecast(tmp_path, self.lines(CA=50))
        err = assert_rejected(code, capsys, ev, out_dir=out)
        assert "538" in err

    def test_missing_column_names_file(self, tmp_path, capsys):
        code, ev, out = self.forecast(tmp_path, self.lines(), header="state,votes")
        err = assert_rejected(code, capsys, ev, 1, out)
        assert "missing column(s) ev" in err


# The flag names of each subcommand, besides the common ones; the settings
# table must give each subcommand exactly these.  Only forecast draws, so only
# it takes --seed, --paths and --workers.
COMMAND_FLAGS = {
    "forecast": {"--seed", "--paths", "--workers", "--polls", "--historical", "--ev-table",
                 "--calibration", "--election-date", "--bandwidth", "--noise-model",
                 "--win-threshold"},
    "calibrate": {"--polls", "--historical", "--ev-table", "--election-date",
                  "--bandwidth"},
    "score": {"--series", "--outcomes", "--histograms", "--ev-table",
              "--ev-realization", "--metrics"},
    "trade": {"--experts", "--reference-file", "--reference", "--outcomes", "--loss"},
    "aggregate": {"--experts", "--reference-file", "--loss"},
    "curves": set(),
}
# Every setting of the table, each a flag of some subcommand.
SETTINGS = {"election_date", "seed", "paths", "bandwidth", "noise_model", "win_threshold",
            "workers", "loss", "reference", "ev_realization", "polls", "historical",
            "ev_table", "experts", "series", "outcomes", "histograms", "reference_file",
            "calibration"}


def test_subcommands_accept_the_same_flags():
    common = {"-h", "--help", "--out-dir"}
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(COMMAND_FLAGS)
    for name, parser in subparsers.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags == common | COMMAND_FLAGS[name], name
    # the table holds the 19 settings, and each is a flag of some subcommand
    assert set(cli._SETTINGS) == SETTINGS
    assert SETTINGS == set().union(*(keys for _, _, keys in cli._COMMANDS.values()))


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_config_file_flag_is_gone(tmp_path, capsys, command):
    # Settings are flags only: a flat key = value file is no longer read.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--config", cfg, "--out-dir", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["calibrate", "score", "trade", "aggregate", "curves"])
def test_only_forecast_takes_a_seed(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--seed", "4", "--out-dir", tmp_path)
    assert exc.value.code == 2


def test_flags_land_on_their_fields():
    args = cli.build_parser().parse_args(
        ["trade", "--reference", "pairmean", "--reference-file", "r.csv",
         "--loss", "trading"])
    assert (args.reference, args.reference_file, args.loss) == ("pairmean", "r.csv", "trading")
    args = cli.build_parser().parse_args(["forecast", "--seed", "4", "--paths", "9",
                                          "--workers", "2"])
    assert (args.seed, args.paths, args.workers) == (4, 9, 2)


def test_every_flag_is_its_setting_name_with_dashes():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    for command, (_, _, keys) in cli._COMMANDS.items():
        flags = {a.dest: a.option_strings for a in subparsers[command]._actions}
        for key in keys:
            assert flags[key] == ["--" + key.replace("_", "-")], (command, key)


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_every_setting_starts_at_its_default(command):
    args = cli.build_parser().parse_args([command])
    assert {key: getattr(args, key) for key in SETTINGS} == {
        "election_date": None, "seed": None, "paths": 10000, "bandwidth": 5.0,
        "noise_model": "gaussian", "win_threshold": 0.0, "workers": 1, "loss": "quadratic",
        "reference": "market", "ev_realization": None, "polls": None, "historical": None,
        "ev_table": None, "experts": None, "series": None, "outcomes": None,
        "histograms": None, "reference_file": None, "calibration": None}


def test_simulation_settings_default_to_simulation_config():
    args = cli.build_parser().parse_args(["forecast"])
    assert (args.paths, args.noise_model, args.win_threshold, args.workers) == (
        simulation.SimulationConfig.n_paths, simulation.SimulationConfig.noise_model,
        simulation.SimulationConfig.win_threshold, simulation.SimulationConfig.workers)


def test_abbreviated_flags_are_usage_errors(tmp_path, capsys):
    # Flags are spelled in full: --calib, --se and --pa name no flag.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("forecast", "--calib", FIXTURES / "calibration.json", "--se", "1",
                "--pa", "300", "--out-dir", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --calib" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_abbreviated_out_dir_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--out", out)
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out.exists()


def test_abbreviated_help_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--he")
    assert exc.value.code == 2
    assert "usage: statecast" in capsys.readouterr().err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_runs_in_one_process_share_no_settings(tmp_path):
    # The parser is shared; a flag of one run does not carry into the next.
    for extra, loss in ((["--loss", "trading"], "trading"), ([], "quadratic")):
        out = tmp_path / loss
        assert run_cli("aggregate", "--experts", FIXTURES / "experts.csv",
                       "--reference-file", FIXTURES / "reference.csv", *extra,
                       "--out-dir", out) == 0
        assert json.loads((out / "learner.json").read_text())["loss"] == loss


def test_notes_show_a_warning_of_another_category_as_a_warning(capsys):
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        with cli._notes(scoring.HypersensitiveForecastWarning):
            warnings.warn("noted twice", scoring.HypersensitiveForecastWarning)
            warnings.warn("shown", RuntimeWarning)
            warnings.warn("noted twice", scoring.HypersensitiveForecastWarning)
    assert [(w.category, str(w.message)) for w in shown] == [(RuntimeWarning, "shown")]
    assert capsys.readouterr().err == "note: noted twice\n"


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


SERIES_LINES = (FIXTURES / "series.csv").read_text().splitlines()
ROW_MUTATIONS = st.tuples(
    st.sampled_from(["duplicate", "delete", "swap", "shorten", "lengthen"]),
    st.integers(1, len(SERIES_LINES) - 1), st.integers(1, len(SERIES_LINES) - 1))


def _mutate(lines, kind, i, j):
    """``lines`` with data line ``i`` copied after itself, deleted, swapped
    with line ``j``, short of its last cell or given one cell more."""
    lines = list(lines)
    if kind == "duplicate":
        lines.insert(i + 1, lines[i])
    elif kind == "delete":
        del lines[i]
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "shorten":
        lines[i] = lines[i].rsplit(",", 1)[0]
    else:
        lines[i] += ",0.5"
    return lines


def _score_each_series(lines):
    """The line of the series file's first fault, or else its score tables,
    ``{(metric, weighting): [(forecaster, value)]}``, with each series
    scored on its own and each forecaster's states in file order."""
    points = {}
    for line, row in enumerate(csv.reader(lines[1:]), 2):
        if len(row) < 4:
            return line
        forecaster, state, day, p = row[:4]
        pts = points.setdefault((forecaster, state), {})
        if day in pts:
            return line
        pts[day] = float(p)
    outcomes, ev = cli._read_outcomes(FIXTURES / "outcomes.csv"), default_ev_table()
    tables = {}
    for metric, fn in (("brier", scoring.brier), ("loglik", scoring.log_likelihood)):
        for forecaster in sorted({f for f, _ in points}):
            scores = {state: fn(scoring.BinaryForecastSeries(
                          forecaster, [date.fromisoformat(d).toordinal() for d in sorted(pts)],
                          [pts[d] for d in sorted(pts)]), outcomes[state])
                      for (f, state), pts in points.items() if f == forecaster}
            if "US" in scores:
                tables.setdefault((metric, "overall"), []).append((forecaster, scores.pop("US")))
            for weighting in ("state_average", "ev_weighted"):
                tables.setdefault((metric, weighting), []).append(
                    (forecaster, scoring.aggregate_scores(scores, weighting, ev)))
    return tables


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutation=ROW_MUTATIONS)
def test_one_row_mutation_of_the_series_table(mutation):
    """A series table with one row duplicated, deleted, swapped, shortened
    or lengthened scores as each series scored on its own, or exits 1 with
    one line naming the line of its first fault."""
    lines = _mutate(SERIES_LINES, *mutation)
    expected = _score_each_series(lines)
    with tempfile.TemporaryDirectory() as tmp:
        series, out, err = Path(tmp) / "s.csv", Path(tmp) / "out", io.StringIO()
        series.write_text("".join(f"{line}\n" for line in lines))
        with contextlib.redirect_stderr(err):
            code = run_cli("score", "--series", series, "--outcomes", FIXTURES / "outcomes.csv",
                           "--metrics", "brier", "loglik", "--out-dir", out)
        if isinstance(expected, int):
            assert code == 1
            assert err.getvalue().startswith(f"error [score]: {series}:{expected}: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert (code, err.getvalue()) == (0, "")
            got = {}
            for row in json.loads((out / "scores.json").read_text()):
                got.setdefault((row["metric"], row["weighting"]), []).append(
                    (row["forecaster"], row["value"]))
            assert got == expected


CALIBRATION = json.loads((FIXTURES / "calibration.json").read_text())
# Every key of the calibration document, as (path to its object, key).
CALIBRATION_KEYS = [((), "market"), ((), "states"),
                    *((("market",), k) for k in CALIBRATION["market"]),
                    *((("states",), s) for s in CALIBRATION["states"]),
                    *((("states", s), k) for s, fields in CALIBRATION["states"].items()
                      for k in fields)]
DELETE, ADD = object(), object()
CALIBRATION_EDITS = st.tuples(
    st.sampled_from(CALIBRATION_KEYS),
    st.sampled_from([None, True, False, "1.5", 1e308, -1e308, 2**70, -1, [1.0], DELETE, ADD]),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(edit=CALIBRATION_EDITS)
def test_one_edit_to_a_calibration_document_exits_cleanly(edit):
    """A calibration document with one value replaced, one key deleted or
    one key added runs to a finite forecast or exits 1 with one error line,
    under both noise models and 1 or 2 workers, and never warns."""
    (where, key), value = edit
    doc = copy.deepcopy(CALIBRATION)
    target = reduce(operator.getitem, where, doc)
    if value is DELETE:
        del target[key]
    elif value is ADD:
        target[f"{key}_extra"] = 1.0
    else:
        target[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cal.json").write_text(json.dumps(doc))
        for model, workers in itertools.product(("gaussian", "student_t"), (1, 2)):
            out, err = tmp / f"{model}{workers}", io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = run_cli("forecast", "--calibration", tmp / "cal.json", "--seed", "5",
                               "--paths", "300", "--noise-model", model,
                               "--workers", workers, "--out-dir", out)
            assert not caught, [str(w.message) for w in caught]
            if code == 0:
                # a Gaussian forecast is computed: it names what it does not read
                unread = ["seed 5", "paths 300", *[f"workers {workers}"] * (workers > 1)]
                assert err.getvalue() == ("" if model == "student_t" else "".join(
                    f"note: --noise-model gaussian does not read --{what}\n" for what in unread))
                assert "nan" not in (out / "forecast.json").read_text().lower()
            else:
                assert code == 1
                assert err.getvalue().count("\n") == 1, err.getvalue()
                assert err.getvalue().startswith("error [forecast]: "), err.getvalue()


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
            kept = (len(result.records) if read is not load_historical else
                    sum(len(national) for national, _ in result.records.values()))
            assert kept + result.n_skipped == len(rows)
            lines = [line for line, _ in result.skipped]
            assert len(set(lines)) == len(lines) and all(line > 1 for line in lines)


@pytest.mark.parametrize("quote", ["", '"'])
def test_byte_order_mark_before_a_path_header_is_not_part_of_its_first_column(tmp_path, quote):
    # spreadsheet programs save "CSV UTF-8" with a byte-order mark first
    plain = (FIXTURES / "series.csv").read_bytes()
    assert plain.startswith(b"forecaster,")
    marked = tmp_path / "series.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + quote.encode() + b"forecaster" + quote.encode()
                       + plain[len(b"forecaster"):])
    outputs = {}
    for name, series in (("marked", marked), ("plain", FIXTURES / "series.csv")):
        assert run_cli("score", "--series", series, "--outcomes", FIXTURES / "outcomes.csv",
                       "--metrics", "brier", "--out-dir", tmp_path / name) == 0
        outputs[name] = {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}
    assert outputs["marked"] == outputs["plain"]


@pytest.mark.parametrize("quote", ["", '"'])
def test_byte_order_mark_before_a_stream_header_is_not_part_of_its_first_column(quote):
    rows = (f"\ufeff{quote}ev{quote},state\n"
            + "".join(f"{ev},{state}\n" for state, ev in default_ev_table().items()))
    assert load_ev_table(io.StringIO(rows)) == default_ev_table()


def test_a_byte_order_mark_is_taken_only_from_the_start_of_the_header():
    rows = "ev,state\n\ufeff3,AK\n"
    with pytest.raises(IngestError, match=r"<stream>:2: "):
        load_ev_table(io.StringIO(rows))
