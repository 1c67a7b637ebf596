"""Malformed CLI inputs: each ends with exit 1 and one stderr line naming the
file (and the line, for a row-level fault), never with a traceback or an
output holding NaN."""

import csv
import json
import math
import tempfile
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
        assert_rejected(self.score(series, tmp_path), capsys, series)

    @pytest.mark.parametrize("omega", ["2", "0.5", "yes"])
    def test_outcome_not_binary_names_line(self, tmp_path, capsys, omega):
        outcomes = tmp_path / "o.csv"
        outcomes.write_text(f"state,omega\nUS,1\nOH,{omega}\n")
        code = self.score(FIXTURES / "series.csv", tmp_path, outcomes)
        assert_rejected(code, capsys, outcomes, 3)


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
