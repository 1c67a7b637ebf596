"""End-to-end CLI runs over the bundled fixtures."""

import csv
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from statecast.cli import main
from statecast.simulation import NOISE_MODELS

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def forecast_args(tmp_path):
    return [
        "forecast",
        "--polls", FIXTURES / "polls.csv",
        "--historical", FIXTURES / "historical.csv",
        "--election-date", "2016-11-08",
        "--seed", "20161108",
        "--out-dir", tmp_path,
    ]


class TestForecast:
    def test_blowout_fixture_is_certain(self, tmp_path, forecast_args):
        assert run_cli(*forecast_args) == 0
        doc = json.loads((tmp_path / "forecast.json").read_text())
        assert doc["p_national"] == 1.0
        assert len(doc["p_state"]) == 51
        assert len(doc["ev_histogram"]) == 539
        assert sum(doc["ev_histogram"]) == pytest.approx(1.0, abs=1e-9)

    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli(
                "forecast", "--polls", FIXTURES / "polls.csv",
                "--historical", FIXTURES / "historical.csv",
                "--election-date", "2016-11-08", "--seed", "99",
                "--paths", "2000", "--out-dir", out,
            ) == 0
            outs.append(out)
        for name in ("forecast.json", "timeseries.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_worker_threads_do_not_change_bytes(self, tmp_path):
        outs = []
        for sub, workers in (("w1", "1"), ("w4", "4")):
            out = tmp_path / sub
            assert run_cli(
                "forecast", "--polls", FIXTURES / "polls.csv",
                "--historical", FIXTURES / "historical.csv",
                "--election-date", "2016-11-08", "--seed", "7",
                "--paths", "4000", "--workers", workers, "--out-dir", out,
            ) == 0
            outs.append(out)
        assert (outs[0] / "forecast.json").read_bytes() == (outs[1] / "forecast.json").read_bytes()

    def test_timeseries_spans_grid(self, tmp_path, forecast_args):
        run_cli(*forecast_args)
        rows = read_csv(tmp_path / "timeseries.csv")
        days = [float(r["days_to_election"]) for r in rows]
        assert days == sorted(days)
        assert days[0] == 10.0  # most recent poll is 10 days out

    def test_full_run_under_ten_seconds(self, tmp_path, forecast_args):
        start = time.monotonic()
        assert run_cli(*forecast_args) == 0
        assert time.monotonic() - start < 10.0

    def test_missing_state_names_it(self, tmp_path, capsys):
        # historical file without WY and no WY polls -> failure naming WY
        rows = (FIXTURES / "historical.csv").read_text().splitlines()
        trimmed = [r for r in rows if not r.startswith("20") or ",WY," not in r]
        hist = tmp_path / "hist.csv"
        hist.write_text("\n".join(trimmed) + "\n")
        code = run_cli(
            "forecast", "--polls", FIXTURES / "polls.csv",
            "--historical", hist, "--election-date", "2016-11-08",
            "--seed", "1", "--out-dir", tmp_path,
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "WY" in err and "forecast" in err

    def test_seed_is_mandatory(self, tmp_path):
        code = run_cli(
            "forecast", "--polls", FIXTURES / "polls.csv",
            "--historical", FIXTURES / "historical.csv",
            "--election-date", "2016-11-08", "--out-dir", tmp_path,
        )
        assert code != 0

    def test_kernel_underflow_is_one_note(self, tmp_path, forecast_args, capsys):
        assert run_cli(*forecast_args, "--paths", "300", "--bandwidth", "1e-300") == 0
        assert capsys.readouterr().err == (
            "note: kernel weights underflowed at 56 grid point(s); "
            "used nearest observation there\n")

    def test_noise_model_choices_are_the_simulators(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("forecast", "--help")
        assert f"--noise-model {{{','.join(NOISE_MODELS)}}}" in capsys.readouterr().out

    def test_student_t_noise_model(self, tmp_path, forecast_args):
        assert run_cli(*forecast_args, "--noise-model", "student_t") == 0
        doc = json.loads((tmp_path / "forecast.json").read_text())
        assert 0.0 <= doc["p_national"] <= 1.0


class TestCalibrate:
    def test_document_round_trips_into_forecast(self, tmp_path):
        assert run_cli(
            "calibrate", "--polls", FIXTURES / "polls.csv",
            "--historical", FIXTURES / "historical.csv",
            "--election-date", "2016-11-08", "--out-dir", tmp_path,
        ) == 0
        doc = json.loads((tmp_path / "calibration.json").read_text())
        assert len(doc["states"]) == 51
        assert doc["states"]["OH"]["source"] == "polls"
        assert doc["states"]["WY"]["source"] == "historical"
        assert doc["market"]["horizon"] == 10.0
        # frozen calibration drives a forecast without poll files
        out2 = tmp_path / "from_cal"
        assert run_cli(
            "forecast", "--calibration", tmp_path / "calibration.json",
            "--seed", "5", "--paths", "1000", "--out-dir", out2,
        ) == 0
        assert json.loads((out2 / "forecast.json").read_text())["p_national"] == 1.0

    def test_frozen_calibration_notes_the_files_it_does_not_read(self, tmp_path, capsys):
        args = ["forecast", "--calibration", FIXTURES / "calibration.json",
                "--seed", "5", "--paths", "1000"]
        assert run_cli(*args, "--out-dir", tmp_path / "a") == 0
        without = capsys.readouterr()
        assert without.err == ""
        polls, historical = tmp_path / "absent_polls.csv", tmp_path / "absent_historical.csv"
        assert run_cli(*args, "--polls", polls, "--historical", historical,
                       "--out-dir", tmp_path / "b") == 0
        given = capsys.readouterr()
        assert given.out == without.out
        assert given.err == (
            f"note: --calibration does not read the polls file {polls}\n"
            f"note: --calibration does not read the historical file {historical}\n")
        assert ({p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()})

    def test_frozen_calibration_notes_the_settings_it_does_not_read(self, tmp_path, capsys):
        args = ["forecast", "--calibration", FIXTURES / "calibration.json",
                "--seed", "5", "--paths", "1000"]
        assert run_cli(*args, "--out-dir", tmp_path / "a") == 0
        without = capsys.readouterr()
        assert without.err == ""
        assert run_cli(*args, "--election-date", "2016-11-08", "--bandwidth", "3",
                       "--out-dir", tmp_path / "b") == 0
        given = capsys.readouterr()
        assert given.out == without.out
        assert given.err == ("note: --calibration does not read the election date 2016-11-08\n"
                             "note: --calibration does not read the bandwidth 3.0\n")
        assert ({p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()})


class TestScore:
    def run_score(self, tmp_path, *extra):
        return run_cli(
            "score", "--series", FIXTURES / "series.csv",
            "--outcomes", FIXTURES / "outcomes.csv",
            "--histograms", FIXTURES / "histograms.csv",
            "--ev-realization", "232", "--out-dir", tmp_path, *extra,
        )

    def test_writes_all_tables(self, tmp_path):
        assert self.run_score(tmp_path) == 0
        names = {p.name for p in tmp_path.glob("scores_*.csv")}
        assert names == {
            "scores_brier_overall.csv", "scores_brier_state_average.csv",
            "scores_brier_ev_weighted.csv", "scores_loglik_overall.csv",
            "scores_loglik_state_average.csv", "scores_loglik_ev_weighted.csv",
            "scores_selten_overall.csv", "scores_spherical_overall.csv",
            "scores_cdf_overall.csv",
        }
        rows = json.loads((tmp_path / "scores.json").read_text())
        assert {r["metric"] for r in rows} == {"brier", "loglik", "selten",
                                               "spherical", "cdf"}
        assert all({"forecaster", "metric", "weighting", "value"} <= set(r) for r in rows)

    def test_perfect_constant_forecaster_scores_zero(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text(
            "forecaster,state,date,p\n"
            "SURE,US,2016-11-01,1.0\nSURE,US,2016-11-02,1.0\n"
        )
        assert run_cli(
            "score", "--series", series, "--outcomes", FIXTURES / "outcomes.csv",
            "--metrics", "brier", "--out-dir", tmp_path,
        ) == 0
        (row,) = read_csv(tmp_path / "scores_brier_overall.csv")
        assert float(row["value"]) == 0.0

    def test_log_sentinel_rendered(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text(
            "forecaster,state,date,p\nDOOM,US,2016-11-01,0.0\n"
        )
        assert run_cli(
            "score", "--series", series, "--outcomes", FIXTURES / "outcomes.csv",
            "--metrics", "loglik", "--out-dir", tmp_path,
        ) == 0
        (row,) = read_csv(tmp_path / "scores_loglik_overall.csv")
        assert float(row["value"]) == float("-inf")
        assert row["value"] == "-inf"

    def test_json_rows_are_the_table_rows(self, tmp_path):
        series = tmp_path / "series.csv"
        series.write_text((FIXTURES / "series.csv").read_text() + "DOOM,US,2016-11-01,0.0\n")
        assert run_cli(
            "score", "--series", series, "--outcomes", FIXTURES / "outcomes.csv",
            "--histograms", FIXTURES / "histograms.csv", "--ev-realization", "232",
            "--out-dir", tmp_path,
        ) == 0
        table_rows = [row for path in sorted(tmp_path.glob("scores_*.csv"))
                      for row in read_csv(path)]
        json_rows = json.loads((tmp_path / "scores.json").read_text())
        assert [{key: str(value) for key, value in row.items()} for row in json_rows] \
            == table_rows
        assert {"forecaster": "DOOM", "metric": "loglik", "weighting": "overall",
                "value": "-inf"} in json_rows
        assert all(isinstance(row["value"], float) for row in json_rows
                   if row["value"] != "-inf")

    def test_repeated_metric_is_scored_once(self, tmp_path):
        args = ["score", "--series", FIXTURES / "series.csv",
                "--outcomes", FIXTURES / "outcomes.csv"]
        assert run_cli(*args, "--metrics", "brier", "--out-dir", tmp_path / "a") == 0
        assert run_cli(*args, "--metrics", "brier", "brier", "--out-dir", tmp_path / "b") == 0
        assert ({p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()})

    def test_zero_probability_is_one_note(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text(
            "forecaster,state,date,p\nDOOM,US,2016-11-01,0.0\n"
            "DOOM,OH,2016-11-01,1.0\nDOOM,FL,2016-11-01,1.0\n"
        )
        assert run_cli(
            "score", "--series", series, "--outcomes", FIXTURES / "outcomes.csv",
            "--metrics", "brier", "loglik", "--out-dir", tmp_path,
        ) == 0
        assert capsys.readouterr().err == (
            "note: DOOM assigned zero probability to the realized outcome; "
            "log-likelihood is -inf\n")

    def test_topology_example_rows(self, tmp_path):
        hist = tmp_path / "hists.csv"
        hist.write_text(
            "forecaster,ev,p\nNEAR,226,1.0\nFAR,538,1.0\n"
        )
        assert run_cli(
            "score", "--histograms", hist, "--ev-realization", "227",
            "--metrics", "selten", "cdf", "--out-dir", tmp_path,
        ) == 0
        selten_rows = {r["forecaster"]: float(r["value"])
                       for r in read_csv(tmp_path / "scores_selten_overall.csv")}
        cdf_rows = {r["forecaster"]: float(r["value"])
                    for r in read_csv(tmp_path / "scores_cdf_overall.csv")}
        assert selten_rows["NEAR"] == selten_rows["FAR"] == -1.0
        assert cdf_rows["NEAR"] == 1.0
        assert cdf_rows["FAR"] == 311.0

    def test_ev_weighting_matches_hand_value(self, tmp_path):
        series = tmp_path / "series.csv"
        # CA exactly right, WY exactly wrong -> EV-weighted Brier 3/58
        series.write_text(
            "forecaster,state,date,p\n"
            "F,CA,2016-11-01,1.0\nF,WY,2016-11-01,0.0\n"
        )
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text("state,omega\nCA,1\nWY,1\n")
        assert run_cli(
            "score", "--series", series, "--outcomes", outcomes,
            "--metrics", "brier", "--out-dir", tmp_path,
        ) == 0
        (row,) = read_csv(tmp_path / "scores_brier_ev_weighted.csv")
        assert float(row["value"]) == pytest.approx(3.0 / 58.0, abs=1e-12)

    @pytest.mark.parametrize("metrics,unread", [
        (["brier"], ["histograms"]),
        (["brier", "loglik"], ["histograms"]),
        (["cdf"], ["series", "outcomes"]),
        (["selten", "spherical"], ["series", "outcomes"]),
    ], ids=["brier", "binary", "cdf", "density"])
    def test_unread_files_are_noted(self, tmp_path, capsys, metrics, unread):
        given = {"series": FIXTURES / "series.csv", "outcomes": FIXTURES / "outcomes.csv",
                 "histograms": FIXTURES / "histograms.csv"}
        # an EV realization that no metric reads has its own note
        ev = ["--ev-realization", "232"] if "histograms" not in unread else []
        args = ["score", *ev, "--metrics", *metrics]
        assert run_cli(*args, *(a for key in given if key not in unread
                                for a in (f"--{key}", given[key])),
                       "--out-dir", tmp_path / "a") == 0
        assert capsys.readouterr().err == ""
        absent = {key: tmp_path / f"absent_{key}.csv" for key in unread}
        assert run_cli(*args, *(a for key in given
                                for a in (f"--{key}", absent.get(key, given[key]))),
                       "--out-dir", tmp_path / "b") == 0
        assert capsys.readouterr().err == "".join(
            f"note: --metrics {' '.join(metrics)} does not read the {key} file {absent[key]}\n"
            for key in unread)
        assert ({p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()})

    @pytest.mark.parametrize("ev", ["232", "0"])  # bin 0 is falsy, and a value
    def test_unread_ev_realization_is_noted(self, tmp_path, capsys, ev):
        args = ["score", "--series", FIXTURES / "series.csv",
                "--outcomes", FIXTURES / "outcomes.csv", "--metrics", "brier"]
        assert run_cli(*args, "--out-dir", tmp_path / "a") == 0
        assert capsys.readouterr().err == ""
        assert run_cli(*args, "--ev-realization", ev, "--out-dir", tmp_path / "b") == 0
        assert capsys.readouterr().err == (
            f"note: --metrics brier does not read the EV realization {ev}\n")
        assert ({p.name: p.read_bytes() for p in (tmp_path / "b").iterdir()}
                == {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()})

    def test_unknown_metric_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("score", "--metrics", "quadratic", "--out-dir", tmp_path)
        assert exc.value.code == 2


class TestTrade:
    def test_expert_equal_to_reference_earns_zero(self, tmp_path):
        experts = tmp_path / "experts.csv"
        ref_rows = read_csv(FIXTURES / "reference.csv")
        lines = ["date,HUGGER"]
        lines += [f"{r['date']},{r['price']}" for r in ref_rows]
        experts.write_text("\n".join(lines) + "\n")
        assert run_cli(
            "trade", "--experts", experts,
            "--reference-file", FIXTURES / "reference.csv",
            "--outcomes", FIXTURES / "outcomes.csv", "--out-dir", tmp_path,
        ) == 0
        rows = read_csv(tmp_path / "pnl_HUGGER.csv")
        assert all(float(r["increment"]) == 0.0 for r in rows)

    def test_pair_mode_totals_cancel(self, tmp_path):
        experts = tmp_path / "experts.csv"
        experts.write_text(
            "date,A,B\n2016-10-01,0.8,0.4\n2016-10-02,0.7,0.5\n2016-10-03,0.9,0.3\n"
        )
        assert run_cli(
            "trade", "--experts", experts, "--reference", "pairmean",
            "--out-dir", tmp_path,
        ) == 0
        rows = {r["forecaster"]: r for r in read_csv(tmp_path / "pnl_summary.csv")}
        assert float(rows["A"]["total_settled"]) + float(rows["B"]["total_settled"]) == 0.0

    def test_three_step_total_matches_oracle(self, tmp_path):
        experts = tmp_path / "experts.csv"
        experts.write_text(
            "date,UP\n2016-10-01,1.0\n2016-10-02,1.0\n2016-10-03,1.0\n"
        )
        ref = tmp_path / "ref.csv"
        ref.write_text(
            "date,price\n2016-10-01,0.6\n2016-10-02,0.7\n2016-10-03,0.9\n"
        )
        outcomes = tmp_path / "outcomes.csv"
        outcomes.write_text("state,omega\nUS,1\n")
        assert run_cli(
            "trade", "--experts", experts, "--reference-file", ref,
            "--outcomes", outcomes, "--out-dir", tmp_path,
        ) == 0
        rows = {r["forecaster"]: r for r in read_csv(tmp_path / "pnl_summary.csv")}
        s = [0.6, 0.7, 0.9]
        oracle = sum((1 - s[t]) * (s[t + 1] - s[t]) for t in range(2)) + (1 - s[-1]) ** 2
        assert float(rows["UP"]["total_settled"]) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("panel, reference", [
        (None, ["--reference-file", FIXTURES / "reference.csv"]),
        ("date,A\n2016-10-02,0.9\n", ["--reference-file", FIXTURES / "reference.csv"]),
        ("date,A,B\n2016-10-01,0.8,0.4\n2016-10-02,0.7,0.5\n2016-10-03,0.9,0.3\n",
         ["--reference", "pairmean"]),
    ], ids=["market", "single_date", "pair"])
    def test_total_marked_is_last_unsettled_cumulative(self, tmp_path, panel, reference):
        experts = FIXTURES / "experts.csv"
        if panel is not None:
            experts = tmp_path / "experts.csv"
            experts.write_text(panel)
        assert run_cli("trade", "--experts", experts, *reference,
                       "--outcomes", FIXTURES / "outcomes.csv", "--out-dir", tmp_path) == 0
        summary = read_csv(tmp_path / "pnl_summary.csv")
        assert len(summary) == len(list(tmp_path.glob("pnl_*.csv"))) - 1
        for row in summary:
            pnl = read_csv(tmp_path / f"pnl_{row['forecaster']}.csv")
            # the last row is the settlement; the one before it is the last mark
            marked = pnl[-2]["cumulative"] if len(pnl) > 1 else "0.0"
            assert row["total_marked"] == marked
            assert row["total_settled"] == pnl[-1]["cumulative"]

    def test_misaligned_dates_listed(self, tmp_path, capsys):
        experts = tmp_path / "experts.csv"
        experts.write_text("date,A\n2016-10-01,0.5\n2016-12-25,0.5\n")
        code = run_cli(
            "trade", "--experts", experts,
            "--reference-file", FIXTURES / "reference.csv", "--out-dir", tmp_path,
        )
        assert code != 0
        assert "2016-12-25" in capsys.readouterr().err

    def test_online_mixture_traded_alongside(self, tmp_path):
        assert run_cli(
            "trade", "--experts", FIXTURES / "experts.csv",
            "--reference-file", FIXTURES / "reference.csv",
            "--outcomes", FIXTURES / "outcomes.csv", "--out-dir", tmp_path,
        ) == 0
        names = {r["forecaster"] for r in read_csv(tmp_path / "pnl_summary.csv")}
        assert names == {"CAPM", "FTE", "PEC", "ONLINE"}
        assert (tmp_path / "pnl_ONLINE.csv").exists()


class TestAggregate:
    def run_aggregate(self, tmp_path, *extra):
        return run_cli(
            "aggregate", "--experts", FIXTURES / "experts.csv",
            "--reference-file", FIXTURES / "reference.csv",
            "--out-dir", tmp_path, *extra,
        )

    def test_single_expert_aggregate_is_identity(self, tmp_path):
        experts = tmp_path / "experts.csv"
        ref_rows = read_csv(FIXTURES / "reference.csv")
        lines = ["date,SOLO"] + [f"{r['date']},0.61" for r in ref_rows]
        experts.write_text("\n".join(lines) + "\n")
        assert run_cli(
            "aggregate", "--experts", experts,
            "--reference-file", FIXTURES / "reference.csv", "--out-dir", tmp_path,
        ) == 0
        rows = read_csv(tmp_path / "aggregate.csv")
        assert all(float(r["prediction"]) == 0.61 for r in rows)

    @pytest.mark.parametrize("loss", ["quadratic", "trading"])
    def test_regret_within_bound(self, tmp_path, loss):
        assert self.run_aggregate(tmp_path, "--loss", loss) == 0
        doc = json.loads((tmp_path / "learner.json").read_text())
        assert doc["loss"] == loss
        assert doc["regret"] <= doc["regret_bound"]
        assert doc["regret_bound"] == pytest.approx(
            math.sqrt(doc["rounds"] / 2 * math.log(len(doc["names"]))), abs=1e-12
        )

    def test_quadratic_mse_matches_recomputation(self, tmp_path):
        assert self.run_aggregate(tmp_path) == 0
        agg = read_csv(tmp_path / "aggregate.csv")
        ref = {r["date"]: float(r["price"]) for r in read_csv(FIXTURES / "reference.csv")}
        panel = read_csv(FIXTURES / "experts.csv")
        dates = [r["date"] for r in panel]
        # recompute the mixture MSE against the next day's price
        preds = {r["date"]: float(r["prediction"]) for r in agg}
        errs = [
            (preds[d] - ref[dates[i + 1]]) ** 2
            for i, d in enumerate(dates[:-1])
        ]
        mse_rows = {r["forecaster"]: float(r["mse"]) for r in read_csv(tmp_path / "mse.csv")}
        assert mse_rows["ONLINE"] == pytest.approx(np.mean(errs), abs=1e-12)

    def test_final_weights_sum_to_one(self, tmp_path):
        assert self.run_aggregate(tmp_path) == 0
        doc = json.loads((tmp_path / "learner.json").read_text())
        assert sum(doc["final_weights"].values()) == pytest.approx(1.0, abs=1e-9)


class TestCurves:
    def test_tables_and_tail_shapes(self, tmp_path):
        assert run_cli("curves", "--out-dir", tmp_path) == 0
        for metric in ("selten", "spherical", "log", "cdf"):
            assert (tmp_path / f"curves_{metric}.csv").exists()
        rows = read_csv(tmp_path / "curves_log.csv")
        col = [float(r["mu269_sd45"]) for r in rows]
        d2 = np.diff(col, 2)[470:]
        assert np.all(d2 < 0)  # parabolic tail
        rows = read_csv(tmp_path / "curves_cdf.csv")
        col = [float(r["mu232_sd20"]) for r in rows]
        d1 = np.diff(col)[480:]
        assert np.allclose(d1, 1.0, atol=1e-3)  # linear tail
        rows = read_csv(tmp_path / "curves_selten.csv")
        col = [float(r["mu232_sd20"]) for r in rows]
        assert np.max(np.abs(np.diff(col)[480:])) < 1e-9  # flat tail

    def test_out_dir_under_a_file_names_the_path(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x"
        assert run_cli("curves", "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("error [curves]: NotADirectoryError: "), err
        assert f"'{out}'" in err


class TestModuleEntryPoint:
    """``python -m statecast`` runs the same CLI, exit codes included."""

    def run_module(self, *args):
        # the child inherits this process's environment and working directory,
        # but not pytest's filterwarnings setting, hence -W error
        return subprocess.run([sys.executable, "-W", "error", "-m", "statecast",
                               *map(str, args)],
                              capture_output=True, text=True, timeout=120)

    def test_curves_writes_its_tables(self, tmp_path):
        proc = self.run_module("curves", "--out-dir", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("curves_*.csv"))) == 4

    def test_score_without_inputs_is_one_error_line(self, tmp_path):
        proc = self.run_module("score", "--out-dir", tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error [score]: ")

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("model", NOISE_MODELS)
    @pytest.mark.parametrize("key", ["beta", "sigma_eps", "sigma_m"])
    def test_overflowing_calibration_runs_quietly(self, tmp_path, key, model, workers):
        # a slope, noise scale or market volatility of 1e308 overflows to
        # +-inf in the draws and the settle; inf - inf is a NaN spread, which
        # never wins.  Neither is a warning, in the main thread or a worker's
        doc = json.loads((FIXTURES / "calibration.json").read_text())
        for block in [doc["market"]] if key == "sigma_m" else doc["states"].values():
            block[key] = 1e308
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        proc = self.run_module("forecast", "--calibration", path, "--noise-model", model,
                               "--workers", workers, "--seed", 5, "--paths", 500,
                               "--out-dir", out)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr
        assert "NaN" not in (out / "forecast.json").read_text()


class TestConfigFile:
    def test_config_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f'polls = "{FIXTURES / "polls.csv"}"\n'
            f'historical = "{FIXTURES / "historical.csv"}"\n'
            'election_date = "2016-11-08"\n'
            "seed = 11\n"
            "paths = 500\n"
        )
        out1 = tmp_path / "o1"
        assert run_cli("forecast", "--config", cfg, "--out-dir", out1) == 0
        doc = json.loads((out1 / "forecast.json").read_text())
        assert doc["seed"] == 11 and doc["n_paths"] == 500
        out2 = tmp_path / "o2"
        assert run_cli("forecast", "--config", cfg, "--seed", "12",
                       "--out-dir", out2) == 0
        assert json.loads((out2 / "forecast.json").read_text())["seed"] == 12

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sede = 11\n")
        assert run_cli("forecast", "--config", cfg, "--out-dir", tmp_path) != 0

    def test_relative_paths_resolve_against_config(self, tmp_path):
        cfgdir = tmp_path / "cfg"
        cfgdir.mkdir()
        for name in ("polls.csv", "historical.csv"):
            (cfgdir / name).write_bytes((FIXTURES / name).read_bytes())
        cfg = cfgdir / "run.cfg"
        cfg.write_text(
            'polls = "polls.csv"\nhistorical = "historical.csv"\n'
            'election_date = "2016-11-08"\nseed = 3\npaths = 200\n'
        )
        assert run_cli("forecast", "--config", cfg, "--out-dir", tmp_path) == 0
