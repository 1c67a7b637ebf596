"""Golden bytes: each subcommand on the bundled fixtures writes exactly these
files and prints exactly this line.

The Monte Carlo digests were recorded from the per-day, per-state settle
loop.  Any rewrite of the simulator must reproduce every byte of
``forecast.json`` and ``timeseries.csv``, for either noise model and any
worker count.  A Student-T `forecast` is that Monte Carlo; a Gaussian one is
computed by the exact engine, so its Monte Carlo digests are checked on the
files :func:`monte_carlo_files` writes from a direct ``simulate_paths`` call,
and its `forecast` digests pin the engine's arithmetic.  The
evaluation digests (`score`, `trade`, `aggregate`, `curves`) were recorded
from the dict-per-row table reader; any rewrite of the readers, scorers or
traders must reproduce every output file.  The `calibrate` bytes were
recorded while each poll was parsed into its own record object; a rewrite of
poll ingest or calibration must reproduce them.
"""

import hashlib
import itertools
from datetime import date, timedelta
from pathlib import Path

import pytest

from statecast import cli
from statecast.cli import main
from statecast.simulation import SimulationConfig, simulate_paths
from statecast.states import WIN_ELECTORAL_VOTES

from test_cli import FIXTURES

# (seed, noise model) -> sha256 of (forecast.json, timeseries.csv).  The
# Gaussian entries pin the exact engine: both seeds give the same series,
# and their forecast.json differ only in the seed they record.
GOLDEN = {
    (1, "gaussian"): (
        "1f1d551a0a6a0bac5830e7a338c7d47e89f404ff2f885964a439bbfa00e5893f",
        "0d2c54130e4bf0b6c4e82a0479197c9ddb1c499125513f68b7fab5dbe315c597",
    ),
    (1, "student_t"): (
        "1891859a742f283a58b44b8ad122b82b1da7b3c681fc92ed04276e132937fb93",
        "23ed745b5fa3086cb6e98e10a00152647f44604623ed6abe84a0a2d5d27c62e7",
    ),
    (20161108, "gaussian"): (
        "655d23f28c6efa1b3f645d4e033cdae4108c9e3457195c28bd471b9312a496f2",
        "0d2c54130e4bf0b6c4e82a0479197c9ddb1c499125513f68b7fab5dbe315c597",
    ),
    (20161108, "student_t"): (
        "3880a75202485b8d95448f9178b4adb46cfb3f2a56275a7e05789e82019acb83",
        "c371ec23f759b338a8775353985c00a67601c77f1e1c8500ce31b732a466d0f6",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


POLLS = ["--polls", str(FIXTURES / "polls.csv"), "--historical", str(FIXTURES / "historical.csv"),
         "--election-date", "2016-11-08"]
CALIBRATION = ["--calibration", str(FIXTURES / "calibration.json")]


def monte_carlo_files(out_dir: Path, inputs, seed, n_paths, workers, threshold=0.0) -> list[str]:
    """sha256 of (forecast.json, timeseries.csv) as `forecast` wrote them when
    it sampled Gaussian noise: one ``simulate_paths`` call on the days the
    inputs give, each day's counts over the paths."""
    args = cli.build_parser().parse_args(["forecast", *inputs])
    cals, days, ev_table = cli._calibrate_from_files(args)
    cfg = SimulationConfig(seed=seed, n_paths=n_paths, win_threshold=threshold, workers=workers)
    paths = simulate_paths(cals, days, ev_table, cfg)
    national = []
    for counts in paths.ev_counts:
        national.append(float((counts / n_paths)[WIN_ELECTORAL_VOTES:].sum()))
    histogram = paths.ev_counts[0] / n_paths
    cli._write_json(out_dir / "forecast.json", {
        "seed": seed, "n_paths": n_paths, "p_national": national[0],
        "p_state": {s: float(p) for s, p in zip(paths.states, paths.p_state[0])},
        "ev_histogram": [float(x) for x in histogram]})
    cli._write_csv(out_dir / "timeseries.csv", ["days_to_election", "p_national"],
                   [(mkt.horizon, p) for mkt, p in zip(days, national)])
    return [sha256(out_dir / "forecast.json"), sha256(out_dir / "timeseries.csv")]


# seed -> sha256 of (forecast.json, timeseries.csv) of the Gaussian Monte
# Carlo, as `forecast` wrote them before it computed Gaussian noise.
GOLDEN_MONTE_CARLO = {
    1: ("91332ed0653eb80d61b1b139513206191bfe740cefd3b042ad6457787761d47e",
        "6d42abc808bd887f19566d84fa9d9800701e860dbe86bf55fc0b9c3b6eecb916"),
    20161108: ("e73d8b43f015bf55b7693a2e4be2dabf0776d9f72c525af541c8f9f45cff4441",
               "48b45ce9f8efc6379fed568906953931864457193ef166c73c72b616ac679e30"),
}


def stdout_line(model: str, p_national: str, paths: int, seed: int) -> str:
    if model == "gaussian":
        return f"p_national = {p_national}, computed for Gaussian noise\n"
    return f"p_national = {p_national} over {paths} paths (seed {seed})\n"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed,model", sorted(GOLDEN))
def test_forecast_bytes(tmp_path, seed, model, workers, capsys):
    assert main([
        "forecast", *POLLS,
        "--seed", str(seed),
        "--noise-model", model,
        "--workers", str(workers),
        "--out-dir", str(tmp_path),
    ]) == 0
    assert capsys.readouterr().out == stdout_line(model, "1.0000", 10000, seed)
    assert (sha256(tmp_path / "forecast.json"),
            sha256(tmp_path / "timeseries.csv")) == GOLDEN[seed, model]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", sorted(GOLDEN_MONTE_CARLO))
def test_gaussian_monte_carlo_bytes(tmp_path, seed, workers):
    assert (monte_carlo_files(tmp_path, POLLS, seed, 10000, workers)
            == list(GOLDEN_MONTE_CARLO[seed]))


# At --win-threshold 18 the fixture is close in many states: about 14% of
# (state, path) pairs with seed 1 change sides over the grid, so settling
# them exercises the per-day comparison, not only a whole-range bound.
# noise model -> (p_national printed, sha256 of forecast.json, timeseries.csv)
GOLDEN_THRESHOLD_18 = {
    "gaussian": (
        "0.9984",
        "19d22dd8776f9463ec0ba6aa4a1a87661ded4e703542f10a929749bef18d6679",
        "4215dd5e2ae9491aee8336e6285627bfd347e3fc653fb4ea63975ed22c84026d",
    ),
    "student_t": (
        "0.9967",
        "2b7977e3998cbe8df7e78e2aba4321647d7cd378c302a9ef2dc466e78fe600f4",
        "2088021d2f64b4d18f6a44d643456aa09dd2a311911cb9d174ed58a8a58417e9",
    ),
}


# The Gaussian Monte Carlo's, before `forecast` computed Gaussian noise
# (it printed p_national = 0.9981).
GOLDEN_THRESHOLD_18_MONTE_CARLO = (
    "a5e9cabf121a076dc8f9ab5f7f45130ccafc790b34b63473d4bed661e5438504",
    "0b8deed0a4abdd3eb129c238295faf71add690f6c7c00f56c83bbe0d18bcbcc0",
)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", sorted(GOLDEN_THRESHOLD_18))
def test_forecast_bytes_contested_threshold(tmp_path, model, workers, capsys):
    assert main([
        "forecast", *POLLS,
        "--seed", "1",
        "--noise-model", model,
        "--workers", str(workers),
        "--win-threshold", "18",
        "--out-dir", str(tmp_path),
    ]) == 0
    p_national, *digests = GOLDEN_THRESHOLD_18[model]
    assert capsys.readouterr().out == stdout_line(model, p_national, 10000, 1)
    assert [sha256(tmp_path / "forecast.json"),
            sha256(tmp_path / "timeseries.csv")] == digests


@pytest.mark.parametrize("workers", [1, 2])
def test_gaussian_monte_carlo_bytes_contested_threshold(tmp_path, workers):
    assert (monte_carlo_files(tmp_path, POLLS, 1, 10000, workers, threshold=18.0)
            == list(GOLDEN_THRESHOLD_18_MONTE_CARLO))


# A frozen calibration document (the `calibrate` output on the fixtures)
# makes a one-day run, which settles its single day without a day-range
# bound.  Recorded while the simulator still stored every (path, day)
# market level.
# noise model -> (p_national printed, sha256 of forecast.json, timeseries.csv)
GOLDEN_ONE_DAY = {
    "gaussian": (
        "0.9984",
        "4b5cc5457caacd9adfbc561c64bff6ac5bb96cd870ad5c8bc69d3368b82f4a0e",
        "1151bb9edc2716e654607279fec30328f2f6295d91036ec36bfa6ecc3467e375",
    ),
    "student_t": (
        "0.9971",
        "841405eb94e9781fe199e3e6bd63cac6b55df7a6e3c8a6c3119480a0fe7472ed",
        "1a58dd8561c72c5e1d19ea7a7c220fbee7027823cc9cb561840da086ad2b92b8",
    ),
}


# The Gaussian Monte Carlo's at 10,000 and at 70,001 paths, before
# `forecast` computed Gaussian noise (it printed 0.9987 and 0.9984).
GOLDEN_ONE_DAY_MONTE_CARLO = {
    10000: ("2ea3f736044d260da1d676c2322b51eb94022bff01fd923efce38f754427f947",
            "3860503e08a6e4fa649e819765f071e37968c8fca6861eee5209c2b47b5c80a8"),
    70001: ("171fc36c6af57bae3095f538c112d37ed6e64ea6a833ce0dbd7b19202dbffb57",
            "6d75e530a8b3b4991995aba30a106c008b55a6feedd81de9f817c1109618c15f"),
}


def assert_frozen_calibration_bytes(out_dir, model, workers, paths, golden, capsys):
    assert main([
        "forecast", *CALIBRATION,
        "--seed", "7",
        "--noise-model", model,
        "--workers", str(workers),
        "--win-threshold", "18",
        "--paths", str(paths),
        "--out-dir", str(out_dir),
    ]) == 0
    p_national, *digests = golden
    assert capsys.readouterr().out == stdout_line(model, p_national, paths, 7)
    assert [sha256(out_dir / "forecast.json"),
            sha256(out_dir / "timeseries.csv")] == digests


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", sorted(GOLDEN_ONE_DAY))
def test_forecast_bytes_frozen_calibration(tmp_path, model, workers, capsys):
    assert_frozen_calibration_bytes(tmp_path, model, workers, 10000,
                                    GOLDEN_ONE_DAY[model], capsys)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("paths", sorted(GOLDEN_ONE_DAY_MONTE_CARLO))
def test_gaussian_monte_carlo_bytes_frozen_calibration(tmp_path, paths, workers):
    assert (monte_carlo_files(tmp_path, CALIBRATION, 7, paths, workers, threshold=18.0)
            == list(GOLDEN_ONE_DAY_MONTE_CARLO[paths]))


# The same run at 70,001 paths: more than one ``_TILE`` (65,536) and not a
# multiple of it, so each state's draws and its settle span a whole tile
# and a partial one.  The Gaussian Monte Carlo digests (above) were recorded
# while each state's noise was still drawn in one piece; the Student-T ones
# since each state draws its four variates one tile of paths at a time,
# which changed that model's realization above one tile.  The Gaussian
# engine reads no path count: only the n_paths it records differs from the
# 10,000-path run.
GOLDEN_ONE_DAY_70001 = {
    "gaussian": (
        "0.9984",
        "e7414c1baf02c3048fd6df21a55274282d13a1a15fb4463c9b82ca6da43cb05c",
        "1151bb9edc2716e654607279fec30328f2f6295d91036ec36bfa6ecc3467e375",
    ),
    "student_t": (
        "0.9973",
        "ae87a3855a06cac825bc4e0c2102786138fdf2c2d2a41f60e196791957b89d72",
        "8b1bdf6e4991e86e248530f251a4faac06a268f4735b360cfc5b450ba0ff49c2",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", sorted(GOLDEN_ONE_DAY_70001))
def test_forecast_bytes_above_one_tile(tmp_path, model, workers, capsys):
    assert_frozen_calibration_bytes(tmp_path, model, workers, 70001,
                                    GOLDEN_ONE_DAY_70001[model], capsys)


# The fixture's daily series at 2 * 65,536 + 7 paths: two whole path tiles
# and a partial one, on every grid day.  Recorded while each worker still
# held an electoral-vote table of every path and day; the Gaussian entry
# pins the exact engine, whose series is the 10,000-path run's.
# noise model -> sha256 of (forecast.json, timeseries.csv)
GOLDEN_SERIES_131079 = {
    "gaussian": (
        "22c3d7823e55687146411a2b551b114fb964fee509b2fd3dbb98d95c2eb45bc3",
        "0d2c54130e4bf0b6c4e82a0479197c9ddb1c499125513f68b7fab5dbe315c597",
    ),
    "student_t": (
        "2532f0c095ed0b69b5bf52aab4d41d03d35483ea8fd1c0dcd3e745cdf68347a1",
        "70b2a3a6f6d5e168dab7e1037726266ef4d294275d13bfda165eb27593bc760a",
    ),
}


# The Gaussian Monte Carlo's, before `forecast` computed Gaussian noise.
GOLDEN_SERIES_131079_MONTE_CARLO = (
    "f45860909a30f859d7a237fa15889ab1d44f9da946367dfbb12b80e9ceb2c7be",
    "41458ddf9c729b9d0f3982279ec20b85a724f339d16c66ebd010f18b2b3cc7b2",
)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("model", sorted(GOLDEN_SERIES_131079))
def test_series_bytes_above_two_tiles(tmp_path, model, workers, capsys):
    assert main([
        "forecast", *POLLS,
        "--seed", "1",
        "--noise-model", model,
        "--workers", str(workers),
        "--paths", "131079",
        "--out-dir", str(tmp_path),
    ]) == 0
    assert capsys.readouterr().out == stdout_line(model, "1.0000", 131079, 1)
    assert (sha256(tmp_path / "forecast.json"),
            sha256(tmp_path / "timeseries.csv")) == GOLDEN_SERIES_131079[model]


@pytest.mark.parametrize("workers", [1, 2])
def test_gaussian_monte_carlo_series_bytes_above_two_tiles(tmp_path, workers):
    assert (monte_carlo_files(tmp_path, POLLS, 1, 131079, workers)
            == list(GOLDEN_SERIES_131079_MONTE_CARLO))


# The first two experts of experts.csv, written as their own panel: with
# two experts, `trade --reference pairmean` plays the pair game.  Its
# digests were recorded after the one price-series type for trading.
PAIR_PANEL = "pair_panel.csv"

# name -> (arguments, stdout, {output file: sha256}); every file the command
# writes is listed.  PAIR_PANEL stands for the path of that panel.
EVALUATIONS = {
    "score": (
        ["score", "--series", FIXTURES / "series.csv",
         "--outcomes", FIXTURES / "outcomes.csv",
         "--histograms", FIXTURES / "histograms.csv", "--ev-realization", "300",
         "--metrics", "brier", "loglik", "selten", "spherical", "cdf"],
        "wrote 9 score table(s)\n",
        {
            "scores.json": "6f911b912821759cc1aed84c36b0ee25c5ae0e39a72b0cbf519000685f107e2d",
            "scores_brier_ev_weighted.csv": "677f4386659de407753135f67b38d866d26241dbbdb20ae6b62c5c1f7aebd581",
            "scores_brier_overall.csv": "2f85fa64531c14dc29b704ac34ef0d34fbbb918b9a408ad574ac15d4b1e01cb7",
            "scores_brier_state_average.csv": "cb4ac2341603900d2e017c462ff3779f287f46854ab6a0add2d2997b3fc7d757",
            "scores_cdf_overall.csv": "102dd2ea7a1cfd95688a97870d478ed089b3e724a1cd78da43d86fd590d24ad2",
            "scores_loglik_ev_weighted.csv": "1bbe999416a6939f379577e6611b1480a2710937e55ac39bcda3f9d4c8cc9980",
            "scores_loglik_overall.csv": "78ff473caefc37a056c2fb17d03b8a9535b52463f4c8e705f87d7001897a6f12",
            "scores_loglik_state_average.csv": "64945cbbf7466aae60b774190a9b34551894bcc4f7636421d6a3025a3d26abc8",
            "scores_selten_overall.csv": "4f1889c1955e533ab89a536a36e2466c17cdfd7569b6f84fe5b904e64e9b59e3",
            "scores_spherical_overall.csv": "0eca50c69bb83c07c81323c6b5b6781165ac3e9bc1f1669d115d4529ac163443",
        },
    ),
    "trade_reference": (
        ["trade", "--experts", FIXTURES / "experts.csv",
         "--reference-file", FIXTURES / "reference.csv",
         "--outcomes", FIXTURES / "outcomes.csv"],
        "traded 4 forecaster(s); settled at realization\n",
        {
            "pnl_CAPM.csv": "dccd91c5c8ff7ea2024cf3c32508d9b3c7b70c672f886d1aed288056c3c4c1f2",
            "pnl_FTE.csv": "6c0b2e6ebd2d6c77127eb77a2c556e090c55cf7fda13daa6730e766359fd9c99",
            "pnl_ONLINE.csv": "a450f2a8939ac5235d66293b2ada2a6fb0097da40cc0dae9d01e4ebc415352a1",
            "pnl_PEC.csv": "4ba684d4c17351b6c398577225dcf09a7e968714e8145b70017bfbde4648fe52",
            "pnl_summary.csv": "20be57de1776d7e58114f691e10448a5d6f5bdd444e0f88b1e02a9bdf863aa04",
        },
    ),
    "trade_pairmean": (
        ["trade", "--experts", FIXTURES / "experts.csv", "--reference", "pairmean"],
        "traded 4 forecaster(s); settled at final pair-mean price\n",
        {
            "pnl_CAPM.csv": "f303a20b750551c0690719d82b40bd9c8b6c196767a02837f6a1c7852e99c0f1",
            "pnl_FTE.csv": "77e84c93c923d97a731d88335537fd6cd445f97deecd4848d7d3e3414a4b92b2",
            "pnl_ONLINE.csv": "abe6c6119c4f243e0df9f4367a610b4b42f7e63220f8d6e29a95c46a1ff3fc2e",
            "pnl_PEC.csv": "cab853451b6b8ac225e948bd256bf77140bcea52a58c1bb58c9305c8b212305f",
            "pnl_summary.csv": "d91fe4fed5e6548c2b21de0f95a0a298910915cd14f83a39491db80be98544d2",
        },
    ),
    "trade_pair": (
        ["trade", "--experts", PAIR_PANEL, "--reference", "pairmean"],
        "traded 3 forecaster(s); settled at final pair-mean price\n",
        {
            "pnl_CAPM.csv": "901d1a1efc4a2a931783fc808dfbdfd8bd00561d219027b87474e260d75fc689",
            "pnl_FTE.csv": "00ce4843d55e8e6c47c3e021e1f2fb2fe66be16dd0b13d6f425c4c677a7cb957",
            "pnl_ONLINE.csv": "1f69a4d69517ce742de97f8db88b4b60ff4f7f96f53af776912c125797bada8b",
            "pnl_summary.csv": "452868450641eb643e4dc39d60ce9e962b098d9c68d2a043db048a8faf50e181",
        },
    ),
    "trade_pair_outcomes": (
        ["trade", "--experts", PAIR_PANEL, "--reference", "pairmean",
         "--outcomes", FIXTURES / "outcomes.csv"],
        "traded 3 forecaster(s); settled at realization\n",
        {
            "pnl_CAPM.csv": "5eec192de026c842d3d5912a21623df0f45a9a48f5626cda3aa63b12a8f154f5",
            "pnl_FTE.csv": "7af576dde0166f2b6a8778149c7292cba86b8ab4987af43d903190a28d1b2b17",
            "pnl_ONLINE.csv": "92d5160e94a21a40f2d189991a31a51f408917ad321b8e9807abb5509cad9b0d",
            "pnl_summary.csv": "139c85805f5016683cdcf0e63ab55a65ad45a51bd644f0e116c0403dad488d13",
        },
    ),
    # learner.json was re-pinned when the regret became one sum over the
    # rounds of the learner's loss minus the best expert's, which moved it in
    # its last digits (0.3343403333924769 -> 0.33434033339247693 here).
    "aggregate_quadratic": (
        ["aggregate", "--experts", FIXTURES / "experts.csv",
         "--reference-file", FIXTURES / "reference.csv", "--loss", "quadratic"],
        "aggregated 3 experts over 11 rounds; regret 0.3343 (bound 2.4581)\n",
        {
            "aggregate.csv": "ce4fc4caeb6eecde0965f4b6def57ed53dc47ee0e11449924d9d246fc161e739",
            "learner.json": "250dc1de247454469e72c05297b0b0c8dc17f893393f67087be3c465edec0f1b",
            "mse.csv": "b1821a5aa85a6a2a663333567d0f48f98a081ea01bb3a7e85675a51cdf45bd4e",
        },
    ),
    "aggregate_trading": (
        ["aggregate", "--experts", FIXTURES / "experts.csv",
         "--reference-file", FIXTURES / "reference.csv", "--loss", "trading"],
        "aggregated 3 experts over 11 rounds; regret 0.0007 (bound 2.4581)\n",
        {
            "aggregate.csv": "032dcfee23e35fb4ba71a42e09b71f3513ed72fc78d14022787ac65a4d9b94b5",
            "learner.json": "989af4813791b0defb05ca837875a8e6525e84d4ca555182a593c0e0925d4905",
            "mse.csv": "e9bbedae81ca968a9db0e39211fe2e1220c7bb165abd042695df750251994982",
        },
    ),
    "curves": (
        ["curves"],
        "wrote 4 curve table(s) over 6 densities\n",
        {
            "curves_cdf.csv": "8c0a594b0bc27b1240c31ad93ceb847782c1600346265b00ad91e11c57523c18",
            "curves_log.csv": "a4764b432495b8a5bb4ca196c55d2c75c320211920537b844e2c6cfd4efa3fc3",
            "curves_selten.csv": "d8926b174993484a12a1bcbe478d6021acbf5ac02a7168e06b2d0701d9d74e43",
            "curves_spherical.csv": "50efb9740bc4a440c46f73e66aaf763f3e2c0d78de401c7dafce8a2dd8a74560",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(EVALUATIONS))
def test_evaluation_bytes(tmp_path, name, capsys):
    args, stdout, digests = EVALUATIONS[name]
    pair = tmp_path / PAIR_PANEL
    pair.write_text("".join(",".join(line.split(",")[:3]) + "\n" for line in
                            (FIXTURES / "experts.csv").read_text().splitlines()))
    out = tmp_path / "out"
    args = [pair if a == PAIR_PANEL else a for a in args]
    assert main([*map(str, args), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == stdout
    assert {p.name: sha256(p) for p in out.iterdir()} == digests


def test_pairmean_names_the_reference_file_it_does_not_read(tmp_path, capsys):
    args, stdout, digests = EVALUATIONS["trade_pairmean"]
    absent, out = tmp_path / "absent.csv", tmp_path / "out"
    assert main([*map(str, args), "--reference-file", str(absent), "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == f"note: --reference pairmean does not read the reference file {absent}\n"
    assert {p.name: sha256(p) for p in out.iterdir()} == digests


def test_calibrate_fixture_bytes(tmp_path, capsys):
    assert main([
        "calibrate",
        "--polls", str(FIXTURES / "polls.csv"),
        "--historical", str(FIXTURES / "historical.csv"),
        "--election-date", "2016-11-08",
        "--out-dir", str(tmp_path),
    ]) == 0
    assert capsys.readouterr().out == "calibrated 51 states (46 from historical data)\n"
    assert (tmp_path / "calibration.json").read_bytes() == (FIXTURES / "calibration.json").read_bytes()


# States interleaved in file order; four malformed rows (the first one is
# named in the note); a national row with both shares 0, which has no
# two-party share and is left out of sigma_samp; OH at exactly min_polls
# (fitted from its polls), PA one poll short of it, and FL with every poll on
# one day, so its regressor is constant: PA and FL fall back to history.
SMALL_POLLS = """\
pollster,state,date,sample_size,sample_type,pct_c1,pct_c2
N0,US,2016-09-01,900,LV,47,43
O0,OH,2016-09-02,600,RV,44,46
F0,FL,2016-10-01,700,LV,46,45
N1,US,2016-09-08,1200,RV,45.5,44.5
P0,PA,2016-09-10,800,LV,48,42
Bad0,OH,2016-09-12,,RV,44,46
N2,US,2016-09-15,1000,LV,0,0
O1,OH,2016-09-20,650,likely voters,45,45
F1,fl,2016-10-01,700,LV,47,44
Bad1,ZZ,2016-09-21,500,LV,40,40
N3,US,2016-09-25,1500,All,48.5,41
P1,PA,2016-09-28,800,LV,49,41
O2, OH ,2016-10-05,700,RV,43,47
F2,FL,2016-10-01,650,RV,45,46
Bad2,US,2016-11-09,900,LV,47,43
N4,US,2016-10-10,1100,LV,46,44.5
O3,OH,2016-10-20,700,LV,46.5,44
F3,FL,2016-10-01,700,LV,46,46
Bad3,US,2016-10-11,900,households,47,43
N5,US,2016-10-25,950,RV,47,42
P2,PA,2016-10-30,800,LV,47,44
"""


def test_calibrate_small_table_bytes(tmp_path, capsys):
    polls = tmp_path / "polls.csv"
    polls.write_text(SMALL_POLLS, encoding="utf-8")
    out = tmp_path / "out"
    assert main([
        "calibrate",
        "--polls", str(polls),
        "--historical", str(FIXTURES / "historical.csv"),
        "--election-date", "2016-11-08",
        "--out-dir", str(out),
    ]) == 0
    captured = capsys.readouterr()
    assert captured.out == "calibrated 51 states (50 from historical data)\n"
    assert captured.err == (f"note: skipped 4 poll row(s) of {polls}; "
                            "first at line 7: missing sample_size\n")
    assert sha256(out / "calibration.json") == (
        "680ce6e2c80cacdcbe7fd688aaa5820363279b8b8a73f9dca0b073f1f3daccc7")


# Series of 1, 3 and 130 dates (130 is past numpy's 128-element pairwise
# summation block), each written with its dates out of order and all of them
# taken a row at a time in turn, so that neither the file order nor the order
# of first appearance is the order of the series' lengths.  A and C each have
# states of every length; their state means depend on the order of their
# states (A's Brier means and C's Brier state average, for one, are other
# bits with the states taken grouped by length).  B's OH series and A's FL
# series put all their mass on the wrong outcome once: two notes, A's
# first, though B comes first in the file.  These digests were recorded
# when every series was scored on its own.
RAGGED = (("B", "OH", 3, 1), ("A", "US", 130, None), ("B", "US", 1, None),
          ("A", "FL", 1, 0), ("C", "PA", 130, None), ("A", "OH", 3, None),
          ("C", "FL", 3, None), ("A", "PA", 130, None), ("C", "OH", 1, None),
          ("C", "VA", 130, None), ("A", "MI", 3, None), ("C", "NC", 3, None),
          ("C", "WI", 1, None), ("C", "US", 3, None))
RAGGED_OUTCOMES = "state,omega\nUS,1\nOH,0\nFL,0\nPA,1\nNC,0\nVA,1\nWI,1\nMI,1\n"
RAGGED_DIGESTS = {
    "scores.json": "ff9b7d16186d124159adef233b8c6b56f8fa0b750e6cb80314f1544fc8e08e24",
    "scores_brier_ev_weighted.csv": "528be43324d5c938769651eb54a5dff4c4a2df78ab18710c184eb64fa7a95f32",
    "scores_brier_overall.csv": "25029f077f0cbc6dec564eae827f03407f6e9394c45db44fb4b62fca6aeff65a",
    "scores_brier_state_average.csv": "fce22f9c1313c10748842bcc7f61adefce49ef6a30abf56cb17f4fa6d71e9fff",
    "scores_loglik_ev_weighted.csv": "d3fe10c3c10fffe048b199990eb23220c3421d920a0c6cfdddffc8162d83425a",
    "scores_loglik_overall.csv": "10baeb963c2f06db3cfa5e3f93fe6fef18dc74342edf6980b7d28175a9c4cdf5",
    "scores_loglik_state_average.csv": "70de10fd4ea7f60e669fef16a85ae5d23a370fdcd6522ca429a5c957db5f4bd8",
}


def ragged_series_rows():
    """One text row per date of each RAGGED series, the series taken in turn."""
    series = []
    for j, (forecaster, state, n, miss) in enumerate(RAGGED):
        rows = []
        for i in range(n):
            day = date(2016, 6, 1) + timedelta(days=(i * 37 + 1) % n)
            p = "1.0" if i == miss else f"0.{(i * 7919 + j * 104729) % 9000 + 500:04d}"
            rows.append(f"{forecaster},{state},{day},{p}\n")
        series.append(rows)
    return [row for rows in itertools.zip_longest(*series) for row in rows if row]


def test_ragged_series_score_bytes(tmp_path, capsys):
    series, outcomes, out = tmp_path / "ragged.csv", tmp_path / "outcomes.csv", tmp_path / "out"
    series.write_text("forecaster,state,date,p\n" + "".join(ragged_series_rows()))
    outcomes.write_text(RAGGED_OUTCOMES)
    assert main(["score", "--series", str(series), "--outcomes", str(outcomes),
                 "--metrics", "brier", "loglik", "--out-dir", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "wrote 6 score table(s)\n"
    assert captured.err == (
        "note: A assigned zero probability to the realized outcome; log-likelihood is -inf\n"
        "note: B assigned zero probability to the realized outcome; log-likelihood is -inf\n")
    assert {p.name: sha256(p) for p in out.iterdir()} == RAGGED_DIGESTS
