"""The benchmark tracer's name contract.

``perfbench/spans.py`` times the pipeline by replacing statecast functions
and scorer-table entries by name.  A renamed or deleted name, or a changed
call shape, breaks the traced benchmark; this test fails on it first.
"""

import importlib.util

from statecast.cli import main

from test_cli import FIXTURES
from test_dependencies import ROOT

SIMULATOR_CALLS = ("simulation.probability_time_series", "simulation.run_forecast")
EXPERTS = ["--experts", FIXTURES / "experts.csv"]
MARKET = ["--reference-file", FIXTURES / "reference.csv"]
#: trade and aggregate runs: the layers they go through are traced too
EVALUATIONS = {
    "trade": ["trade", *EXPERTS, *MARKET, "--outcomes", FIXTURES / "outcomes.csv"],
    "pairmean": ["trade", *EXPERTS, "--reference", "pairmean"],
    "aggregate": ["aggregate", *EXPERTS, *MARKET, "--loss", "trading"],
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(setter, obj, key):
    return obj[key] if setter is dict.__setitem__ else getattr(obj, key)


def test_tracer_patches_and_restores_every_name(tmp_path):
    tracer = load_spans().Tracer()
    tracer.install()
    patched = list(tracer._restore)
    inputs = {
        "polls": ["--polls", FIXTURES / "polls.csv", "--historical", FIXTURES / "historical.csv",
                  "--election-date", "2016-11-08"],
        "calibration": ["--calibration", FIXTURES / "calibration.json"],
        # the draw hook keys each request on its noise model's name
        "student_t": ["--calibration", FIXTURES / "calibration.json",
                      "--noise-model", "student_t"],
    }
    simulator_spans, draws = {}, {}
    try:
        for kind, args in inputs.items():
            first = len(tracer.spans)
            assert main(["forecast", *map(str, args), "--seed", "5", "--paths", "200",
                         "--out-dir", str(tmp_path / kind)]) == 0
            simulator_spans[kind] = [span[2] for span in tracer.spans[first:]
                                     if span[2] in SIMULATOR_CALLS]
            draws[kind] = sum(span[2] == "simulation.sample_state_noise"
                              for span in tracer.spans[first:])
        assert main([
            "score", "--series", str(FIXTURES / "series.csv"),
            "--outcomes", str(FIXTURES / "outcomes.csv"),
            "--histograms", str(FIXTURES / "histograms.csv"),
            "--ev-realization", "232", "--out-dir", str(tmp_path / "score"),
        ]) == 0
        for kind, args in EVALUATIONS.items():
            assert main([*map(str, args), "--out-dir", str(tmp_path / kind)]) == 0
    finally:
        tracer.uninstall()
    # every forecast, whatever its input, is one simulator call
    assert simulator_spans == {kind: ["simulation.probability_time_series"] for kind in inputs}
    # a Gaussian forecast is computed and draws nothing; a Student-T one
    # draws once per state and settle tile (200 paths: one tile), each
    # counted by the draw hook
    assert draws == {"polls": 0, "calibration": 0, "student_t": 51}
    assert tracer.counts["draw_requests"] == sum(draws.values())
    names = {span[2] for span in tracer.spans}
    assert {"simulation.sample_state_noise", "scoring.binary", "scoring.density",
            "online.run", "online.update", "trading.positions", "trading.mark_to_market",
            "trading.settle"} <= names
    # the online.run hook counts the rounds of each run: one update a round
    updates = sum(span[2] == "online.update" for span in tracer.spans)
    assert tracer.counts["online_rounds"] == updates > 0
    assert patched
    for setter, obj, key, original in patched:
        assert current(setter, obj, key) is original, key
