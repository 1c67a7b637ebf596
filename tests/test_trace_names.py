"""The benchmark tracer's name contract.

``perfbench/spans.py`` times the pipeline by replacing statecast functions
and scorer-table entries by name.  A renamed or deleted name, or a changed
call shape, breaks the traced benchmark; this test fails on it first.
"""

import importlib.util
from pathlib import Path

from statecast.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"


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
    try:
        assert main([
            "forecast", "--polls", str(FIXTURES / "polls.csv"),
            "--historical", str(FIXTURES / "historical.csv"),
            "--election-date", "2016-11-08", "--seed", "5", "--paths", "200",
            "--out-dir", str(tmp_path / "forecast"),
        ]) == 0
        assert main([
            "score", "--series", str(FIXTURES / "series.csv"),
            "--outcomes", str(FIXTURES / "outcomes.csv"),
            "--histograms", str(FIXTURES / "histograms.csv"),
            "--ev-realization", "232", "--out-dir", str(tmp_path / "score"),
        ]) == 0
    finally:
        tracer.uninstall()
    names = {span[2] for span in tracer.spans}
    assert {"simulation.sample_state_noise", "scoring.binary", "scoring.density"} <= names
    assert patched
    for setter, obj, key, original in patched:
        assert current(setter, obj, key) is original, key
