"""Golden bytes: `forecast` on the bundled fixtures writes exactly these files.

The digests were recorded from the per-day, per-state settle loop.  Any
rewrite of the simulator must reproduce every byte of ``forecast.json`` and
``timeseries.csv``, for either noise model and any worker count.
"""

import hashlib
from pathlib import Path

import pytest

from statecast.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

# (seed, noise model) -> sha256 of (forecast.json, timeseries.csv)
GOLDEN = {
    (1, "gaussian"): (
        "91332ed0653eb80d61b1b139513206191bfe740cefd3b042ad6457787761d47e",
        "6d42abc808bd887f19566d84fa9d9800701e860dbe86bf55fc0b9c3b6eecb916",
    ),
    (1, "student_t"): (
        "1891859a742f283a58b44b8ad122b82b1da7b3c681fc92ed04276e132937fb93",
        "23ed745b5fa3086cb6e98e10a00152647f44604623ed6abe84a0a2d5d27c62e7",
    ),
    (20161108, "gaussian"): (
        "e73d8b43f015bf55b7693a2e4be2dabf0776d9f72c525af541c8f9f45cff4441",
        "48b45ce9f8efc6379fed568906953931864457193ef166c73c72b616ac679e30",
    ),
    (20161108, "student_t"): (
        "3880a75202485b8d95448f9178b4adb46cfb3f2a56275a7e05789e82019acb83",
        "c371ec23f759b338a8775353985c00a67601c77f1e1c8500ce31b732a466d0f6",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed,model", sorted(GOLDEN))
def test_forecast_bytes(tmp_path, seed, model, workers, capsys):
    assert main([
        "forecast",
        "--polls", str(FIXTURES / "polls.csv"),
        "--historical", str(FIXTURES / "historical.csv"),
        "--election-date", "2016-11-08",
        "--seed", str(seed),
        "--noise-model", model,
        "--workers", str(workers),
        "--out-dir", str(tmp_path),
    ]) == 0
    assert capsys.readouterr().out == f"p_national = 1.0000 over 10000 paths (seed {seed})\n"
    assert (sha256(tmp_path / "forecast.json"),
            sha256(tmp_path / "timeseries.csv")) == GOLDEN[seed, model]
