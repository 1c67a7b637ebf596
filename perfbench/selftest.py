"""Self-test of the benchmark at tiny sizes.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

For every workload it runs one timed operation untraced and one traced,
asserts that every metric named in BENCHMARK.json is reported with its unit
and that every output check passes.  Then it corrupts each kind of output
the checks guard (a histogram shifted by one bin, a wrong p_state, a wrong
skip count, ...) and asserts that the check reports it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads

SEED = 7


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _edit_lines(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def _shift_histogram(doc):
    doc["ev_histogram"] = [0.0] + doc["ev_histogram"][:-1]


def _nudge_state(doc):
    # Moves candidate-1 probability between two states with equal votes, so
    # the EV identity still holds and only the closed form can notice.
    doc["p_state"]["CT"] += 0.2
    doc["p_state"]["OK"] -= 0.2


def _drop_loglik(rows):
    rows[:] = [r for r in rows if r["metric"] != "loglik"]


def _replace_first_value(lines, column: int, value: str):
    cells = lines[1].rstrip("\n").split(",")
    cells[column] = value
    return [lines[0], ",".join(cells) + "\n"] + lines[2:]


def _set_row(name: str, column: str, value: float):
    def edit(lines):
        header = lines[0].rstrip("\n").split(",")
        out = [lines[0]]
        for line in lines[1:]:
            cells = line.rstrip("\n").split(",")
            if cells[0] == name:
                cells[header.index(column)] = repr(value)
            out.append(",".join(cells) + "\n")
        return out
    return edit


# (description, file under the output dir, edit, how to edit the captured stderr)
CORRUPTIONS = {
    "timeseries": [
        ("histogram shifted one bin", "forecast.json", _shift_histogram, None),
        ("p_state off the closed form", "forecast.json", _nudge_state, None),
        ("p_national off the histogram", "forecast.json",
         lambda d: d.update(p_national=d["p_national"] + 0.01), None),
        ("time series not starting at p_national", "timeseries.csv",
         lambda lines: _replace_first_value(lines, 1, "0.123"), None),
        ("time series one day short", "timeseries.csv", lambda lines: lines[:-1], None),
    ],
    "bigrun": [
        ("histogram shifted one bin", "forecast.json", _shift_histogram, None),
        ("p_national off the histogram", "forecast.json",
         lambda d: d.update(p_national=d["p_national"] - 0.01), None),
    ],
    "calibrate_bulk": [
        ("a state missing", "calibration.json", lambda d: d["states"].pop("CA"), None),
        ("a thin state calibrated from polls", "calibration.json",
         lambda d: d["states"][next(s for s, c in sorted(d["states"].items())
                                    if c["source"] == "historical")].update(source="polls"),
         None),
        ("a malformed row kept", None, None,
         lambda err: err.replace("skipped ", "skipped 1", 1)),
    ],
    "evaluate": [
        ("cdf score off the CRPS", "score/scores_cdf_overall.csv",
         _set_row("H0", "value", 1.5), None),
        ("pair game not zero-sum", "pair/pnl_summary.csv",
         _set_row("E0", "total_settled", 0.25), None),
        ("regret above its bound", "aggregate/learner.json",
         lambda d: d.update(regret=d["regret_bound"] + 1.0), None),
        ("curve table one row short", "curves/curves_cdf.csv", lambda lines: lines[:-1], None),
        ("a metric not scored", "score/scores.json", _drop_loglik, None),
    ],
}


def check_metrics(name: str, record: dict, wanted: list[dict]) -> None:
    result = record["result"]
    assert result["correct"] and result["failed"] == 0, (name, record["problems"])
    assert result["attempted"] >= 2, (name, result["attempted"])
    got = result["metrics"]
    for m in wanted:
        assert m["name"] in got, (name, m["name"])
        assert got[m["name"]]["unit"] == m["unit"], (name, m["name"])
        assert isinstance(got[m["name"]]["value"], float | int), (name, m["name"])
    assert set(got) == {m["name"] for m in wanted}, (name, sorted(got))


def check_corruptions(name: str, root: Path) -> None:
    work = run.BENCH / "work" / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cli = run._import_cli(root)
        wl = workloads.WORKLOADS[name](SEED, root, work, True)
        runner = run.Runner(cli, wl)
        for argv in wl.prepare:
            assert runner.call(cli.main, argv)[0] == 0, argv
        logs = [runner.call(cli.main, argv) for argv in wl.steps]
        assert all(rc == 0 for rc, _ in logs), logs
        stderr = "".join(err for _, err in logs)
        assert wl.check(stderr) == [], wl.check(stderr)
        pristine = work / "pristine"
        shutil.copytree(wl.out, pristine)

        for label, rel, edit, edit_err in CORRUPTIONS[name]:
            shutil.rmtree(wl.out)
            shutil.copytree(pristine, wl.out)
            if rel is not None:
                path = wl.out / rel
                (_edit_json if path.suffix == ".json" else _edit_lines)(path, edit)
            # A fresh workload has no digest yet, so the corruption itself
            # has to be what the check reports.
            fresh = workloads.WORKLOADS[name](SEED, root, work, True)
            problems = fresh.check(edit_err(stderr) if edit_err else stderr)
            assert problems, f"{name}: check missed '{label}'"
            print(f"  {name}: '{label}' caught: {problems[0]}")

        if name in ("timeseries", "bigrun"):
            shutil.rmtree(wl.out)
            shutil.copytree(pristine, wl.out)
            _edit_json(wl.out / "forecast.json", lambda d: d.update(seed=d["seed"] + 1))
            assert wl.check(stderr), f"{name}: changed forecast.json digest missed"
            print(f"  {name}: 'forecast.json changed between operations' caught")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    root = Path.cwd()
    spec = run._spec()
    for name in workloads.WORKLOADS:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            record = run.run(name, SEED, 0.0, trace, root, tiny=True)
            check_metrics(name, record, wanted)
            print(f"{name} trace={int(trace)}: {len(wanted)} metrics, checks pass")
        check_corruptions(name, root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
