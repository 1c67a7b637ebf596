"""statecast benchmark: one seeded workload, timed through ``statecast.cli.main``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload timeseries --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed`` under ``perfbench/work/``.
One untimed warm-up operation runs first; then operations run back to back
(a closed loop with one client) for ``--seconds``, and every operation's
outputs are checked.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends half the time untraced and half with every layer
wrapped in spans, and reports the per-layer metrics.

The host's speed drifts: on a shared 2-vCPU virtual machine the same
operation ran 35-50% slower for minutes at a time.  So after every
operation and cold launch, a fixed reference computation (``reference``)
is timed, and each operation's time is rescaled by the reference times
taken just before and after it to a host on which the reference takes
``REFERENCE_S``: seconds at reference speed.  The raw
figures and the reference times are kept in the record.  A full record (inputs
with their hashes, per-operation times, the environment) is written to
``perfbench/work/results/``.  The last line of standard output is the result
as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from spans import Tracer, import_breakdown

SETUP_LAUNCHES = 3
REFERENCE_S = 0.020      # the reference computation's time on the reference host
REFERENCE_SHARE = 0.05   # reference time spent after an operation, as a share of it
SETUP_REFERENCE_S = 0.1  # reference time spent after a cold launch
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "work" / "results"


def _spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _checkout(root: Path) -> dict:
    """Environment for child interpreters; refuses a tree without the source."""
    src = root / "src"
    if not (src / "statecast" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no statecast source under {src}; "
                         "run from the root of a statecast checkout")
    return dict(os.environ, PYTHONPATH=str(src))


def _import_cli(root: Path):
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from statecast import cli

    if Path(cli.__file__).resolve().parent != (root / "src" / "statecast").resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's source")
    return cli


def cold_import_s(env: dict) -> float:
    """A fresh interpreter until ``import statecast.cli`` returns."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import statecast.cli"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def reference() -> tuple[float, float]:
    """Wall and CPU time of a fixed computation that stands for the host's
    speed: a pure-Python dictionary loop and a numpy draw, sort and count,
    about as much of each as the workloads do.  It uses no statecast code."""
    c0, t0 = time.process_time(), time.perf_counter()
    table: dict[int, float] = {}
    for i in range(60_000):
        table[i & 1023] = table.get(i & 1023, 0.0) + i * 0.5
    x = np.random.default_rng(12345).standard_normal(400_000)
    np.sort(x[:100_000])
    int((x > 0.1).sum())
    return time.perf_counter() - t0, time.process_time() - c0


def reference_block(seconds: float) -> tuple[float, float]:
    """Median wall and CPU time of ``reference`` run for ``seconds``, at least once."""
    walls, cpus = [], []
    while not walls or sum(walls) < seconds:
        wall, cpu = reference()
        walls.append(wall)
        cpus.append(cpu)
    return statistics.median(walls), statistics.median(cpus)


def bracket(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    return (before[0] + after[0]) / 2, (before[1] + after[1]) / 2


def environment() -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg": os.getloadavg(),
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) elsewhere.

    Steal is time the hypervisor ran something else on our virtual CPUs; it
    lengthens wall time without adding CPU time."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _digest(path: Path) -> dict:
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least 10 samples beyond it.

    With n samples that is the k-th smallest, k = n - 10, which is
    percentile 100 k / n.  With 10 or fewer samples no percentile qualifies;
    the minimum is reported then, with the number of samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 10, 1)
    return {"value": ordered[k - 1], "percentile": 100.0 * k / n,
            "beyond": n - k, "samples": n}


class Runner:
    """Runs one workload's operations in-process and checks each one."""

    def __init__(self, cli, workload: workloads.Workload):
        self.cli = cli
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_read = sum(Path(a).stat().st_size for argv in workload.steps
                              for a in argv if os.path.isfile(a))
        # Reference (wall, cpu) around each untraced operation of ``loop``.
        self.refs: list[tuple[float, float]] = []

    def call(self, main, argv: list[str]) -> tuple[int, str]:
        """``main(argv)`` with its output captured; an exception escaping the
        CLI counts as a failed call, with its traceback as the message."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except Exception:  # noqa: BLE001 - one failed operation, not a failed run
                traceback.print_exc()
                rc = -1
        return rc, err.getvalue()

    def operation(self, tracer: Tracer | None = None) -> tuple[float, float]:
        main = self.cli.main if tracer is None else tracer.wrap("cli.main", self.cli.main)
        if tracer is not None:
            tracer.start_operation()
        gc.collect()
        logs, problems = [], []
        c0, t0 = time.process_time(), time.perf_counter()
        for argv in self.wl.steps:
            rc, err = self.call(main, argv)
            logs.append(err)
            if rc != 0:
                problems.append(f"{argv[0]} exited {rc}: {err.strip()}")
                break
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if not problems:
            try:
                problems = self.wl.check("".join(logs))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if tracer is not None:
            tracer.add("bytes_read", self.bytes_read)
            tracer.add("bytes_written", _tree_bytes(self.wl.out))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return wall, cpu

    def loop(self, seconds: float, tracer: Tracer | None = None):
        """Operations back to back for ``seconds``.  Untraced, each is followed
        by reference computations for ``REFERENCE_SHARE`` of its time, and
        ``self.refs`` gets the mean of the reference times on either side."""
        walls, cpus = [], []
        before = reference_block(SETUP_REFERENCE_S) if tracer is None else None
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            wall, cpu = self.operation(tracer)
            walls.append(wall)
            cpus.append(cpu)
            if before is not None:
                after = reference_block(REFERENCE_SHARE * wall)
                self.refs.append(bracket(before, after))
                before = after
        return walls, cpus


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        tiny: bool = False) -> dict:
    """Run one workload and return the full record; ``record["result"]`` is
    the object printed as the last line."""
    env = _checkout(root)
    env_start = environment()
    work = BENCH / "work" / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        cli = _import_cli(root)
        wl = workloads.WORKLOADS[workload](seed, root, work, tiny)
        runner = Runner(cli, wl)
        for argv in wl.prepare:
            rc, err = runner.call(cli.main, argv)
            if rc != 0:
                raise SystemExit(f"perfbench: {argv[0]} failed while preparing: {err}")

        metrics: dict[str, float] = {}
        raw: dict[str, float] = {}   # the time metrics unscaled
        ref: dict[str, float] = {}   # median reference time they were scaled by
        if not trace:
            launches, launch_refs = [], []
            before = reference_block(SETUP_REFERENCE_S)
            for _ in range(SETUP_LAUNCHES):
                launches.append(cold_import_s(env))
                after = reference_block(SETUP_REFERENCE_S)
                launch_refs.append(bracket(before, after)[0])
                before = after
            raw["setup_s"] = statistics.median(launches)
            ref["setup_s"] = statistics.median(launch_refs)
            metrics["setup_s"] = REFERENCE_S * statistics.median(
                t / r for t, r in zip(launches, launch_refs))
        runner.operation()  # warm-up, not timed
        steal0, total0 = cpu_ticks()
        walls, cpus = runner.loop(seconds / 2 if trace else seconds)
        steal1, total1 = cpu_ticks()
        wall_tail = tail(walls)
        raw.update({"wall_s": statistics.median(walls), "wall_tail_s": wall_tail["value"],
                    "cpu_s": statistics.median(cpus)})
        ref.update({"wall_s": statistics.median(r[0] for r in runner.refs),
                    "cpu_s": statistics.median(r[1] for r in runner.refs)})
        scaled = [REFERENCE_S * w / r[0] for w, r in zip(walls, runner.refs)]
        metrics.update({
            "wall_s": statistics.median(scaled),
            "wall_tail_s": tail(scaled)["value"],
            "cpu_s": statistics.median(REFERENCE_S * c / r[1]
                                       for c, r in zip(cpus, runner.refs)),
        })
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = runner.loop(seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics.update(import_breakdown(env))
            metrics.update(tracer.layer_metrics(len(traced), wl.workers))
            metrics["trace.overhead_s"] = statistics.median(traced) - raw["wall_s"]
            tracer.dump(RESULTS / f"spans-{workload}-s{seed}.csv.gz")
        metrics["error_rate"] = runner.failed / runner.attempted
        inputs = {p.name: _digest(p) for p in wl.inputs}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    env_end = environment()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "inputs": inputs, "wall_s_samples": walls, "cpu_s_samples": cpus,
        "wall_tail": wall_tail, "problems": runner.problems[:20],
        "raw_metrics": raw, "reference_s": {"target": REFERENCE_S, "measured": ref,
                                            "around_operation": runner.refs},
        "environment": {"start": env_start, "end": env_end,
                        "steal_share": (steal1 - steal0) / (total1 - total0)
                        if total1 > total0 else 0.0,
                        "overloaded": max(env_start["loadavg"][0], env_end["loadavg"][0])
                        > env_start["nproc"]},
        "all_metrics": metrics, "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    (RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in record["problems"]:
        print(f"FAILED CHECK: {problem}")
    t = record["wall_tail"]
    print(f"wall_tail_s is p{t['percentile']:.1f} of {t['samples']} operations "
          f"({t['beyond']} beyond it)")
    print(f"steal: {record['environment']['steal_share']:.1%} of CPU time during the timed loop")
    measured = record["reference_s"]["measured"]
    print(f"reference: median {measured['wall_s'] * 1e3:.2f} ms around operations, "
          f"{REFERENCE_S * 1e3:.0f} ms at reference speed; unscaled: " + ", ".join(
              f"{name} {value:.6g}" for name, value in record["raw_metrics"].items()))
    if record["environment"]["overloaded"]:
        print("WARNING: load average exceeded nproc during the run")
    shown = record["result"]["metrics"]
    if "error_rate" not in shown:  # an end-to-end metric, listed per layer: see README
        print(f"{'error_rate':42s} {record['all_metrics']['error_rate']:14.6g} ratio")
    for name, m in shown.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
