"""Span tracer for the traced benchmark run.

The tracer replaces statecast functions with timing wrappers at the places
the code looks them up: module attributes, names ``cli`` imported from
``simulation``, and the scorer tables.  Nothing under ``src/`` changes;
:meth:`Tracer.uninstall` puts every original back.

A span is (id, parent id, name, thread id, start, end).  Spans stay in memory
until the run ends.  A span opened on a worker thread with nothing open on
that thread takes the main thread's innermost open span as parent, so state
draws made by the simulation's thread pool are children of
``simulate_paths``.  Self time subtracts the union of the children's
intervals, which counts two concurrent children once.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import subprocess
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and counts of one traced run, plus the patches that make them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._draw_keys: set = set()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._restore: list[tuple] = []

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``; ``before(args)`` and
        ``after(args, result)`` run outside the span to record counts."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            parent = stack[-1] if stack else (self._stacks.get(self._main) or [0])[-1]
            sid = next(self._ids)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append((sid, parent, name, tid, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, obj, attr: str, name: str, **hooks) -> None:
        original = getattr(obj, attr)
        self._restore.append((setattr, obj, attr, original))
        setattr(obj, attr, self.wrap(name, original, **hooks))

    def patch_table(self, table: dict, name: str) -> None:
        for key, fn in list(table.items()):
            self._restore.append((dict.__setitem__, table, key, fn))
            table[key] = self.wrap(name, fn)

    def uninstall(self) -> None:
        for setter, obj, key, original in reversed(self._restore):
            setter(obj, key, original)
        self._restore.clear()

    def start_operation(self) -> None:
        """Distinct draw requests are counted per operation."""
        self._draw_keys = set()

    # -- counters ---------------------------------------------------------

    def _draw_request(self, args) -> None:
        cal, m_terminal, model, rng = args
        n = np.size(m_terminal)
        philox = rng.bit_generator.state["state"]
        key = (philox["key"].tobytes(), philox["counter"].tobytes(), n, cal, model)
        with self._lock:
            self.counts["draw_requests"] += 1
            if key not in self._draw_keys:
                self._draw_keys.add(key)
                self.counts["distinct_draws"] += 1
            self.counts["state_draws"] += n

    def install(self) -> None:
        from statecast import calibration, cli, ingest, online, scoring, simulation, trading

        def parsed(args, result):
            self.add("rows_parsed", len(result.records))
            self.add("rows_skipped", result.n_skipped)

        def smoothed(args, result):
            self.add("grid_points", len(result.grid))

        def calibrated(args, result):
            self.add("states_historical", sum(
                c.source == calibration.SOURCE_HISTORICAL for c in result.values()))

        def learned(args, result):
            self.add("online_rounds", len(result.aggregate))

        p = self.patch
        p(ingest, "parse_polls", "ingest.parse_polls", after=parsed)
        p(ingest, "to_spreads", "ingest.to_spreads")
        p(ingest, "smooth_national", "ingest.smooth_national", after=smoothed)
        p(ingest, "load_historical", "ingest.load_historical")
        p(calibration, "calibrate_states", "calibration.calibrate_states", after=calibrated)
        p(calibration, "calibrate_market", "calibration.calibrate_market")
        for mod in (simulation, cli):
            p(mod, "run_forecast", "simulation.run_forecast")
            p(mod, "probability_time_series", "simulation.probability_time_series")
        p(simulation, "simulate_paths", "simulation.simulate_paths")
        p(simulation, "simulate_market_terminals", "simulation.simulate_market_terminals")
        p(simulation, "sample_state_noise", "simulation.sample_state_noise",
          before=self._draw_request)
        p(scoring, "score_curves", "scoring.score_curves")
        p(scoring, "gaussian_histogram", "scoring.gaussian_histogram")
        p(scoring, "aggregate_scores", "scoring.aggregate_scores")
        self.patch_table(cli._DENSITY_SCORERS, "scoring.density")
        self.patch_table(scoring._DENSITY_FNS, "scoring.density")
        self.patch_table(cli._BINARY_SCORERS, "scoring.binary")
        p(trading, "positions", "trading.positions")
        p(trading, "mark_to_market", "trading.mark_to_market")
        p(trading, "settle", "trading.settle")
        p(online, "run", "online.run", after=learned)
        p(online, "update", "online.update")

    # -- reduction --------------------------------------------------------

    def layer_metrics(self, n_ops: int, workers: int) -> dict[str, float]:
        """Per-operation busy time, self time and counts of every layer."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        selft: dict[str, float] = defaultdict(float)
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, t0, t1 in self.spans:
            children[parent].append((t0, t1))
        for sid, _, name, _, t0, t1 in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
            selft[name] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)

        c = self.counts
        draws_busy = busy["simulation.sample_state_noise"]
        paths_wall = busy["simulation.simulate_paths"]
        per_op = {
            "cli.self_s": selft["cli.main"],
            "cli.bytes_read": c["bytes_read"],
            "cli.bytes_written": c["bytes_written"],
            "ingest.parse_polls.s": busy["ingest.parse_polls"],
            "ingest.rows_parsed": c["rows_parsed"],
            "ingest.rows_skipped": c["rows_skipped"],
            "ingest.to_spreads.s": busy["ingest.to_spreads"],
            "ingest.smooth_national.s": busy["ingest.smooth_national"],
            "ingest.grid_points": c["grid_points"],
            "ingest.load_historical.s": busy["ingest.load_historical"],
            "calibration.calibrate_states.s": busy["calibration.calibrate_states"],
            "calibration.states_historical": c["states_historical"],
            "calibration.calibrate_market.s": busy["calibration.calibrate_market"],
            "simulation.probability_time_series.s": busy["simulation.probability_time_series"],
            "simulation.run_forecast.calls": calls["simulation.run_forecast"],
            "simulation.run_forecast.self_s": selft["simulation.run_forecast"],
            "simulation.simulate_paths.self_s": selft["simulation.simulate_paths"],
            "simulation.sample_state_noise.s": draws_busy,
            "simulation.sample_state_noise.calls": calls["simulation.sample_state_noise"],
            "simulation.state_draws": c["state_draws"],
            "simulation.simulate_market_terminals.s": busy["simulation.simulate_market_terminals"],
            "scoring.score_curves.s": busy["scoring.score_curves"],
            "scoring.density_calls": calls["scoring.density"],
            "scoring.gaussian_histogram.s": busy["scoring.gaussian_histogram"],
            "scoring.binary.s": busy["scoring.binary"],
            "scoring.aggregate_scores.s": busy["scoring.aggregate_scores"],
            "trading.positions.s": busy["trading.positions"],
            "trading.mark_to_market.s": busy["trading.mark_to_market"],
            "trading.mark_to_market.calls": calls["trading.mark_to_market"],
            "trading.settle.s": busy["trading.settle"],
            "online.run.s": busy["online.run"],
            "online.rounds": c["online_rounds"],
            "online.update.calls": calls["online.update"],
        }
        out = {k: v / n_ops for k, v in per_op.items()}
        # Ratios are not per operation; 0 where the layer did no work.
        out["simulation.draws_per_s"] = c["state_draws"] / draws_busy if draws_busy else 0.0
        out["simulation.unique_draw_ratio"] = (
            c["distinct_draws"] / c["draw_requests"] if c["draw_requests"] else 0.0)
        out["simulation.parallel_efficiency"] = (
            draws_busy / (workers * paths_wall) if paths_wall else 0.0)
        return out

    def dump(self, path) -> None:
        """All spans as gzip-compressed CSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,thread,start,end\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def import_breakdown(env: dict) -> dict[str, float]:
    """``python -X importtime -c "import statecast.cli"`` summed by package."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import statecast.cli"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    self_us: dict[str, float] = defaultdict(float)
    total = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            us = float(parts[0].split(":")[1])
        except ValueError:
            continue  # the header line
        top = parts[2].strip().split(".")[0]
        total += us
        self_us[top] += us
    return {
        "import.total_s": total / 1e6,
        "import.scipy_s": self_us["scipy"] / 1e6,
        "import.numpy_s": self_us["numpy"] / 1e6,
        "import.statecast_self_s": self_us["statecast"] / 1e6,
    }
