"""Spans and counters for the benchmark's traced run.

The traced run wraps the package's functions from outside: it replaces the
module and class attributes that callers look up at call time (for example
``lowems.solver.update_V``, ``lowems.experiments.observe`` or
``GaussianOperator.iter_blocks``) with wrappers that record a span per call.
Nothing under ``src/`` changes.  Spans nest per thread; a span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import threading
import time
import warnings
from collections import defaultdict

# Spans reported as ``.s`` (total seconds) and ``.calls``.
TIMED = (
    "solver.solve",
    "solver.init",
    "core.top_r_svd",
    "solver.update_U",
    "solver.update_V",
    "solver.objective",
    "dynamics.generate_truth",
    "measurement.make_operator",
    "measurement.observe",
    "measurement.apply",
    "measurement.adjoint",
    "measurement.block_gen",
    "experiments.run_error_sweep",
    "experiments.datagen",
    "experiments.cell_solve",
    "ratings.ingest",
    "ratings.bin_by_time",
    "ratings.make_split",
    "ratings.cross_validate_kappa",
    "cli.main",
    "cli.write_csv",
)
# Spans with enough calls for a distribution: ``.p50_ms`` and ``.tail_ms``.
PERCENTILES = ("solver.solve", "solver.update_U", "solver.update_V", "solver.objective")
# Tail percentiles tried from the top; a percentile is used only when at
# least ten samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

DERIVED = {
    "solver.update_U.gflop_per_s": "GFLOP/s",
    "solver.update_V.gflop_per_s": "GFLOP/s",
    "solver.self_s": "s",
    "solver.sweeps": "count",
    "solver.half_sweeps_accepted": "count",
    "solver.accept_ratio": "ratio",
    "solver.stop.tol": "count",
    "solver.stop.stagnated": "count",
    "solver.stop.max_sweeps": "count",
    "solver.fallbacks": "count",
    "solver.diverged": "count",
    "measurement.blocks": "count",
    "measurement.block_bytes": "B",
    "experiments.cells": "count",
    "experiments.busy_s": "s",
    "experiments.parallel_eff": "ratio",
    "ratings.rows": "count",
    "ratings.fit_other.s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in PERCENTILES:
        units[f"{name}.p50_ms"] = "ms"
        units[f"{name}.tail_ms"] = "ms"
    units.update(DERIVED)
    return units


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= 10:
            return q
    return None


class WarningCounter:
    """Counts warnings by category name, replacing ``warnings.showwarning``.

    Installed once per process before any worker thread starts; counting is
    locked because sweep threads warn concurrently.
    """

    def __init__(self, categories) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.diverged = 0
        self._lock = threading.Lock()
        for category in categories:
            warnings.simplefilter("always", category)
        warnings.showwarning = self._show

    def _show(self, message, category, filename, lineno, file=None, line=None):
        with self._lock:
            self.counts[category.__name__] += 1
            if issubclass(category, RuntimeWarning) and "diverged" in str(message):
                self.diverged += 1


class Tracer:
    """In-memory spans (per name: duration and self time) and counters."""

    def __init__(self) -> None:
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans

    def _enter(self) -> float:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        stack = self._local.stack
        children = stack.pop()
        if stack:
            stack[-1] += duration
        with self._lock:
            self.spans[name].append((duration, duration - children))

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name, fn, on_call=None, on_return=None, on_error=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            start = self._enter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._exit(name, start)
                if on_error is not None:
                    on_error(exc)
                raise
            self._exit(name, start)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def wrap_generator(self, name, fn, on_item):
        """Time each ``next`` of a generator function as one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                start = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    self._exit(name, start)
                    return
                self._exit(name, start)
                on_item(item)
                yield item

        return traced

    # -- patching

    def patch(self, name: str, owners, attr: str, wrap=None, **hooks) -> None:
        """Wrap the function ``attr`` holds on the first owner, and install
        the wrapper on every owner that holds that same function."""
        fn = next((getattr(o, attr) for o in owners if hasattr(o, attr)), None)
        if fn is None:
            self.missing.append(f"{name} ({attr})")
            return
        wrapper = (wrap or self.wrap)(name, fn, **hooks)
        for owner in owners:
            if getattr(owner, attr, None) is fn:
                self._undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- report

    def metrics(self, run_s: float, threads: int) -> tuple[dict, dict]:
        """Per-layer metric values for one repetition, plus sample notes."""
        out: dict[str, float] = {}
        notes: dict[str, dict] = {}
        totals = {n: sum(d for d, _ in self.spans.get(n, ())) for n in TIMED}
        for name in TIMED:
            out[f"{name}.s"] = totals[name]
            out[f"{name}.calls"] = len(self.spans.get(name, ()))
        for name in PERCENTILES:
            ms = sorted(d * 1e3 for d, _ in self.spans.get(name, ()))
            tail = tail_percentile(len(ms))
            out[f"{name}.p50_ms"] = percentile(ms, 50.0) if ms else 0.0
            out[f"{name}.tail_ms"] = percentile(ms, tail) if tail else 0.0
            notes[name] = {"samples": len(ms), "tail_pct": tail}
        c = self.counts
        for side in ("U", "V"):
            secs = totals[f"solver.update_{side}"]
            flops = c[f"flops.update_{side}"]
            out[f"solver.update_{side}.gflop_per_s"] = flops / secs / 1e9 if secs else 0.0
        out["solver.self_s"] = sum(s for _, s in self.spans.get("solver.solve", ()))
        attempted = out["solver.update_U.calls"] + out["solver.update_V.calls"]
        out["solver.sweeps"] = c["solver.sweeps"]
        out["solver.half_sweeps_accepted"] = c["solver.accepted"]
        out["solver.accept_ratio"] = c["solver.accepted"] / attempted if attempted else 0.0
        for reason in ("tol", "stagnated", "max_sweeps"):
            out[f"solver.stop.{reason}"] = c[f"solver.stop.{reason}"]
        out["solver.fallbacks"] = c["solver.fallbacks"]
        out["solver.diverged"] = c["solver.diverged"]
        out["measurement.blocks"] = c["measurement.blocks"]
        out["measurement.block_bytes"] = c["measurement.block_bytes"]
        out["experiments.cells"] = out["experiments.datagen.calls"]
        busy = totals["experiments.datagen"] + totals["experiments.cell_solve"]
        out["experiments.busy_s"] = busy
        out["experiments.parallel_eff"] = busy / (threads * run_s) if busy else 0.0
        out["ratings.rows"] = c["ratings.rows"]
        out["ratings.fit_other.s"] = sum(
            s for _, s in self.spans.get("ratings.cross_validate_kappa", ())
        )
        return out, notes


def update_flops(problem, fixed) -> float:
    """Flops of one factor update, computed from the shapes.

    Sampling: an ``r x r`` outer product and a length-``r`` rhs term per
    measurement, then one ``r x r`` solve per output row.  Sensing: per
    measurement, the design row (``A_i @ fixed``), its Gram and rhs
    contributions, then one ``k x k`` solve with ``k = n_out * r``.
    """
    obs, w = problem.obs, problem.weights.w
    n_in, r = fixed.shape
    n_out = obs.n2 if n_in == obs.n1 else obs.n1
    m = sum(op.m for t, op in enumerate(obs.ops) if w[t] != 0.0)
    if obs.variant == "sampling":
        return m * (2 * r * r + 2 * r) + n_out * (2 * r**3 / 3 + 2 * r * r)
    k = n_out * r
    return m * (2 * obs.n1 * obs.n2 * r + 2 * k * k + 2 * k) + 2 * k**3 / 3


def install(tracer: Tracer) -> None:
    """Wrap the package's layer entry points where their callers look them up."""
    from lowems import cli, core, dynamics, experiments, measurement, ratings, solver

    t = tracer

    def solved(sol) -> None:
        accepted = len(sol.objective_trace) - 1
        t.count("solver.sweeps", sol.iterations)
        t.count("solver.accepted", accepted)
        if not sol.converged:
            t.count("solver.stop.max_sweeps")
        elif accepted < 2 * sol.iterations:
            t.count("solver.stop.stagnated")
        else:
            t.count("solver.stop.tol")

    def solve_failed(exc) -> None:
        if isinstance(exc, solver.DivergenceError):
            t.count("solver.diverged")

    def flops(side):
        return lambda problem, fixed: t.count(f"flops.update_{side}", update_flops(problem, fixed))

    def block(item) -> None:
        t.count("measurement.blocks")
        t.count("measurement.block_bytes", item[1].nbytes)

    def ingested(table) -> None:
        t.count("ratings.rows", table.n)

    t.patch("cli.main", [cli], "main")
    t.patch("experiments.run_error_sweep", [cli, experiments], "run_error_sweep")
    t.patch("experiments.datagen", [experiments], "_cell_data")
    t.patch("experiments.cell_solve", [experiments], "_solve_cell")
    t.patch("dynamics.generate_truth", [dynamics, experiments, ratings, cli], "generate_truth")
    t.patch("measurement.make_operator", [measurement, experiments, cli], "make_operator")
    t.patch("measurement.observe", [measurement, experiments, cli], "observe")
    for cls in (measurement.GaussianOperator, measurement.SamplingOperator):
        t.patch("measurement.apply", [cls], "apply")
        t.patch("measurement.adjoint", [cls], "adjoint")
    t.patch("measurement.block_gen", [measurement.GaussianOperator], "iter_blocks",
            wrap=t.wrap_generator, on_item=block)
    t.patch("solver.solve", [solver, experiments, ratings, cli], "solve",
            on_return=solved, on_error=solve_failed)
    t.patch("solver.init", [solver], "init_factors")
    t.patch("core.top_r_svd", [solver, core], "top_r_svd")
    t.patch("solver.update_U", [solver], "update_U", on_call=flops("U"))
    t.patch("solver.update_V", [solver], "update_V", on_call=flops("V"))
    t.patch("solver.objective", [solver], "objective")
    t.patch("ratings.ingest", [ratings], "ingest", on_return=ingested)
    t.patch("ratings.bin_by_time", [ratings], "bin_by_time")
    t.patch("ratings.make_split", [ratings], "make_split")
    t.patch("ratings.cross_validate_kappa", [ratings], "cross_validate_kappa")
    t.patch("cli.write_csv", [experiments.SweepResult], "to_csv")
    t.patch("cli.write_csv", [ratings.CrossValidation], "to_csv")
