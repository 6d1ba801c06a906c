"""Synthetic benchmark harness: error sweeps over drift levels, minimal
sample-complexity sweeps, and bound-shape diagnostics.

Seed discipline: every (grid point, trial) cell derives its own substream
from the master seed, keyed by indices only — never by strategy — so all
weighting strategies in one cell see identical planted data, operators, and
observation noise.  Results are therefore independent of execution order and
worker count.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import (
    COUNT, NONNEGATIVE, RandomStream, Range, check_matrix, check_rank, frobenius_norm,
    write_csv,
)
from .dynamics import generate_truth
from .measurement import VARIANTS, _workers, make_operator, observe
from .solver import INIT_MODES, DivergenceError, LowemsProblem, solve
from .weights import (
    WeightVector,
    baseline_weights,
    kappa_for,
    lag_profile,
    optimal_weights,
)

STRATEGIES = ("last_only", "equal", "optimal")
DENSITIES = Range(lambda p: 0 < p <= 1, "in (0, 1]")


def relative_error(x_hat, x) -> float:
    """Squared relative recovery error ``||x_hat - x||_F^2 / ||x||_F^2``."""
    x_hat = check_matrix(x_hat, "x_hat")
    x = check_matrix(x, "x")
    if x_hat.shape != x.shape:
        raise ValueError("shapes differ")
    denom = frobenius_norm(x) ** 2
    if denom == 0.0:
        raise ValueError("reference matrix is zero")
    return frobenius_norm(x_hat - x) ** 2 / denom


@dataclass(frozen=True)
class SweepConfig:
    """Shared configuration for the synthetic sweeps.

    ``m0`` drives the error sweep (fixed per-bin budget); ``p_grid`` drives
    the sample sweep (per-bin budget ``round(p * n1 * n2)`` per grid point,
    defaulting to 20 log-spaced densities in [0.02, 1]).  ``drift_grid``
    lists the drift levels; ``strategies`` the weightings to compare.
    Invalid settings are refused when the config is built, except the error
    sweep's need for ``m0``, which that sweep checks.
    """

    n1: int
    n2: int
    rank: int
    d: int
    noise_std: float
    drift_grid: tuple[float, ...]
    seed: int
    m0: int | None = None
    p_grid: tuple[float, ...] | None = None
    strategies: tuple[str, ...] = STRATEGIES
    trials: int = 10
    variant: str = "sampling"
    gamma: float = 0.0
    init: str = "spectral"
    max_sweeps: int = 500
    tol: float = 1e-8
    threads: int = 1
    success_threshold: float = 0.04

    def __post_init__(self) -> None:
        if min(self.n1, self.n2) not in COUNT:
            raise ValueError("dimensions must be positive")
        check_rank(self.rank, self.n1, self.n2)
        counts = (self.d, self.trials, self.threads, self.max_sweeps)
        if not all(v in COUNT for v in counts):
            raise ValueError("d, trials, threads, and max_sweeps must be positive")
        if not all(s in NONNEGATIVE for s in (self.noise_std, *self.drift_grid)):
            raise ValueError("noise levels must be nonnegative")
        if not self.drift_grid:
            raise ValueError("drift_grid must be nonempty")
        for name in ("gamma", "tol", "success_threshold"):
            if getattr(self, name) not in NONNEGATIVE:
                raise ValueError(f"{name} must be {NONNEGATIVE}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r}")
        if not self.strategies:
            raise ValueError("strategies must be nonempty")
        for s in self.strategies:
            if s not in STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}")
        if len(set(self.strategies)) < len(self.strategies):
            raise ValueError("strategies must not repeat")
        if self.p_grid is not None:
            if not self.p_grid or any(p not in DENSITIES for p in self.p_grid):
                raise ValueError(f"p_grid must contain densities {DENSITIES}")
            if list(self.p_grid) != sorted(self.p_grid):
                raise ValueError("p_grid must be ascending")


@dataclass(frozen=True)
class SweepRow:
    """Aggregated error-sweep cell: mean/std of the relative error over the
    trials that completed (``trials`` counts completions)."""

    drift_std: float
    strategy: str
    value: float
    stddev: float
    trials: int


@dataclass(frozen=True)
class MinSampleRow:
    """Minimal sampling density at which a strategy's mean relative error
    drops below the success threshold; None when no grid point succeeded."""

    drift_std: float
    strategy: str
    min_p: float | None


@dataclass(eq=False)
class SweepResult:
    """Rows of one sweep plus every completed solve's objective trace."""

    mode: str  # "error" | "samples"
    rows: list
    traces: list = field(default_factory=list, repr=False)

    def to_csv(self, path) -> None:
        if self.mode == "error":
            header = ["sigma2", "strategy", "metric", "value", "stddev", "trials"]
            rows = [
                [r.drift_std, r.strategy, "mean_rel_error", r.value, r.stddev, r.trials]
                for r in self.rows
            ]
        else:
            header = ["sigma2", "strategy", "min_p"]
            rows = [
                [r.drift_std, r.strategy, "not_achieved" if r.min_p is None else r.min_p]
                for r in self.rows
            ]
        write_csv(path, header, rows)


def default_p_grid() -> tuple[float, ...]:
    return tuple(np.geomspace(0.02, 1.0, 20))


def strategy_weights(
    strategy: str, d: int, noise_std: float, drift_std: float
) -> WeightVector:
    """Weights used by a named sweep strategy at one drift level."""
    if strategy in ("last_only", "equal"):
        return baseline_weights(d, strategy)
    if strategy == "optimal":
        return optimal_weights(d, kappa_for(noise_std, drift_std))
    raise ValueError(f"unknown strategy {strategy!r}")


def _cell_data(cfg: SweepConfig, drift_std: float, m0: int, stream: RandomStream):
    """One synthetic dataset, for a sweep cell and for ``lowems generate`` (any
    ``cfg`` with the problem fields): truth on ``stream.child(0)``, bin ``t``'s
    operator on ``stream.child(1).child(t)``, noise on ``stream.child(2)``."""
    truth = generate_truth(
        cfg.n1, cfg.n2, cfg.rank, cfg.d, drift_std, stream.child(0)
    )
    op_stream = stream.child(1)
    ops = [
        make_operator(cfg.variant, cfg.n1, cfg.n2, m0, op_stream.child(t))
        for t in range(cfg.d)
    ]
    obs = observe(ops, truth, cfg.noise_std, stream.child(2))
    return truth, obs


def _solve_cell(
    cfg: SweepConfig, strategies, obs, truth, drift_std: float, stream: RandomStream
):
    """Fit each of ``strategies`` on one dataset; returns strategy -> error (or
    None on divergence) plus the objective trace of each completed solve."""
    errors: dict[str, float | None] = {}
    traces: list[np.ndarray] = []
    for strategy in strategies:
        w = strategy_weights(strategy, cfg.d, cfg.noise_std, drift_std)
        problem = LowemsProblem(obs, w, cfg.rank, gamma=cfg.gamma)
        try:
            sol = solve(
                problem,
                max_sweeps=cfg.max_sweeps,
                tol=cfg.tol,
                init=cfg.init,
                rng=stream.child(3) if cfg.init == "random" else None,
            )
        except DivergenceError:
            warnings.warn(
                f"solver diverged (strategy={strategy}, drift={drift_std})",
                RuntimeWarning,
                stacklevel=2,
            )
            errors[strategy] = None
            continue
        errors[strategy] = relative_error(sol.X_hat, truth.X_seq[-1])
        traces.append(sol.objective_trace)
    return errors, traces


def _aggregate(values: list[float | None]) -> tuple[float, float, int]:
    """Mean, sample std and count of ``values``, leaving out the ``None`` of a
    diverged trial."""
    arr = np.asarray([v for v in values if v is not None])
    n = arr.size
    if n == 0:
        return math.nan, math.nan, 0
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    return mean, std, n


def _recorded(fn, cfg: SweepConfig, item):
    """``fn(cfg, item)`` in a worker process, with the warnings it issued as
    ``(text, category, filename, lineno)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(cfg, item)
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


# Starting the workers costs about 20 ms.  Of the sweeps measured on a 2-vCPU
# machine, none that generates fewer planted entries than this in all
# (datasets x bins x n1 x n2) finished sooner on two workers than inline.
_POOL_MIN_ENTRIES = 200_000


def _map_items(fn, cfg: SweepConfig, items: list, datasets: int = 1) -> list:
    """``[fn(cfg, item) for item in items]`` on forked worker processes: at
    most ``cfg.threads``, the number of items and the usable CPUs.

    ``datasets`` is the most datasets one item generates.  With one worker,
    with fewer than ``_POOL_MIN_ENTRIES`` planted entries in all, or where
    ``fork`` is unavailable, the items run inline.  Each worker records its
    item's warnings, and they are issued again here in item order, with the
    same category, text, file and line, as from this module, where the
    sweeps' own warnings point: the caller's filters decide as they would
    inline, and a location shown once is not shown again.  An item's
    exception is raised here, a worker that dies raises
    ``BrokenProcessPool``, and every worker is joined before this returns or
    raises.
    """
    workers = min(cfg.threads, len(items), _workers())
    entries = len(items) * datasets * cfg.d * cfg.n1 * cfg.n2
    if workers < 2 or entries < _POOL_MIN_ENTRIES or not hasattr(os, "fork"):
        return [fn(cfg, item) for item in items]
    import multiprocessing  # here, so that a run without a pool never loads it
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    results, registry = [], globals().setdefault("__warningregistry__", {})
    try:
        for result, caught in pool.map(partial(_recorded, fn, cfg), items):
            for text, category, filename, lineno in caught:
                warnings.warn_explicit(
                    text, category, filename, lineno, module=__name__, registry=registry
                )
            results.append(result)
    finally:
        pool.shutdown(cancel_futures=True)
    return results


def _error_cell(cfg: SweepConfig, cell: tuple[int, int]):
    """Errors and traces of error-sweep cell ``(drift index, trial)``."""
    si, ti = cell
    drift = cfg.drift_grid[si]
    stream = RandomStream(cfg.seed).child(si).child(ti)
    truth, obs = _cell_data(cfg, drift, cfg.m0, stream)
    return _solve_cell(cfg, cfg.strategies, obs, truth, drift, stream)


def run_error_sweep(cfg: SweepConfig) -> SweepResult:
    """Mean relative recovery error per (drift level, strategy) at a fixed
    per-bin measurement budget ``cfg.m0``."""
    if cfg.m0 is None or cfg.m0 not in COUNT:
        raise ValueError("error sweep requires a positive m0")
    cells = [
        (si, ti) for si in range(len(cfg.drift_grid)) for ti in range(cfg.trials)
    ]
    outcomes = _map_items(_error_cell, cfg, cells)
    per_cell = dict(zip(cells, (o[0] for o in outcomes)))
    traces = [t for o in outcomes for t in o[1]]
    rows = []
    for si, drift in enumerate(cfg.drift_grid):
        for strategy in cfg.strategies:
            values = [per_cell[(si, ti)][strategy] for ti in range(cfg.trials)]
            rows.append(SweepRow(float(drift), strategy, *_aggregate(values)))
    return SweepResult("error", rows, traces)


def _sample_lane(cfg: SweepConfig, lane: tuple[int, str]):
    """Row and traces of density-sweep lane ``(drift index, strategy)``."""
    si, strategy = lane
    drift = cfg.drift_grid[si]
    p_grid = cfg.p_grid or default_p_grid()
    # the margin keeps rounding from ever deciding against _aggregate's mean
    decided = cfg.success_threshold * cfg.trials * (1.0 + 1e-9)
    traces: list[np.ndarray] = []
    for pi, p in enumerate(p_grid):
        m0 = max(1, round(p * cfg.n1 * cfg.n2))
        values, total = [], 0.0
        for ti in range(cfg.trials):
            stream = RandomStream(cfg.seed).child(si).child(pi).child(ti)
            truth, obs = _cell_data(cfg, drift, m0, stream)
            errors, cell_traces = _solve_cell(cfg, (strategy,), obs, truth, drift, stream)
            traces.extend(cell_traces)
            values.append(errors[strategy])
            total += errors[strategy] or 0.0
            if total > decided:
                break  # the mean already exceeds the threshold
        else:
            mean, _, n = _aggregate(values)
            if n > 0 and mean <= cfg.success_threshold:
                return MinSampleRow(float(drift), strategy, float(p)), traces
    return MinSampleRow(float(drift), strategy, None), traces


def run_sample_sweep(cfg: SweepConfig) -> SweepResult:
    """Minimal sampling density reaching the success threshold, per (drift
    level, strategy).

    Scans the density grid in ascending order and stops at the first point
    whose mean relative error over the trials is below
    ``cfg.success_threshold`` (recovery only improves with more samples, so
    the first success is the minimum).  Errors are nonnegative and a diverged
    trial only shrinks the count, so a density fails, and runs no more
    trials, once its errors so far sum past ``success_threshold * trials``;
    ``traces`` holds the solves that ran.  Datasets are keyed by
    (drift index, density index, trial), shared across strategies.
    """
    lanes = [
        (si, strategy)
        for si in range(len(cfg.drift_grid))
        for strategy in cfg.strategies
    ]
    datasets = cfg.trials * len(cfg.p_grid or default_p_grid())
    outcomes = _map_items(_sample_lane, cfg, lanes, datasets)
    rows = [o[0] for o in outcomes]
    traces = [t for o in outcomes for t in o[1]]
    return SweepResult("samples", rows, traces)


def bound_shape(
    w: WeightVector,
    noise_std: float,
    drift_std: float,
    n_max: int,
    rank: int,
    m_total: int,
) -> float:
    """Predicted error shape (constant set to 1):

    ``(noise_std^2 * sum_t w_t^2 + drift_std^2 * sum_t (d - t) * w_t^2)
    * n_max * rank / m_total`` with ``m_total`` the total measurement count
    across bins.  Useful for trend checks (halves when the budget doubles),
    not as a certified numeric bound.
    """
    if m_total < 1:
        raise ValueError("m_total must be positive")
    profile = lag_profile(len(w))
    w_sq = w.w**2
    variance = noise_std**2 * w_sq.sum() + drift_std**2 * float(profile @ w_sq)
    return variance * n_max * rank / m_total


def phi_prime(
    w: WeightVector, noise_std: float, drift_std: float, rank: int, n1: int
) -> float:
    """Weight-dependent sample-complexity shape for the sampling variant.

    ``max_t w_t^2 ((d - t) rank drift_std^2 / n1 + noise_std^2)`` normalized
    by ``sum_t w_t^2 ((d - t) drift_std^2 + noise_std^2)``.  The coherence
    of the column space is taken as 1 (ideally incoherent).
    Report-only diagnostic.
    """
    profile = lag_profile(len(w))
    w_sq = w.w**2
    denom = float(w_sq @ (profile * drift_std**2 + noise_std**2))
    if denom == 0.0:
        raise ValueError("phi_prime undefined when both noise levels are zero")
    numer = float(np.max(w_sq * (profile * rank * drift_std**2 / n1 + noise_std**2)))
    return numer / denom


@dataclass(frozen=True)
class DiagnosticsRow:
    drift_std: float
    strategy: str
    bound_value: float
    phi_prime: float
    empirical_error: float
    ratio: float


def theorem_diagnostics(cfg: SweepConfig, result: SweepResult) -> list[DiagnosticsRow]:
    """Compare an error sweep's empirical means against the predicted error
    shape, one row per (drift level, strategy).

    ``ratio`` is empirical mean error / bound shape; tracking it across runs
    that differ only in the measurement budget exposes the expected inverse
    scaling with the budget.
    """
    if result.mode != "error":
        raise ValueError("diagnostics require an error-sweep result")
    if cfg.m0 is None or cfg.m0 not in COUNT:
        raise ValueError("config must carry the per-bin budget m0")
    n_max = max(cfg.n1, cfg.n2)
    m_total = cfg.d * cfg.m0
    out = []
    for row in result.rows:
        w = strategy_weights(row.strategy, cfg.d, cfg.noise_std, row.drift_std)
        bound = bound_shape(
            w, cfg.noise_std, row.drift_std, n_max, cfg.rank, m_total
        )
        try:
            phi = phi_prime(w, cfg.noise_std, row.drift_std, cfg.rank, cfg.n1)
        except ValueError:
            phi = math.nan
        if bound > 0.0:
            ratio = row.value / bound
        else:
            ratio = math.inf if row.value > 0 else math.nan
        out.append(
            DiagnosticsRow(
                drift_std=row.drift_std,
                strategy=row.strategy,
                bound_value=bound,
                phi_prime=phi,
                empirical_error=row.value,
                ratio=ratio,
            )
        )
    return out
