"""Acceptance gate: ten go/no-go checks on the full estimator stack.

Each test prints exactly one ``ACCEPTANCE n: PASS/FAIL (...)`` verdict
straight to the terminal (bypassing capture) before asserting, so every
``pytest`` run shows the scorecard.  Expensive runs are shared through
session fixtures: the static-recovery batch feeds checks 3, 7, and 8; the
drift sweep feeds 4, 5, and 7; the density sweep feeds 6 and 7.

Budgets are wall-clock seconds on a desk-scale machine; every randomized
check runs from pinned master seeds.
"""

import math
import time

import numpy as np
import pytest

from lowems.core import RandomStream, frobenius_norm
from lowems.dynamics import generate_truth
from lowems.experiments import (
    SweepConfig,
    relative_error,
    run_error_sweep,
    run_sample_sweep,
)
from lowems.measurement import estimate_rip, make_operator, observe
from lowems.ratings import (
    FitConfig,
    bin_by_time,
    chronological_split,
    cross_validate_kappa,
    evaluate_test,
    make_split,
    synthetic_ratings,
)
from lowems.solver import LowemsProblem, solve
from lowems.weights import baseline_weights, optimal_weights
from oracles import check_basic_inequality, solve_weight_qp


def _verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})")


# ------------------------------------------------------------- shared runs


@pytest.fixture(scope="session")
def static_recovery():
    """Ten noiseless, drift-free Gaussian-sensing recovery runs.

    Shared by checks 3 (recovery error), 7 (objective traces), and
    8 (first-order diagnostic).
    """
    t0 = time.perf_counter()
    runs = []
    for s in range(10):
        root = RandomStream(300 + s)
        truth = generate_truth(50, 30, 3, 1, 0.0, root.child(0))
        op = make_operator("gaussian", 50, 30, 750, root.child(1))
        obs = observe((op,), truth, 0.0, root.child(2))
        problem = LowemsProblem(obs, baseline_weights(1, "last_only"), 3)
        solution = solve(problem, max_sweeps=100, tol=1e-14)
        report = check_basic_inequality(solution, truth, problem)
        error = relative_error(solution.X_hat, truth.X_seq[-1])
        runs.append((error, solution, report))
    return {"runs": runs, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def drift_sweep():
    """Completion-setting error sweep over two drift levels (checks 4, 5, 7)."""
    cfg = SweepConfig(
        n1=100, n2=50, rank=5, d=4, noise_std=0.05,
        drift_grid=(1e-3, 1.0), seed=1234, m0=4000,
        strategies=("last_only", "optimal"), trials=10,
        variant="sampling",
    )
    t0 = time.perf_counter()
    result = run_error_sweep(cfg)
    return {"result": result, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def density_sweep():
    """Minimal-sampling-density sweep at low drift (checks 6 and 7)."""
    cfg = SweepConfig(
        n1=100, n2=50, rank=5, d=4, noise_std=0.05,
        drift_grid=(1e-3,), seed=777,
        strategies=("last_only", "optimal"), trials=5,
        variant="sampling", success_threshold=0.04,
    )
    t0 = time.perf_counter()
    result = run_sample_sweep(cfg)
    return {"result": result, "elapsed": time.perf_counter() - t0}


# -------------------------------------------------------------- the checks


def test_01_adjoint_identity(capsys):
    """<A(X), b> == <X, A*(b)> to 1e-10 relative, both variants, 100 pairs."""
    t0 = time.perf_counter()
    worst = 0.0
    for variant, seed in (("gaussian", 1100), ("sampling", 1101)):
        root = RandomStream(seed)
        for i in range(100):
            cell = root.child(i)
            op = make_operator(variant, 20, 15, 50, cell.child(0))
            gen = cell.child(1).generator()
            x = gen.standard_normal((20, 15))
            b = gen.standard_normal(50)
            lhs = float(op.apply(x) @ b)
            rhs = float(np.sum(x * op.adjoint(b)))
            scale = frobenius_norm(x) * float(np.linalg.norm(b))
            worst = max(worst, abs(lhs - rhs) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _verdict(
        capsys, 1, ok,
        f"worst normalized gap {worst:.2e} <= 1e-10, {elapsed:.2f}s < 1s",
    )
    assert ok


def test_02_weight_formula_equivalence(capsys):
    """Closed-form weights match the QP solver; endpoint limits are exact."""
    t0 = time.perf_counter()
    worst = 0.0
    endpoints_ok = True
    for d in (2, 4, 8):
        for kappa in (0.0, 0.1, 1.0, 10.0, 100.0):
            gap = np.abs(optimal_weights(d, kappa).w - solve_weight_qp(d, kappa).w)
            worst = max(worst, float(np.max(gap)))
        last = np.zeros(d)
        last[-1] = 1.0
        endpoints_ok &= (
            float(np.max(np.abs(optimal_weights(d, 0.0).w - 1.0 / d))) < 1e-12
        )
        endpoints_ok &= bool(np.array_equal(optimal_weights(d, np.inf).w, last))
        endpoints_ok &= float(np.max(np.abs(optimal_weights(d, 1e15).w - last))) < 1e-8
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and endpoints_ok and elapsed < 1.0
    _verdict(
        capsys, 2, ok,
        f"worst closed-form-vs-QP gap {worst:.2e} <= 1e-8, "
        f"endpoints {'exact' if endpoints_ok else 'WRONG'}, {elapsed:.2f}s < 1s",
    )
    assert ok


def test_03_exact_static_recovery(capsys, static_recovery):
    """Noiseless single-bin sensing recovers the planted matrix exactly."""
    runs, elapsed = static_recovery["runs"], static_recovery["elapsed"]
    hits = sum(error <= 1e-4 for error, _, _ in runs)
    max_sweeps = max(solution.iterations for _, solution, _ in runs)
    ok = hits >= 9 and max_sweeps <= 100 and elapsed < 30.0
    _verdict(
        capsys, 3, ok,
        f"{hits}/10 seeds with rel. error <= 1e-4, max {max_sweeps} sweeps, "
        f"{elapsed:.1f}s < 30s",
    )
    assert ok


def test_04_weighting_error_gain(capsys, drift_sweep):
    """At low drift, optimal weighting beats last-bin-only by a factor ~4."""
    result, elapsed = drift_sweep["result"], drift_sweep["elapsed"]
    vals = {(row.drift_std, row.strategy): row.value for row in result.rows}
    ratio = vals[(1e-3, "last_only")] / vals[(1e-3, "optimal")]
    ok = 2.5 <= ratio <= 6.0 and elapsed < 600.0
    _verdict(
        capsys, 4, ok,
        f"last_only/optimal error ratio {ratio:.2f} in [2.5, 6], "
        f"{elapsed:.1f}s < 600s",
    )
    assert ok


def test_05_baseline_convergence_at_large_drift(capsys, drift_sweep):
    """At high drift the optimal weights collapse to last-bin-only."""
    result = drift_sweep["result"]
    vals = {(row.drift_std, row.strategy): row.value for row in result.rows}
    deviation = abs(vals[(1.0, "optimal")] / vals[(1.0, "last_only")] - 1.0)
    ok = deviation <= 0.15
    _verdict(
        capsys, 5, ok,
        f"optimal within {deviation:.1%} of last_only at unit drift "
        f"(<= 15%), shared run with check 4",
    )
    assert ok


@pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
def test_06_sample_complexity_reduction(capsys, density_sweep):
    """Optimal weighting reaches the error target at <= half the density."""
    result, elapsed = density_sweep["result"], density_sweep["elapsed"]
    min_p = {row.strategy: row.min_p for row in result.rows}
    ok = (
        min_p["optimal"] is not None
        and min_p["last_only"] is not None
        and min_p["optimal"] <= 0.5 * min_p["last_only"]
        and elapsed < 1200.0
    )
    detail = (
        f"min density optimal {min_p['optimal']} vs last_only "
        f"{min_p['last_only']}, {elapsed:.1f}s < 1200s"
    )
    _verdict(capsys, 6, ok, detail)
    assert ok


@pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
def test_07_objective_monotonicity(
    capsys, static_recovery, drift_sweep, density_sweep
):
    """No solver run in checks 3-6 ever lets the objective increase."""
    traces = [solution.objective_trace for _, solution, _ in static_recovery["runs"]]
    traces += list(drift_sweep["result"].traces)
    traces += list(density_sweep["result"].traces)
    worst = max(
        (float(np.max(np.diff(np.asarray(tr)))) for tr in traces if len(tr) > 1),
        default=-np.inf,
    )
    ok = worst <= 1e-12
    _verdict(
        capsys, 7, ok,
        f"max objective increase {worst:.2e} <= 1e-12 over {len(traces)} traces",
    )
    assert ok


def test_08_first_order_diagnostic(capsys, static_recovery):
    """Whenever the estimate out-fits the truth, the error bound holds."""
    runs = static_recovery["runs"]
    premises = sum(report.premise_holds for _, _, report in runs)
    violations = sum(
        report.premise_holds and not report.inequality_holds
        for _, _, report in runs
    )
    ok = violations == 0 and premises > 0  # non-vacuous: premise must fire
    _verdict(
        capsys, 8, ok,
        f"{violations} violations over {premises}/{len(runs)} runs with the "
        f"premise active",
    )
    assert ok


def test_09_restricted_isometry_probe(capsys):
    """Composite two-bin Gaussian operator is a near-isometry on rank-2."""
    t0 = time.perf_counter()
    weights = baseline_weights(2, "equal")
    estimates = []
    for s in range(20):
        root = RandomStream(9000 + s)
        ops = [
            make_operator("gaussian", 30, 30, 600, root.child(0).child(t))
            for t in range(2)
        ]
        estimates.append(estimate_rip(ops, weights, 2, 100, root.child(1)))
    elapsed = time.perf_counter() - t0
    good = sum(est <= 0.5 for est in estimates)
    ok = good >= math.ceil(0.95 * len(estimates)) and elapsed < 60.0
    _verdict(
        capsys, 9, ok,
        f"{good}/{len(estimates)} master seeds <= 0.5 "
        f"(worst {max(estimates):.3f}), {elapsed:.1f}s < 60s",
    )
    assert ok


def test_10_ratings_pipeline_recovers_noise_ratio(capsys):
    """CV on planted drifting ratings finds the planted noise ratio."""
    grid = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
    planted = 10.0  # drift_std^2 / noise_std^2
    fit = FitConfig(rank=5, gamma=0.1, tol=1e-6, max_sweeps=150)
    t0 = time.perf_counter()
    hits = 0
    endpoints_ok = 0
    picks = []
    for s in range(10):
        root = RandomStream(7100 + s)
        table, _ = synthetic_ratings(
            200, 300, 5, 3, fill=0.20, noise_std=0.1,
            drift_std=0.1 * math.sqrt(10.0), rng=root.child(0),
        )
        binned = bin_by_time(table, 3)
        split = make_split(binned, root.child(1))
        cv = cross_validate_kappa(binned, split, grid, fit, root.child(2))
        picks.append(cv.best_kappa)
        hits += abs(grid.index(cv.best_kappa) - grid.index(planted)) <= 1
        holdout = chronological_split(table)

        def rmse(kappa, stream):
            report = evaluate_test(binned, holdout, kappa, fit, stream, restarts=3)
            return float(np.mean(report.rmse))

        best = rmse(cv.best_kappa, root.child(3))
        lo = rmse(grid[0], root.child(4))
        hi = rmse(grid[-1], root.child(5))
        endpoints_ok += best <= 1.10 * lo and best <= 1.10 * hi
    elapsed = time.perf_counter() - t0
    ok = hits >= 7 and endpoints_ok == 10 and elapsed < 600.0
    _verdict(
        capsys, 10, ok,
        f"{hits}/10 seeds within one grid step of planted ratio "
        f"(picks {sorted(set(picks))}), endpoint check {endpoints_ok}/10, "
        f"{elapsed:.0f}s < 600s",
    )
    assert ok
