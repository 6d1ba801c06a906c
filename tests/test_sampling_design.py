"""The sampling factor update against the per-measurement ``np.add.at``
assembly it replaced, its misfit against :func:`weighted_misfit`, the
number and size of the designs a solve builds, plus the read-only inputs
that design relies on.

``reference_sampling_update`` is the earlier implementation, kept verbatim
as an oracle: it rebuilds every Gram matrix and right-hand side from the raw
(unmerged, unsorted) measurements on each call.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lowems import solver as solver_module
from lowems.core import RandomStream
from lowems.measurement import ObservationSet, SamplingOperator, make_operator
from lowems.solver import (
    DivergenceError,
    FactorPair,
    LowemsProblem,
    RankDeficiencyWarning,
    _normal_equations,
    _ridge_solve,
    solve,
    update_U,
    update_V,
    weighted_misfit,
)
from lowems.weights import WeightVector


def reference_sampling_update(problem, fixed, side):
    obs, w, gamma = problem.obs, problem.weights.w, problem.gamma
    r = fixed.shape[1]
    n_out = obs.n2 if side == "V" else obs.n1
    gram = np.zeros((n_out, r, r))
    rhs = np.zeros((n_out, r))
    for t, op in enumerate(obs.ops):
        w_t = w[t]
        if w_t == 0.0:
            continue
        out_idx = op.cols if side == "V" else op.rows
        feat_idx = op.rows if side == "V" else op.cols
        f = fixed[feat_idx]
        np.add.at(gram, out_idx, w_t * (f[:, :, None] * f[:, None, :]))
        np.add.at(rhs, out_idx, (w_t * obs.y[t])[:, None] * f)
    if gamma > 0.0:
        gram[:, np.arange(r), np.arange(r)] += 2.0 * gamma
    try:
        out = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        if np.all(np.isfinite(out)):
            return out
    except np.linalg.LinAlgError:
        pass
    warnings.warn(
        "singular per-row system; using minimum-norm solve",
        RankDeficiencyWarning,
        stacklevel=2,
    )
    out = np.empty((n_out, r))
    for k in range(n_out):
        try:
            row = np.linalg.solve(gram[k], rhs[k])
            if not np.all(np.isfinite(row)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            row = np.linalg.lstsq(gram[k], rhs[k], rcond=None)[0]
        out[k] = row
    return out


def _problem(sizes, w, *, n1=9, n2=7, rank=3, gamma=0.0, seed=0, poison=None):
    """Random sampling problem whose bins have ``sizes`` entries each, drawn
    from a small grid so duplicates are frequent.  Bin ``poison`` gets
    observations of 1e300 (it must carry zero weight)."""
    gen = RandomStream(seed).generator()
    ops, ys = [], []
    for t, m in enumerate(sizes):
        rows = gen.integers(0, n1, size=m)
        cols = gen.integers(0, n2, size=m)
        ops.append(SamplingOperator(n1, n2, rows, cols))
        ys.append(np.full(m, 1e300) if t == poison else gen.standard_normal(m))
    obs = ObservationSet(tuple(ops), tuple(ys), noise_std=0.0)
    return LowemsProblem(obs, WeightVector(np.asarray(w)), rank, gamma=gamma)


def _both_sides(problem, seed):
    gen = RandomStream(seed).generator()
    u = gen.standard_normal((problem.obs.n1, problem.rank))
    v = gen.standard_normal((problem.obs.n2, problem.rank))
    return [(update_U, v, "U"), (update_V, u, "V")]


CASES = {
    "duplicates": dict(sizes=(120, 120, 120), w=(0.2, 0.3, 0.5)),
    "uneven_bins": dict(sizes=(15, 200, 60, 4), w=(0.1, 0.2, 0.3, 0.4)),
    "poisoned_zero_weight_bin": dict(sizes=(80, 90, 70), w=(0.0, 0.4, 0.6), poison=0),
    "uneven_bins_one_of_zero_weight": dict(
        sizes=(15, 200, 60, 4, 90), w=(0.1, 0.2, 0.0, 0.3, 0.4), poison=2
    ),
    # n1 == n2: a misfit taken of the transposed product still has the right
    # shape, so only the exact misfit comparison below catches it
    "square": dict(sizes=(100, 80, 60), w=(0.2, 0.3, 0.5), n1=7, n2=7),
}


@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_update_matches_add_at_oracle(case, gamma):
    for seed in range(3):
        problem = _problem(**CASES[case], gamma=gamma, seed=seed)
        dups = sum(op.m - len(set(zip(op.rows, op.cols))) for op in problem.obs.ops)
        assert dups > 0
        for update, fixed, side in _both_sides(problem, seed + 10):
            got = update(problem, fixed)
            want = reference_sampling_update(problem, fixed, side)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, want, rtol=1e-12)
            gram, rhs, misfit = _normal_equations(problem)(fixed, side)
            np.testing.assert_array_equal(_ridge_solve(problem, gram, rhs)[0], got)
            u, v = (fixed, got) if side == "V" else (got, fixed)
            assert misfit(got) == weighted_misfit(problem.obs, problem.weights.w, u @ v.T)


def _unobserved_problem(gamma):
    """Rank 1 on 3 x 4, where row 2 and column 3 are never sampled."""
    rows = np.array([0, 1, 0, 1, 0, 1, 0])
    cols = np.array([0, 1, 1, 2, 2, 0, 0])
    op = SamplingOperator(3, 4, rows, cols)
    y = np.arange(1.0, 8.0)
    return LowemsProblem(
        ObservationSet((op,), (y,), 0.0), WeightVector(np.array([1.0])), 1, gamma=gamma
    )


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_unobserved_row_matches_oracle(gamma):
    problem = _unobserved_problem(gamma)
    for update, fixed, side in _both_sides(problem, 5):
        with warnings.catch_warnings(record=True) as got_warned:
            warnings.simplefilter("always")
            got = update(problem, fixed)
        with warnings.catch_warnings(record=True) as want_warned:
            warnings.simplefilter("always")
            want = reference_sampling_update(problem, fixed, side)
        assert [str(w.message) for w in got_warned] == [str(w.message) for w in want_warned]
        assert len(got_warned) == (1 if gamma == 0.0 else 0)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        unseen = 2 if side == "U" else 3
        assert np.all(got[unseen] == 0.0)


@pytest.mark.parametrize("gamma, fallbacks", [(0.0, 6), (0.3, 0)])
def test_solve_counts_the_unobserved_rows_as_fallbacks(gamma, fallbacks):
    # without ridge each half-sweep sends its one unobserved row or column
    # to the minimum-norm solve, and warns once for it
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        sol = solve(_unobserved_problem(gamma), max_sweeps=3, tol=0.0)
    assert (sol.iterations, sol.stop_reason) == (3, "max_sweeps")
    assert sol.fallbacks == fallbacks == len(warned)


def test_design_is_built_once_per_solve(monkeypatch):
    problem = _problem((50, 60), (0.5, 0.5))
    built = []

    def counted(problem):
        built.append(1)
        return _normal_equations(problem)

    monkeypatch.setattr(solver_module, "_normal_equations", counted)
    sol = solve(problem, max_sweeps=3, tol=0.0)
    assert sol.iterations == 3
    assert len(sol.objective_trace) == 7  # no half-sweep was rejected
    assert len(built) == 1
    # nothing is cached on the problem: it holds its fields and no more
    assert set(vars(problem)) == {f.name for f in dataclasses.fields(problem)}


def test_design_memory_is_two_dense_arrays():
    # weights 0 drop bin 2 from the design; the 900 live observations come
    # to less than a third dense array (n1 * n2 = 2400), but the 4 KiB slack
    # holds neither their indices nor their values
    problem = _problem((400, 500, 300), (0.4, 0.6, 0.0), n1=60, n2=40, rank=2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        build = _normal_equations(problem)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    floats = 2 * 60 * 40  # c and b
    assert 8 * floats < held <= 8 * floats + 4096  # 4 KiB for the Python containers
    del build


def test_non_finite_product_prices_nan_and_solve_diverges():
    # The candidate U is finite, but U @ V.T overflows at (1, 2), an entry
    # with no observation; the misfit scans the whole product, so it is NaN,
    # and solve turns that into its DivergenceError like any non-finite value.
    rows, cols = np.array([0, 1, 2, 3, 0, 1]), np.array([0, 1, 2, 0, 2, 0])
    obs = ObservationSet((SamplingOperator(4, 3, rows, cols),), (np.full(6, 1e150),), 0.0)
    problem = LowemsProblem(obs, WeightVector(np.ones(1)), 1)
    u0, v = np.ones((4, 1)), np.array([[1e-100], [1e-100], [1e100]])
    _, _, misfit = _normal_equations(problem)(v, "U")
    with np.errstate(over="ignore", invalid="ignore"):
        u = update_U(problem, v)
        assert np.all(np.isfinite(u))
        assert math.isnan(misfit(u))
        assert math.isfinite(misfit(u0))
    with pytest.raises(DivergenceError, match="^objective became non-finite$") as err:
        solve(problem, init=FactorPair(u0, v))
    np.testing.assert_array_equal(err.value.factors.U, u0)
    np.testing.assert_array_equal(err.value.factors.V, v)
    np.testing.assert_array_equal(err.value.trace, [misfit(u0)])


@pytest.mark.parametrize("variant", ["sampling", "gaussian"])
def test_rank_deficiency_warning_names_the_caller(variant):
    # a zero fixed factor makes every Gram matrix exactly singular
    if variant == "sampling":
        op = SamplingOperator(2, 3, rows=np.array([0, 1]), cols=np.array([0, 1]))
    else:
        op = make_operator("gaussian", 2, 3, 2, RandomStream(3))
    obs = ObservationSet(ops=(op,), y=(np.array([1.0, 2.0]),), noise_std=0.0)
    prob = LowemsProblem(obs, WeightVector(np.array([1.0])), rank=1)
    with pytest.warns(RankDeficiencyWarning) as record:
        update_V(prob, np.zeros((2, 1)))
    assert record[0].filename == __file__


def test_observations_are_read_only_copies():
    op = SamplingOperator(2, 2, rows=np.array([0, 1]), cols=np.array([0, 1]))
    y = np.array([1.0, 2.0])
    obs = ObservationSet(ops=(op,), y=(y,), noise_std=0.0)
    with pytest.raises(ValueError):
        obs.y[0][0] = 5.0
    y[0] = 5.0  # the caller's array stays writable and is not shared
    assert obs.y[0][0] == 1.0
