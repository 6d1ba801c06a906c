"""The dense sensing factor update against the blockwise ``np.einsum``
assembly it replaced, the operator passes a solve makes, and the batched
singular-system fallback against the per-row loop it replaced.

``reference_sensing_update`` and ``reference_solve_systems`` are the earlier
implementations, kept as oracles.  The first builds every design block with
``einsum`` and accumulates the normal equations block by block; the second
solves every system of a batch that has one singular system in a Python loop.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from lowems import measurement
from lowems.core import RandomStream
from lowems.dynamics import generate_truth
from lowems.measurement import GaussianOperator, ObservationSet, make_operator, observe
from lowems.solver import (
    LowemsProblem,
    RankDeficiencyWarning,
    _normal_equations,
    _ridge_solve,
    _solve_systems,
    solve,
    update_V,
    weighted_misfit,
)
from lowems.weights import WeightVector


def reference_sensing_update(problem, fixed, side):
    obs, w, gamma = problem.obs, problem.weights.w, problem.gamma
    r = fixed.shape[1]
    n_out = obs.n2 if side == "V" else obs.n1
    k = n_out * r
    gram = np.zeros((k, k))
    rhs = np.zeros(k)
    for w_t, op, y_t in zip(w, obs.ops, obs.y):
        if w_t == 0.0:
            continue
        for start, block in op.iter_blocks():
            mb = block.shape[0]
            if side == "V":
                design = np.einsum("mij,ik->mjk", block, fixed)
            else:
                design = np.einsum("mij,jk->mik", block, fixed)
            dm = design.reshape(mb, k)
            gram += w_t * (dm.T @ dm)
            rhs += w_t * (dm.T @ y_t[start : start + mb])
    if gamma > 0.0:
        gram[np.arange(k), np.arange(k)] += 2.0 * gamma
    return np.linalg.solve(gram, rhs).reshape(n_out, r)


def reference_solve_systems(gram, rhs):
    """Returns the solutions and whether the batch needed the fallback."""
    try:
        out = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        if np.all(np.isfinite(out)):
            return out, False
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(rhs)
    for k in range(len(rhs)):
        try:
            row = np.linalg.solve(gram[k], rhs[k])
            if not np.all(np.isfinite(row)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            row = np.linalg.lstsq(gram[k], rhs[k], rcond=None)[0]
        out[k] = row
    return out, True


@pytest.fixture
def small_blocks(monkeypatch):
    """Seven measurements per generation block, so a bin spans several."""
    monkeypatch.setattr(measurement, "_block_rows", lambda n1, n2: 7)


def _problem(store, gamma, *, n1=6, n2=5, rank=2, ms=(40, 40, 40), seed=0):
    """Three Gaussian bins of ``ms`` measurements each; bin 0 has zero weight
    and poisoned observations.  Equal ``ms`` give the data ``observe`` would."""
    root = RandomStream(seed)
    truth = generate_truth(n1, n2, rank, 3, 0.1, root.child(0))
    ops = [
        make_operator("gaussian", n1, n2, m, root.child(1).child(t), store=store)
        for t, m in enumerate(ms)
    ]
    noise = root.child(2)
    y = [
        op.apply(truth.X_seq[t]) + 0.05 * noise.child(t).generator().standard_normal(op.m)
        for t, op in enumerate(ops)
    ]
    y[0] = np.full(ms[0], 1e300)
    weights = WeightVector(np.array([0.0, 0.4, 0.6]))
    return LowemsProblem(ObservationSet(tuple(ops), tuple(y), 0.05), weights, rank, gamma=gamma)


def _half_sweep(problem, fixed, side, build=None):
    """The ``side`` factor and its misfit as a half-sweep of :func:`solve`
    makes them, from ``build`` or from a fresh builder."""
    gram, rhs, misfit = (build or _normal_equations(problem))(fixed, side)
    factor = _ridge_solve(problem, gram, rhs)[0]
    return factor, misfit(factor)


def _fixed(problem, side, seed):
    n_in = problem.obs.n1 if side == "V" else problem.obs.n2
    return RandomStream(seed).generator().standard_normal((n_in, problem.rank))


@pytest.mark.parametrize("side", ["U", "V"])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("store", [True, False])
def test_update_matches_einsum_oracle(small_blocks, store, gamma, side):
    # uneven bins put the live bins' row offsets (0, 23) off the 7-row block edges
    for seed, ms in itertools.product(range(3), [(40, 40, 40), (40, 23, 31)]):
        problem = _problem(store, gamma, ms=ms, seed=seed)
        fixed = _fixed(problem, side, seed + 10)
        got, misfit = _half_sweep(problem, fixed, side)
        want = reference_sensing_update(problem, fixed, side)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        u, v = (fixed, got) if side == "V" else (got, fixed)
        direct = weighted_misfit(problem.obs, problem.weights.w, u @ v.T)
        assert np.isfinite(misfit)
        assert misfit == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("side", ["U", "V"])
def test_stored_and_replay_updates_are_bit_identical(small_blocks, side):
    stored, replay = _problem(True, 0.1), _problem(False, 0.1)
    fixed = _fixed(stored, side, 4)
    got_stored, misfit_stored = _half_sweep(stored, fixed, side)
    got_replay, misfit_replay = _half_sweep(replay, fixed, side)
    np.testing.assert_array_equal(got_stored, got_replay)
    assert misfit_stored == misfit_replay


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("side", ["U", "V"])
def test_update_bits_do_not_depend_on_the_cpu_count(small_blocks, monkeypatch, side, workers):
    # 40 rows in blocks of 7, each drawn in 1 to 3 pieces whose design rows
    # are built on the worker that drew them; the recording pass draws them
    # in turn, later passes on the pool, into a fresh or a reused design
    stored = _problem(True, 0.1)
    fixed = _fixed(stored, side, 4)
    want, want_misfit = _half_sweep(stored, fixed, side)
    monkeypatch.setattr(measurement, "_workers", lambda: workers)
    replay = _problem(False, 0.1)
    for problem in (stored, replay):
        built = _normal_equations(problem)
        for build in (None, built, built):
            got, misfit = _half_sweep(problem, fixed, side, build)
            np.testing.assert_array_equal(got, want)
            assert misfit == want_misfit


def test_one_operator_pass_per_half_sweep(monkeypatch):
    # spectral init (one adjoint) makes one pass, and every half-sweep makes
    # exactly one; the first also gives the initial objective
    root = RandomStream(7)
    truth = generate_truth(8, 7, 2, 1, 0.0, root.child(0))
    op = make_operator("gaussian", 8, 7, 120, root.child(1), store=False)
    obs = observe([op], truth, 0.05, root.child(2))
    problem = LowemsProblem(obs, WeightVector(np.array([1.0])), 2)
    calls = []
    iter_blocks = GaussianOperator.iter_blocks

    def counted(self, *args, **kwargs):
        calls.append(1)
        return iter_blocks(self, *args, **kwargs)

    monkeypatch.setattr(GaussianOperator, "iter_blocks", counted)
    sol = solve(problem, max_sweeps=3, tol=0.0)
    assert sol.iterations == 3
    assert len(sol.objective_trace) == 7  # no half-sweep was rejected
    assert len(calls) == 1 + 2 * 3


def _update_peak(monkeypatch, store, bins, run=update_V):
    """tracemalloc peak of one V-side update (or of ``run`` on the same
    problem and fixed factor), with the sizes it is bounded by.

    30x40, rank 4: k = 160 unknowns, so a (k, k) array (205 kB) outweighs an
    8-row block (77 kB); m = 60 spans eight blocks per bin."""
    monkeypatch.setattr(measurement, "_block_rows", lambda n1, n2: 8)
    monkeypatch.setattr(measurement, "_workers", lambda: 2)
    n1, n2, rank, m = 30, 40, 4, 60
    root = RandomStream(21)
    truth = generate_truth(n1, n2, rank, bins, 0.0, root.child(0))
    ops = [make_operator("gaussian", n1, n2, m, root.child(1).child(t), store=store)
           for t in range(bins)]
    obs = observe(ops, truth, 0.05, root.child(2))
    problem = LowemsProblem(obs, WeightVector(np.full(bins, 1.0 / bins)), rank, gamma=0.1)
    fixed = _fixed(problem, "V", 22)
    k = n2 * rank
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(problem, fixed)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, m * k * 8, 8 * n1 * n2 * 8, k * k * 8


@pytest.mark.parametrize("bins", [1, 2, 3])
@pytest.mark.parametrize("store", [True, False])
def test_update_holds_the_designs_and_one_block_or_gram(monkeypatch, store, bins):
    # the live bins' designs share one buffer, and the one Gram is allocated
    # after the pass has freed its last block, whatever the bin count
    peak, design, block, gram = _update_peak(monkeypatch, store, bins)
    assert peak <= bins * design + max(block, gram) + gram // 4


@pytest.mark.parametrize("bins", [1, 3])
@pytest.mark.parametrize("store", [True, False])
def test_solve_holds_the_designs_and_one_block_or_gram(monkeypatch, store, bins):
    # the same bound over two sweeps: a half-sweep's Gram is freed before the
    # next half-sweep's pass, so two Grams are never held at once
    def two_sweeps(problem, fixed):
        solve(problem, max_sweeps=2, tol=0.0)

    peak, design, block, gram = _update_peak(monkeypatch, store, bins, two_sweeps)
    assert peak <= bins * design + max(block, gram) + gram // 4


def _random_batch(gen):
    """Small Gram batch mixing regular, zero, rank-deficient and
    integer-valued systems."""
    n, r = int(gen.integers(1, 12)), int(gen.integers(1, 5))
    gram = np.empty((n, r, r))
    for k in range(n):
        kind = gen.integers(4)
        if kind == 0:
            gram[k] = 0.0
        elif kind == 1:
            f = gen.standard_normal((r, int(gen.integers(0, r))))
            gram[k] = f @ f.T
        elif kind == 2:
            f = gen.integers(-2, 3, size=(r, r)).astype(float)
            gram[k] = f @ f.T
        else:
            f = gen.standard_normal((r, r + 2))
            gram[k] = f @ f.T
    rhs = gen.standard_normal((n, r))
    return gram, rhs


def test_solve_systems_matches_per_row_loop():
    gen = RandomStream(11).generator()
    fallbacks = 0
    for _ in range(300):
        gram, rhs = _random_batch(gen)
        want, fell_back = reference_solve_systems(gram, rhs)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            got, count = _solve_systems(gram, rhs, "per-row")
        np.testing.assert_array_equal(got, want)
        assert [w.category for w in record] == [RankDeficiencyWarning] * fell_back
        assert (count > 0) == fell_back
        fallbacks += fell_back
    assert 0 < fallbacks < 300


def test_solve_systems_fast_path_is_the_batched_solve(monkeypatch):
    gen = RandomStream(12).generator()
    f = gen.standard_normal((40, 5, 7))
    gram, rhs = f @ f.transpose(0, 2, 1), gen.standard_normal((40, 5))
    want = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]

    def refuse(*args, **kwargs):
        raise AssertionError("the fallback path ran")

    for name in ("lstsq", "slogdet"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "flatnonzero", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, count = _solve_systems(gram, rhs, "per-row")
    np.testing.assert_array_equal(got, want)
    assert count == 0


def test_solve_systems_one_singular_row_warns_once_and_batches_the_rest(monkeypatch):
    gen = RandomStream(13).generator()
    f = gen.standard_normal((6, 3, 5))
    gram, rhs = f @ f.transpose(0, 2, 1), gen.standard_normal((6, 3))
    gram[2] = 0.0
    batches, lstsq_rows, real_solve, real_lstsq = [], [], np.linalg.solve, np.linalg.lstsq

    def solve_batch(a, b):
        batches.append(len(a))
        return real_solve(a, b)

    def lstsq_row(a, b, rcond=None):
        lstsq_rows.append(1)
        return real_lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "solve", solve_batch)
    monkeypatch.setattr(np.linalg, "lstsq", lstsq_row)
    with pytest.warns(RankDeficiencyWarning) as record:
        got, count = _solve_systems(gram, rhs, "per-row")
    assert len(record) == 1 and count == 1 and len(lstsq_rows) == 1
    assert batches == [6, 5]  # the whole batch raises; the regular rows go in one call
    regular = [0, 1, 3, 4, 5]
    np.testing.assert_array_equal(
        got[regular], real_solve(gram[regular], rhs[regular][:, :, None])[:, :, 0]
    )
    np.testing.assert_array_equal(got[2], np.zeros(3))


def test_solve_systems_all_singular_batch():
    gram, rhs = np.zeros((3, 2, 2)), np.ones((3, 2))
    with pytest.warns(RankDeficiencyWarning):
        got, count = _solve_systems(gram, rhs, "per-row")
    np.testing.assert_array_equal(got, np.zeros((3, 2)))
    assert count == 3
