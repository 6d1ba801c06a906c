"""The dense sensing factor update against the blockwise ``np.einsum``
assembly it replaced, the operator passes a solve makes, and the batched
singular-system fallback against the per-row loop it replaced.

``reference_sensing_update`` and ``reference_solve_systems`` are the earlier
implementations, kept as oracles.  The first builds every design block with
``einsum`` and accumulates the normal equations block by block; the second
solves every system of a batch that has one singular system in a Python loop.
"""

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
    _factor_update,
    _solve_systems,
    solve,
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


def _problem(store, gamma, *, n1=6, n2=5, rank=2, m=40, seed=0):
    """Three Gaussian bins; bin 0 has zero weight and poisoned observations."""
    root = RandomStream(seed)
    truth = generate_truth(n1, n2, rank, 3, 0.1, root.child(0))
    ops = [
        make_operator("gaussian", n1, n2, m, root.child(1).child(t), store=store)
        for t in range(3)
    ]
    obs = observe(ops, truth, 0.05, root.child(2))
    obs = ObservationSet(obs.ops, (np.full(m, 1e300),) + obs.y[1:], obs.noise_std)
    weights = WeightVector(np.array([0.0, 0.4, 0.6]))
    return LowemsProblem(obs, weights, rank, gamma=gamma)


def _fixed(problem, side, seed):
    n_in = problem.obs.n1 if side == "V" else problem.obs.n2
    return RandomStream(seed).generator().standard_normal((n_in, problem.rank))


@pytest.mark.parametrize("side", ["U", "V"])
@pytest.mark.parametrize("gamma", [0.0, 0.3])
@pytest.mark.parametrize("store", [True, False])
def test_update_matches_einsum_oracle(small_blocks, store, gamma, side):
    for seed in range(3):
        problem = _problem(store, gamma, seed=seed)
        fixed = _fixed(problem, side, seed + 10)
        got, misfit = _factor_update(problem, fixed, side)
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
    got_stored, misfit_stored = _factor_update(stored, fixed, side)
    got_replay, misfit_replay = _factor_update(replay, fixed, side)
    np.testing.assert_array_equal(got_stored, got_replay)
    assert misfit_stored == misfit_replay


def test_one_operator_pass_per_half_sweep(monkeypatch):
    # spectral init (one adjoint) and the initial objective (one apply) make
    # two passes; every half-sweep after that makes exactly one
    root = RandomStream(7)
    truth = generate_truth(8, 7, 2, 1, 0.0, root.child(0))
    op = make_operator("gaussian", 8, 7, 120, root.child(1), store=False)
    obs = observe([op], truth, 0.05, root.child(2))
    problem = LowemsProblem(obs, WeightVector(np.array([1.0])), 2)
    calls = []
    iter_blocks = GaussianOperator.iter_blocks

    def counted(self):
        calls.append(1)
        return iter_blocks(self)

    monkeypatch.setattr(GaussianOperator, "iter_blocks", counted)
    sol = solve(problem, max_sweeps=3, tol=0.0)
    assert sol.iterations == 3
    assert len(sol.objective_trace) == 7  # no half-sweep was rejected
    assert len(calls) == 2 + 2 * 3


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
            got = _solve_systems(gram, rhs, "per-row")
        np.testing.assert_array_equal(got, want)
        assert [w.category for w in record] == [RankDeficiencyWarning] * fell_back
        fallbacks += fell_back
    assert 0 < fallbacks < 300


def test_solve_systems_all_singular_batch():
    gram, rhs = np.zeros((3, 2, 2)), np.ones((3, 2))
    with pytest.warns(RankDeficiencyWarning):
        got = _solve_systems(gram, rhs, "per-row")
    np.testing.assert_array_equal(got, np.zeros((3, 2)))
