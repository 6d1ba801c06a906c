import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from lowems import solver as solver_module
from lowems.core import RandomStream, frobenius_norm
from lowems.dynamics import generate_truth
from lowems.experiments import SweepConfig, run_error_sweep
from lowems.measurement import ObservationSet, SamplingOperator, make_operator, observe
from lowems.solver import (
    DivergenceError,
    FactorPair,
    LowemsProblem,
    RankDeficiencyWarning,
    Solution,
    init_factors,
    objective,
    solve,
    update_U,
    update_V,
    weighted_misfit,
)
from lowems.weights import WeightVector, baseline_weights, kappa_for, optimal_weights
from oracles import check_basic_inequality


def _planted_problem(
    n1=12,
    n2=10,
    rank=2,
    d=3,
    drift_std=0.1,
    noise_std=0.0,
    variant="sampling",
    m0=90,
    gamma=0.0,
    kappa=None,
    seed=100,
    max_entry=None,
    store=True,
):
    root = RandomStream(seed)
    truth = generate_truth(n1, n2, rank, d, drift_std, root.child(0))
    ops = [
        make_operator(variant, n1, n2, m0, root.child(1).child(t), store=store)
        for t in range(d)
    ]
    obs = observe(ops, truth, noise_std, root.child(2))
    if kappa is None:
        kappa = 0.0 if drift_std == 0 else (drift_std / max(noise_std, 1e-12)) ** 2
    weights = optimal_weights(d, min(kappa, 1e12))
    return LowemsProblem(obs, weights, rank, gamma=gamma, max_entry=max_entry), truth


def _design_for_V(problem, u):
    """Dense design matrix of the map vec(V) -> stacked residual, per bin."""
    n2, r = problem.obs.n2, problem.rank
    designs = []
    for op in problem.obs.ops:
        d_t = np.zeros((op.m, n2 * r))
        if op.variant == "sampling":
            for i in range(op.m):
                d_t[i, op.cols[i] * r : (op.cols[i] + 1) * r] = u[op.rows[i]]
        else:
            for i in range(op.m):
                d_t[i] = (op.matrices[i].T @ u).reshape(-1)
        designs.append(d_t)
    return designs


def _design_for_U(problem, v):
    n1, r = problem.obs.n1, problem.rank
    designs = []
    for op in problem.obs.ops:
        d_t = np.zeros((op.m, n1 * r))
        if op.variant == "sampling":
            for i in range(op.m):
                d_t[i, op.rows[i] * r : (op.rows[i] + 1) * r] = v[op.cols[i]]
        else:
            for i in range(op.m):
                d_t[i] = (op.matrices[i] @ v).reshape(-1)
        designs.append(d_t)
    return designs


def _normal_equations_oracle(designs, ys, w, gamma, shape):
    dim = designs[0].shape[1]
    gram = 2.0 * gamma * np.eye(dim)
    rhs = np.zeros(dim)
    for d_t, y_t, w_t in zip(designs, ys, w):
        gram += w_t * (d_t.T @ d_t)
        rhs += w_t * (d_t.T @ y_t)
    return np.linalg.solve(gram, rhs).reshape(shape)


class TestFactorUpdates:
    def test_single_entry_hand_case(self):
        # one sampled entry with value 6 and a fixed factor of 2:
        # min 0.5 * (2v - 6)^2 (+ gamma v^2) in v
        op = SamplingOperator(1, 1, rows=np.array([0]), cols=np.array([0]))
        obs = ObservationSet(ops=(op,), y=(np.array([6.0]),), noise_std=0.0)
        w = WeightVector(np.array([1.0]))
        u = np.array([[2.0]])
        prob = LowemsProblem(obs, w, rank=1, gamma=0.0)
        assert update_V(prob, u) == pytest.approx(np.array([[3.0]]))
        prob_ridge = LowemsProblem(obs, w, rank=1, gamma=1.0)
        assert update_V(prob_ridge, u) == pytest.approx(np.array([[2.0]]))

    @pytest.mark.parametrize("variant,m0", [("sampling", 50), ("gaussian", 25)])
    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_matches_dense_normal_equations(self, variant, m0, gamma):
        problem, _ = _planted_problem(
            n1=6, n2=5, rank=2, d=2, drift_std=0.2, noise_std=0.1,
            variant=variant, m0=m0, gamma=gamma, seed=200,
        )
        gen = RandomStream(201).generator()
        u = gen.standard_normal((6, 2))
        v_hat = update_V(problem, u)
        v_ref = _normal_equations_oracle(
            _design_for_V(problem, u), problem.obs.y, problem.weights.w,
            gamma, (5, 2),
        )
        np.testing.assert_allclose(v_hat, v_ref, rtol=1e-8, atol=1e-12)

        v = gen.standard_normal((5, 2))
        u_hat = update_U(problem, v)
        u_ref = _normal_equations_oracle(
            _design_for_U(problem, v), problem.obs.y, problem.weights.w,
            gamma, (6, 2),
        )
        np.testing.assert_allclose(u_hat, u_ref, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize(
        "variant, store", [("sampling", True), ("gaussian", True), ("gaussian", False)],
        ids=["sampling", "stored", "replay"],
    )
    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    def test_one_sweep_solve_is_update_U_then_update_V(self, variant, store, gamma):
        problem, _ = _planted_problem(
            variant=variant, m0=60, noise_std=0.1, gamma=gamma, seed=240, store=store
        )
        start = init_factors(problem)
        u = update_U(problem, start.V)
        v = update_V(problem, u)
        sol = solve(problem, max_sweeps=1, tol=0.0)
        np.testing.assert_array_equal(sol.factors.U, u)
        np.testing.assert_array_equal(sol.factors.V, v)
        assert len(sol.objective_trace) == 3

    @pytest.mark.parametrize("variant", ["sampling", "gaussian"])
    def test_update_refuses_a_misshaped_fixed_factor(self, variant):
        # n1 = 12, n2 = 10, rank 2: wrong row count (the other factor's), wrong rank
        problem, _ = _planted_problem(variant=variant, m0=60, seed=241)
        cases = [
            (update_V, (10, 2), (12, 2)), (update_V, (12, 3), (12, 2)),
            (update_U, (12, 2), (10, 2)), (update_U, (10, 1), (10, 2)),
        ]
        for update, shape, expected in cases:
            message = f"fixed factor has shape {shape}, expected {expected}"
            with pytest.raises(ValueError, match=re.escape(message)):
                update(problem, np.ones(shape))

    def test_update_is_exact_block_minimizer(self):
        problem, _ = _planted_problem(seed=202, noise_std=0.05, drift_std=0.1)
        gen = RandomStream(203).generator()
        u = gen.standard_normal((12, 2))
        v_star = update_V(problem, u)
        base = objective(problem, FactorPair(u, v_star))
        for _ in range(20):
            v_pert = v_star + 1e-3 * gen.standard_normal(v_star.shape)
            assert objective(problem, FactorPair(u, v_pert)) >= base

    def test_ridge_zeroes_unobserved_row(self):
        # column 2 of the matrix is never sampled -> its V row has no data
        op = SamplingOperator(2, 3, rows=np.array([0, 1]), cols=np.array([0, 1]))
        obs = ObservationSet(ops=(op,), y=(np.array([1.0, 2.0]),), noise_std=0.0)
        prob = LowemsProblem(obs, WeightVector(np.array([1.0])), rank=1, gamma=0.5)
        v = update_V(prob, np.array([[1.0], [1.0]]))
        assert v[2, 0] == 0.0

    def test_unobserved_row_without_ridge_warns_and_zeroes(self):
        op = SamplingOperator(2, 3, rows=np.array([0, 1]), cols=np.array([0, 1]))
        obs = ObservationSet(ops=(op,), y=(np.array([1.0, 2.0]),), noise_std=0.0)
        prob = LowemsProblem(obs, WeightVector(np.array([1.0])), rank=1, gamma=0.0)
        with pytest.warns(RankDeficiencyWarning):
            v = update_V(prob, np.array([[1.0], [1.0]]))
        assert v[2, 0] == 0.0
        assert v[0, 0] == pytest.approx(1.0)

    def test_zero_weight_bin_is_inert(self):
        problem, _ = _planted_problem(d=3, seed=204, noise_std=0.05)
        w = baseline_weights(3, "last_only")
        prob_a = LowemsProblem(problem.obs, w, rank=2)
        poisoned_y = list(problem.obs.y)
        poisoned_y[0] = poisoned_y[0] + 1e6
        obs_b = ObservationSet(problem.obs.ops, tuple(poisoned_y), problem.obs.noise_std)
        prob_b = LowemsProblem(obs_b, w, rank=2)
        u = RandomStream(205).generator().standard_normal((12, 2))
        np.testing.assert_array_equal(update_V(prob_a, u), update_V(prob_b, u))
        x = np.zeros((12, 10))
        assert weighted_misfit(prob_a.obs, w.w, x) == weighted_misfit(obs_b, w.w, x)


class TestObjective:
    def test_zero_at_planted_noiseless(self):
        problem, truth = _planted_problem(noise_std=0.0, drift_std=0.0, seed=206)
        pair = FactorPair(truth.U, truth.V_seq[-1])
        assert objective(problem, pair) <= 1e-20

    def test_ridge_term_hand_value(self):
        op = SamplingOperator(1, 1, rows=np.array([0]), cols=np.array([0]))
        obs = ObservationSet(ops=(op,), y=(np.array([0.0]),), noise_std=0.0)
        prob = LowemsProblem(obs, WeightVector(np.array([1.0])), rank=1, gamma=2.0)
        pair = FactorPair(np.array([[3.0]]), np.array([[4.0]]))
        # misfit 0.5 * (12)^2 = 72, ridge 2 * (9 + 16) = 50
        assert objective(prob, pair) == pytest.approx(122.0)


class TestInitFactors:
    def test_spectral_recovers_subspace_from_dense_sensing(self):
        problem, truth = _planted_problem(
            n1=20, n2=15, rank=2, d=1, drift_std=0.0, noise_std=0.0,
            variant="gaussian", m0=240, seed=207,
        )
        pair = init_factors(problem, "spectral")
        q, _ = np.linalg.qr(pair.U)
        cosines = np.linalg.svd(truth.U.T @ q, compute_uv=False)
        angle = float(np.arccos(np.clip(cosines.min(), -1.0, 1.0)))
        assert angle < 0.5

    def test_random_init_statistics(self):
        problem, _ = _planted_problem(n1=60, n2=50, rank=4, seed=208, m0=300)
        pair = init_factors(problem, "random", RandomStream(209))
        assert pair.U.shape == (60, 4) and pair.V.shape == (50, 4)
        var = float(np.var(np.concatenate([pair.U.ravel(), pair.V.ravel()])))
        assert abs(var - 0.25) <= 0.05

    def test_random_init_requires_stream(self):
        problem, _ = _planted_problem(seed=210)
        with pytest.raises(ValueError):
            init_factors(problem, "random")
        with pytest.raises(ValueError):
            init_factors(problem, "newton")


class TestSolve:
    def test_exact_recovery_small_noiseless(self):
        problem, truth = _planted_problem(
            n1=15, n2=12, rank=2, d=1, drift_std=0.0, noise_std=0.0,
            variant="gaussian", m0=200, seed=211,
        )
        sol = solve(problem, max_sweeps=100, tol=1e-12)
        err = frobenius_norm(sol.X_hat - truth.X_seq[-1]) ** 2
        err /= frobenius_norm(truth.X_seq[-1]) ** 2
        assert err <= 1e-8
        assert sol.converged

    def test_trace_never_increases(self):
        problem, _ = _planted_problem(noise_std=0.1, drift_std=0.3, m0=100, seed=212)
        sol = solve(problem, max_sweeps=60)
        trace = sol.objective_trace
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
        assert sol.iterations >= 1
        assert len(trace) <= 1 + 2 * sol.iterations

    def test_last_only_equals_single_bin_problem(self):
        problem, truth = _planted_problem(d=3, noise_std=0.05, m0=80, seed=213)
        last = LowemsProblem(problem.obs, baseline_weights(3, "last_only"), rank=2)
        single_obs = ObservationSet(
            ops=problem.obs.ops[-1:], y=problem.obs.y[-1:],
            noise_std=problem.obs.noise_std,
        )
        single = LowemsProblem(single_obs, WeightVector(np.array([1.0])), rank=2)
        sol_last = solve(last, max_sweeps=40)
        sol_single = solve(single, max_sweeps=40)
        np.testing.assert_array_equal(sol_last.X_hat, sol_single.X_hat)

    def test_clipping_reported_and_applied(self):
        problem, truth = _planted_problem(
            n1=10, n2=8, rank=2, d=1, drift_std=0.0, noise_std=0.0,
            variant="gaussian", m0=160, seed=214, max_entry=0.1,
        )
        sol = solve(problem, max_sweeps=50)
        assert sol.clip_applied
        assert float(np.max(np.abs(sol.X_hat))) <= 0.1
        assert float(np.max(np.abs(sol.factors.product()))) > 0.1

    def test_clip_flag_false_when_bound_loose(self):
        problem, _ = _planted_problem(
            n1=10, n2=8, rank=2, d=1, drift_std=0.0, noise_std=0.0,
            variant="gaussian", m0=160, seed=215, max_entry=1e6,
        )
        assert not solve(problem, max_sweeps=50).clip_applied

    def test_non_finite_data_raises_divergence_error(self):
        problem, _ = _planted_problem(seed=216)
        bad_y = list(problem.obs.y)
        bad_y[0] = np.full_like(bad_y[0], 1e300)  # finite; its squares overflow
        obs = ObservationSet(problem.obs.ops, tuple(bad_y), problem.obs.noise_std)
        prob = LowemsProblem(obs, problem.weights, rank=2)
        with pytest.raises(DivergenceError) as err:
            solve(prob, init="random", rng=RandomStream(1))
        assert isinstance(err.value.factors, FactorPair)
        assert err.value.trace.size == 0

    @pytest.mark.parametrize("variant", ["sampling", "gaussian"])
    def test_non_finite_start_raises_before_any_solve(self, monkeypatch, variant):
        problem, _ = _planted_problem(variant=variant, seed=216)
        obs = ObservationSet(
            problem.obs.ops, tuple(np.full_like(y, 1e300) for y in problem.obs.y),
            problem.obs.noise_std,
        )
        prob = LowemsProblem(obs, problem.weights, rank=2)

        def refuse(*args):
            raise AssertionError("a system was solved")

        monkeypatch.setattr(solver_module, "_solve_systems", refuse)
        with pytest.raises(DivergenceError, match="initial") as err:
            solve(prob, init="random", rng=RandomStream(1))
        assert err.value.trace.size == 0

    @pytest.mark.parametrize("variant", ["sampling", "gaussian"])
    def test_diverging_solve_raises_without_numpy_warnings(self, variant):
        # the sampling start overflows the Grams' outer products (then 0 * inf
        # at the unobserved entries) and the misfit's product; the sensing
        # start overflows the V half-sweep's Gram
        if variant == "sampling":
            rows, cols = np.array([0, 1, 2, 3, 0, 1]), np.array([0, 1, 2, 0, 2, 0])
            obs = ObservationSet((SamplingOperator(4, 3, rows, cols),), (np.ones(6),), 0.0)
            problem = LowemsProblem(obs, WeightVector(np.ones(1)), 1)
            start = FactorPair(np.full((4, 1), 1e200), np.full((3, 1), 1e200))
        else:
            problem, _ = _planted_problem(
                n1=4, n2=3, rank=1, d=1, drift_std=0.0, variant="gaussian", m0=30, seed=218
            )
            start = FactorPair(np.full((4, 1), 1e160), np.full((3, 1), 1e-160))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                solve(problem, init=start)

    def test_overflowing_gram_raises_divergence_error_without_fallback(self, capfd):
        # a finite start whose product is about 1: the U half-sweep's Gram is
        # subnormal but regular, the V half-sweep's overflows to inf, and its
        # non-finite solution reaches the pricing rather than lstsq
        problem, _ = _planted_problem(
            n1=4, n2=3, rank=1, d=1, drift_std=0.0, variant="gaussian", m0=30, seed=218
        )
        start = FactorPair(np.full((4, 1), 1e160), np.full((3, 1), 1e-160))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError, match="^objective became non-finite$") as err:
                solve(problem, init=start)
        assert not [w for w in record if issubclass(w.category, RankDeficiencyWarning)]
        assert "DLASCL" not in "".join(capfd.readouterr())
        assert err.value.trace.size == 2  # the start and the accepted U half-sweep
        assert np.isfinite(err.value.factors.U).all()

    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    def test_initial_objective_comes_from_the_first_system(self, gamma):
        # sampling: the same product and per-bin sums, so the same bits;
        # sensing: the design's residual, equal up to rounding
        for variant in ("sampling", "gaussian"):
            problem, _ = _planted_problem(
                variant=variant, noise_std=0.1, gamma=gamma, seed=220
            )
            want = objective(problem, init_factors(problem))
            got = solve(problem, max_sweeps=1).objective_trace[0]
            if variant == "sampling":
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-13)

    def test_validation(self):
        problem, _ = _planted_problem(seed=217)
        with pytest.raises(ValueError):
            solve(problem, max_sweeps=0)
        with pytest.raises(ValueError):
            solve(problem, tol=-1.0)
        with pytest.raises(ValueError):
            solve(problem, init="random")  # needs rng


class TestInitPair:
    """``solve`` from a given starting :class:`FactorPair` (a warm start)."""

    @pytest.mark.parametrize("variant", ["sampling", "gaussian"])
    @pytest.mark.parametrize("mode", ["spectral", "random"])
    def test_named_init_as_a_pair_gives_the_same_solution(self, variant, mode):
        problem, _ = _planted_problem(variant=variant, noise_std=0.1, gamma=0.05, seed=240)
        rng = RandomStream(5) if mode == "random" else None
        start = init_factors(problem, mode, rng)
        kept = start.U.copy(), start.V.copy()
        named = solve(problem, init=mode, rng=rng)
        given = solve(problem, init=start)
        np.testing.assert_array_equal(named.factors.U, given.factors.U)
        np.testing.assert_array_equal(named.factors.V, given.factors.V)
        for f in dataclasses.fields(Solution)[1:]:
            np.testing.assert_array_equal(
                getattr(named, f.name), getattr(given, f.name), err_msg=f.name
            )
        np.testing.assert_array_equal(start.U, kept[0])  # the start is not written to
        np.testing.assert_array_equal(start.V, kept[1])

    def test_wrong_shape_names_the_expected_one(self):
        problem, _ = _planted_problem(seed=241)  # 12 x 10, rank 2
        good = init_factors(problem)
        cases = [
            (FactorPair(good.V, good.V), (12, 2)),
            (FactorPair(good.U, good.U), (10, 2)),
            (FactorPair(np.ones((12, 3)), np.ones((10, 3))), (12, 2)),
        ]
        for pair, expected in cases:
            with pytest.raises(ValueError, match=re.escape(f"expected {expected}")):
                solve(problem, init=pair)

    @pytest.mark.parametrize("variant", ["sampling", "gaussian"])
    @pytest.mark.parametrize("side, value", [("U", np.nan), ("V", np.inf)])
    def test_non_finite_pair_raises_before_any_solve(self, monkeypatch, variant, side, value):
        problem, _ = _planted_problem(variant=variant, seed=242)
        start = init_factors(problem)
        factors = {"U": start.U.copy(), "V": start.V.copy()}
        factors[side][1, 0] = value

        def refuse(*args):
            raise AssertionError("a system was solved")

        monkeypatch.setattr(solver_module, "_solve_systems", refuse)
        with pytest.raises(DivergenceError, match="^initial objective is non-finite$") as err:
            solve(problem, init=FactorPair(factors["U"], factors["V"]))
        assert err.value.trace.size == 0
        np.testing.assert_array_equal(err.value.factors.U, factors["U"])  # as given
        np.testing.assert_array_equal(err.value.factors.V, factors["V"])


class TestBalance:
    """The gauge step that ridge solves take between sweeps."""

    GAMMA = 0.3

    @staticmethod
    def _pair(case):
        rng = np.random.default_rng(230)
        u, v = rng.standard_normal((9, 3)) * 4.0, rng.standard_normal((7, 3)) * 0.1
        if case == "zero-column":
            u[:, 1] = 0.0
        elif case == "dependent":
            u[:, 2] = 2.0 * u[:, 0]
        elif case == "zero":
            u, v = np.zeros_like(u), np.zeros_like(v)
        return u, v

    @pytest.mark.parametrize("case", ["random", "zero-column", "dependent", "zero"])
    def test_same_product_least_ridge(self, case):
        u, v = self._pair(case)
        bal_u, bal_v = solver_module._balance(u, v)
        assert np.isfinite(bal_u).all() and np.isfinite(bal_v).all()
        x = u @ v.T
        scale = frobenius_norm(x)
        assert frobenius_norm(bal_u @ bal_v.T - x) <= 1e-12 * scale
        gram_u, gram_v = bal_u.T @ bal_u, bal_v.T @ bal_v
        assert frobenius_norm(gram_u - gram_v) <= 1e-12 * frobenius_norm(gram_u)
        ridge = self.GAMMA * (frobenius_norm(bal_u) ** 2 + frobenius_norm(bal_v) ** 2)
        nuclear = float(np.linalg.svd(x, compute_uv=False).sum())
        assert ridge == pytest.approx(2.0 * self.GAMMA * nuclear, rel=1e-12, abs=0.0)
        assert ridge <= self.GAMMA * (frobenius_norm(u) ** 2 + frobenius_norm(v) ** 2)

    @pytest.mark.parametrize("case, lost", [("zero-column", 1), ("dependent", 1), ("zero", 3)])
    def test_lost_rank_gives_exactly_zero_columns(self, case, lost):
        bal_u, bal_v = solver_module._balance(*self._pair(case))
        assert not bal_u[:, -lost:].any() and not bal_v[:, -lost:].any()
        assert bal_u[:, : 3 - lost].any(axis=0).all()  # the kept columns are not zero

    def test_gamma_zero_solves_never_balance(self, monkeypatch):
        def refuse(u, v):
            raise AssertionError("balanced without a ridge")

        monkeypatch.setattr(solver_module, "_balance", refuse)
        for variant in ("sampling", "gaussian"):
            problem, _ = _planted_problem(variant=variant, noise_std=0.1, seed=231)
            assert solve(problem, max_sweeps=20).iterations > 1
            ridge = dataclasses.replace(problem, gamma=0.1)
            with pytest.raises(AssertionError, match="balanced"):
                solve(ridge, max_sweeps=20)

    def test_ridge_trace_never_increases_and_returns_an_als_iterate(self):
        problem, _ = _planted_problem(noise_std=0.1, gamma=0.05, seed=232)
        sol = solve(problem, max_sweeps=500, init="random", rng=RandomStream(4))
        trace = sol.objective_trace
        assert sol.converged and len(trace) == 1 + 2 * sol.iterations
        assert np.all(np.diff(trace) <= 0.0)
        assert objective(problem, sol.factors) == pytest.approx(trace[-1], rel=1e-12)
        # the last sweep's V update was kept, not balanced afterwards
        np.testing.assert_array_equal(sol.factors.V, update_V(problem, sol.factors.U))


class TestStopState:
    """``stop_reason``, ``converged``, ``iterations`` and the trace length for
    each way :func:`solve` stops.  The scripted runs replace the builder's misfit
    function (``gamma = 0``, so the misfit is the objective): its first call,
    which prices the starting pair, returns the initial objective itself, and
    each later call, one per half-sweep, a given multiple of it; the factors
    are still the real updates."""

    @staticmethod
    def _scripted(monkeypatch, problem, ratios):
        start = objective(problem, init_factors(problem))
        script = iter([1.0, *ratios])
        real = solver_module._normal_equations

        def normal_equations(problem):
            build = real(problem)

            def scripted(fixed, side):
                gram, rhs, _ = build(fixed, side)
                return gram, rhs, lambda x: next(script) * start

            return scripted

        monkeypatch.setattr(solver_module, "_normal_equations", normal_equations)
        return start

    def test_scripted_tolerance_stop(self, monkeypatch):
        problem, _ = _planted_problem(noise_std=0.1, seed=216)
        start = self._scripted(monkeypatch, problem, [0.5, 0.25, 0.25, 0.25])
        sol = solve(problem, max_sweeps=10, tol=1e-8)
        assert (sol.stop_reason, sol.converged, sol.iterations) == ("tol", True, 2)
        np.testing.assert_array_equal(
            sol.objective_trace, np.array([1, 0.5, 0.25, 0.25, 0.25]) * start
        )

    @pytest.mark.parametrize("ratios, sweeps", [([0.5, 1.0], 1), ([0.5, 0.25, 0.5], 2)])
    def test_scripted_stagnation_stop(self, monkeypatch, ratios, sweeps):
        # the worse candidate is rejected; the sweep it ends still counts
        problem, _ = _planted_problem(noise_std=0.1, seed=217)
        start = self._scripted(monkeypatch, problem, ratios)
        sol = solve(problem, max_sweeps=10, tol=1e-8)
        assert (sol.stop_reason, sol.converged, sol.iterations) == ("stagnated", True, sweeps)
        np.testing.assert_array_equal(
            sol.objective_trace, np.array([1.0, *ratios[:-1]]) * start
        )

    def test_scripted_cap_stop(self, monkeypatch):
        problem, _ = _planted_problem(noise_std=0.1, seed=218)
        start = self._scripted(monkeypatch, problem, [0.5**k for k in range(1, 7)])
        sol = solve(problem, max_sweeps=3, tol=1e-8)
        assert (sol.stop_reason, sol.converged, sol.iterations) == ("max_sweeps", False, 3)
        np.testing.assert_array_equal(
            sol.objective_trace, 0.5 ** np.arange(7) * start
        )

    def test_tolerance_stop(self):
        problem, _ = _planted_problem(noise_std=0.1, drift_std=0.3, m0=100, seed=212)
        tol = 1e-4
        sol = solve(problem, max_sweeps=500, tol=tol)
        trace = sol.objective_trace
        assert sol.converged and 1 < sol.iterations < 500
        assert sol.stop_reason == "tol" and sol.fallbacks == 0
        assert len(trace) == 1 + 2 * sol.iterations
        sweep_starts, sweep_ends = trace[:-1:2], trace[2::2]
        stopped = sweep_starts - sweep_ends <= tol * np.abs(sweep_starts)
        assert stopped[-1] and not stopped[:-1].any()

    def test_cap_stop(self):
        problem, _ = _planted_problem(noise_std=0.1, drift_std=0.3, m0=100, seed=212)
        sol = solve(problem, max_sweeps=2, tol=0.0)
        assert (sol.stop_reason, sol.converged, sol.iterations) == ("max_sweeps", False, 2)
        assert len(sol.objective_trace) == 5

    def test_scripted_tolerance_stop_on_the_last_allowed_sweep(self, monkeypatch):
        # a sweep that meets tol at the cap reports tol, not the cap
        problem, _ = _planted_problem(noise_std=0.1, seed=219)
        self._scripted(monkeypatch, problem, [0.5, 0.25, 0.25, 0.25])
        sol = solve(problem, max_sweeps=2, tol=1e-8)
        assert (sol.stop_reason, sol.converged, sol.iterations) == ("tol", True, 2)


class TestProblemValidation:
    def test_bad_arguments_rejected(self):
        problem, _ = _planted_problem(seed=218)
        obs = problem.obs
        with pytest.raises(ValueError):
            LowemsProblem(obs, baseline_weights(2, "equal"), rank=2)
        with pytest.raises(ValueError):
            LowemsProblem(obs, problem.weights, rank=0)
        with pytest.raises(ValueError):
            LowemsProblem(obs, problem.weights, rank=11)
        with pytest.raises(ValueError):
            LowemsProblem(obs, problem.weights, rank=2, gamma=-0.1)
        with pytest.raises(ValueError):
            LowemsProblem(obs, problem.weights, rank=2, max_entry=0.0)


_NAN = math.nan
_SWEEP = dict(n1=6, n2=5, rank=1, d=1, noise_std=0.1, drift_grid=(0.0,), seed=1, m0=20)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p, t: LowemsProblem(p.obs, p.weights, 2, gamma=_NAN), "gamma"),
        (lambda p, t: solve(p, tol=_NAN), "tol"),
        (lambda p, t: generate_truth(6, 5, 1, 2, _NAN, RandomStream(1)), "drift_std"),
        (lambda p, t: dataclasses.replace(t, drift_std=_NAN), "drift_std"),
        (lambda p, t: ObservationSet(p.obs.ops, p.obs.y, _NAN), "noise_std"),
        (lambda p, t: observe(p.obs.ops, t, _NAN, RandomStream(1)), "noise_std"),
        (lambda p, t: run_error_sweep(SweepConfig(**{**_SWEEP, "noise_std": _NAN})),
         "noise_std"),
        (lambda p, t: run_error_sweep(SweepConfig(**{**_SWEEP, "drift_grid": (_NAN,)})),
         "drift_grid"),
        (lambda p, t: run_error_sweep(SweepConfig(**{**_SWEEP, "success_threshold": _NAN})),
         "success_threshold"),
        (lambda p, t: run_error_sweep(SweepConfig(**{**_SWEEP, "success_threshold": -1.0})),
         "success_threshold"),
        (lambda p, t: SweepConfig(**{**_SWEEP, "tol": _NAN}), "tol"),
        (lambda p, t: SweepConfig(**{**_SWEEP, "gamma": _NAN}), "gamma"),
        (lambda p, t: kappa_for(_NAN, 0.1), "noise_std"),
    ],
    ids=["problem-gamma", "solve-tol", "generate_truth", "truth-drift_std",
         "observation_set", "observe", "sweep-noise_std", "sweep-drift_grid",
         "sweep-success_threshold", "sweep-success_threshold-negative", "sweep-tol",
         "sweep-gamma", "kappa_for"],
)
def test_nan_fails_nonnegativity_checks(call, message):
    problem, truth = _planted_problem(seed=219)
    with pytest.raises(ValueError, match=f"{message} must be nonnegative"):
        call(problem, truth)


class TestBasicInequality:
    def test_holds_on_noiseless_recovery(self):
        problem, truth = _planted_problem(
            n1=15, n2=12, rank=2, d=1, drift_std=0.0, noise_std=0.0,
            variant="gaussian", m0=200, seed=219,
        )
        sol = solve(problem, max_sweeps=100, tol=1e-12)
        report = check_basic_inequality(sol, truth, problem)
        assert report.premise_holds
        assert report.inequality_holds

    def test_premise_implies_inequality_on_noisy_runs(self):
        for seed in range(3):
            problem, truth = _planted_problem(
                noise_std=0.1, drift_std=0.2, m0=100, seed=300 + seed
            )
            sol = solve(problem, max_sweeps=80)
            report = check_basic_inequality(sol, truth, problem)
            assert np.isfinite(report.lhs) and np.isfinite(report.rhs)
            if report.premise_holds:
                assert report.inequality_holds

    def test_rhs_uses_exact_spectral_norm(self):
        problem, truth = _planted_problem(noise_std=0.1, m0=100, seed=221)
        sol = solve(problem, max_sweeps=20)
        report = check_basic_inequality(sol, truth, problem)
        x_d = truth.X_seq[-1]
        stoch = sum(
            w_t * op.adjoint(op.apply(x_d) - y_t)
            for w_t, op, y_t in zip(problem.weights.w, problem.obs.ops, problem.obs.y)
        )
        sigma_max = np.linalg.svd(stoch, compute_uv=False)[0]
        delta = sol.factors.product() - x_d
        expected = 2.0 * np.sqrt(2.0 * problem.rank) * sigma_max * np.linalg.norm(delta)
        assert report.rhs == pytest.approx(expected, rel=1e-12)

    def test_requires_truth(self):
        problem, _ = _planted_problem(seed=220)
        sol = solve(problem, max_sweeps=5)
        with pytest.raises(ValueError):
            check_basic_inequality(sol, None, problem)
