import numpy as np
import pytest

from lowems.core import RandomStream, frobenius_norm
from lowems.dynamics import generate_truth
from lowems.measurement import ObservationSet, SamplingOperator, make_operator, observe
from lowems.solver import (
    DivergenceError,
    FactorPair,
    LowemsProblem,
    RankDeficiencyWarning,
    Solution,
    check_basic_inequality,
    init_factors,
    objective,
    solve,
    update_U,
    update_V,
    weighted_misfit,
)
from lowems.weights import WeightVector, baseline_weights, optimal_weights


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
):
    root = RandomStream(seed)
    truth = generate_truth(n1, n2, rank, d, drift_std, root.child(0))
    ops = [make_operator(variant, n1, n2, m0, root.child(1).child(t)) for t in range(d)]
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
        with pytest.raises(DivergenceError) as err, np.errstate(over="ignore"):
            solve(prob, init="random", rng=RandomStream(1))
        assert isinstance(err.value.factors, FactorPair)
        assert err.value.trace.size == 0

    def test_validation(self):
        problem, _ = _planted_problem(seed=217)
        with pytest.raises(ValueError):
            solve(problem, max_sweeps=0)
        with pytest.raises(ValueError):
            solve(problem, tol=-1.0)
        with pytest.raises(ValueError):
            solve(problem, init="random")  # needs rng


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
