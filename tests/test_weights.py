import itertools
import math

import numpy as np
import pytest

from lowems.weights import (
    WeightVector,
    baseline_weights,
    kappa_for,
    lag_profile,
    optimal_weights,
)
from oracles import solve_weight_qp


def _grid_search_oracle(d, kappa, step):
    """Brute-force the weighted quadratic over a dense simplex grid."""
    cost = 1.0 + lag_profile(d) * kappa
    n = round(1.0 / step)
    best, best_w = np.inf, None
    for parts in itertools.product(range(n + 1), repeat=d - 1):
        if sum(parts) > n:
            continue
        w = np.array([*parts, n - sum(parts)], dtype=float) / n
        val = float(cost @ w**2)
        if val < best:
            best, best_w = val, w
    return best, best_w


class TestClosedForm:
    def test_hand_computed_three_bins(self):
        # d=3, kappa=1: raw profile (1/3, 1/2, 1), normalizer 11/6.
        w = optimal_weights(3, 1.0)
        np.testing.assert_allclose(w.w, [2 / 11, 3 / 11, 6 / 11], rtol=1e-15)

    def test_simplex_membership(self):
        for d in (1, 2, 5, 40):
            for kappa in (0.0, 1e-4, 0.3, 7.0, 1e6):
                w = optimal_weights(d, kappa).w
                assert w.min() >= 0.0
                assert abs(w.sum() - 1.0) <= 1e-12

    def test_recency_ordering(self):
        w = optimal_weights(8, 0.5).w
        assert np.all(np.diff(w) >= 0)

    def test_zero_kappa_is_equal_weights(self):
        np.testing.assert_array_equal(
            optimal_weights(6, 0.0).w, baseline_weights(6, "equal").w
        )

    def test_infinite_kappa_is_last_only(self):
        np.testing.assert_array_equal(
            optimal_weights(6, math.inf).w, baseline_weights(6, "last_only").w
        )

    def test_continuity_in_kappa(self):
        for kappa in (0.01, 1.0, 50.0):
            a = optimal_weights(10, kappa).w
            b = optimal_weights(10, kappa + 1e-6).w
            assert np.max(np.abs(a - b)) < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_weights(0, 1.0)
        with pytest.raises(ValueError):
            optimal_weights(3, -0.5)
        with pytest.raises(ValueError):
            baseline_weights(3, "steepest")


class TestQuadraticProgram:
    def test_matches_closed_form(self):
        for d in (2, 4, 8):
            for kappa in (0.0, 0.1, 1.0, 10.0, 100.0):
                qp = solve_weight_qp(d, kappa).w
                cf = optimal_weights(d, kappa).w
                assert np.max(np.abs(qp - cf)) <= 1e-8

    def test_matches_dense_grid_oracle(self):
        d, kappa, step = 3, 2.5, 0.005
        best, best_w = _grid_search_oracle(d, kappa, step)
        w = solve_weight_qp(d, kappa).w
        cost = 1.0 + lag_profile(d) * kappa
        assert float(cost @ w**2) <= best + 1e-12
        assert np.max(np.abs(w - best_w)) <= 2 * step


class TestWeightVector:
    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            WeightVector(np.array([-0.2, 1.2]))
        with pytest.raises(ValueError):
            WeightVector(np.array([[1.0]]))
        with pytest.raises(ValueError):
            WeightVector(np.array([np.nan, 1.0]))

    def test_array_is_read_only(self):
        w = optimal_weights(4, 1.0)
        with pytest.raises(ValueError):
            w.w[0] = 0.9


class TestKappaFor:
    def test_ratio(self):
        assert kappa_for(0.1, 0.2) == pytest.approx(4.0)

    def test_degenerate_cases(self):
        assert kappa_for(0.5, 0.0) == 0.0
        assert kappa_for(0.0, 0.5) == math.inf
        assert kappa_for(0.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            kappa_for(-1.0, 0.5)


def test_lag_profile():
    np.testing.assert_array_equal(lag_profile(4), [3, 2, 1, 0])
