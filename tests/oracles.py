"""Independent reference solvers the tests check the package against."""

import math

import numpy as np

from lowems.weights import WeightVector, _check_d_kappa, baseline_weights, lag_profile


def solve_weight_qp(d: int, kappa: float) -> WeightVector:
    """Same weights as :func:`lowems.weights.optimal_weights`, but found by
    solving the underlying quadratic program numerically.

    The program minimizes ``sum_t (1 + (d - t) * kappa) * w_t**2`` over the
    simplex.  The objective is a separable diagonal quadratic, so the exact
    KKT solution on the active set is computed directly (no iterative
    tolerance): free coordinates are proportional to the inverse diagonal,
    negative coordinates are pinned to zero and the multiplier recomputed.
    """
    kappa = _check_d_kappa(d, kappa)
    if math.isinf(kappa):
        return baseline_weights(d, "last_only")
    diag = 1.0 + lag_profile(d) * kappa
    w = _simplex_diag_qp(diag)
    return WeightVector(w, kappa=kappa)


def _simplex_diag_qp(diag: np.ndarray) -> np.ndarray:
    """Minimize ``sum_i diag_i * w_i**2`` subject to ``sum w = 1, w >= 0``.

    Active-set on the KKT conditions.  For strictly positive ``diag`` the
    unconstrained-on-the-simplex solution is already nonnegative, so the loop
    exits on the first pass; the clamping loop keeps the routine correct for
    any positive semidefinite diagonal handed to it.
    """
    if np.any(diag <= 0):
        raise ValueError("QP diagonal must be strictly positive")
    n = diag.size
    free = np.ones(n, dtype=bool)
    w = np.zeros(n)
    for _ in range(n):
        inv = 1.0 / diag[free]
        w[:] = 0.0
        w[free] = inv / inv.sum()
        if w[free].min() >= 0.0:
            return w
        free &= w > 0.0
        if not free.any():  # pragma: no cover - unreachable for diag > 0
            raise RuntimeError("QP active-set elimination emptied the free set")
    return w
