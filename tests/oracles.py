"""Independent reference solvers and diagnostics the tests check the
package against."""

import math
from dataclasses import dataclass

import numpy as np

from lowems.core import frobenius_norm
from lowems.dynamics import DynamicGroundTruth
from lowems.measurement import _live_bins
from lowems.solver import LowemsProblem, Solution, weighted_misfit
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


def dedup_triples_by_dict(users, items, values, stamps):
    """Drop exact (user, item, timestamp) duplicates, keeping the last
    occurrence in input order: a dict filled record by record, the reference
    for :func:`lowems.ratings._dedup_triples`."""
    keep: dict[tuple[int, int, int], int] = {}
    for idx in range(len(users)):
        keep[(int(users[idx]), int(items[idx]), int(stamps[idx]))] = idx
    kept = np.array(sorted(keep.values()), dtype=np.int64)
    return users[kept], items[kept], values[kept], stamps[kept]


@dataclass(frozen=True)
class BasicInequalityReport:
    """Outcome of the first-order optimality diagnostic.

    ``premise_holds``: the estimate fits the data at least as well (in the
    weighted misfit, no ridge) as the final planted matrix does.  When it
    does, ``lhs <= rhs`` is a theorem for rank-constrained estimates, so
    ``inequality_holds`` failing alongside a true premise indicates a solver
    or bookkeeping bug.  Both comparisons carry the floating-point guard
    ``slack`` (1e-9 relative to the problem's magnitude): in noiseless
    exact-recovery runs both sides are zero up to rounding, and a strict
    comparison would be meaningless there.
    """

    lhs: float
    rhs: float
    premise_holds: bool
    inequality_holds: bool
    slack: float


def check_basic_inequality(
    solution: Solution,
    truth: DynamicGroundTruth,
    problem: LowemsProblem,
) -> BasicInequalityReport:
    """Check the estimate against the first-order error bound.

    With ``Delta = U V^T - X_d`` (the unclipped, rank-bounded iterate minus
    the final planted matrix), verifies

        sum_t w_t ||A_t(Delta)||^2
            <= 2 sqrt(2 rank) * ||sum_t w_t A_t*(A_t(X_d) - y_t)||_2 * ||Delta||_F

    whenever the estimate's weighted misfit does not exceed the planted
    matrix's own.  ``||.||_2`` is the exact largest singular value.
    """
    if truth is None:
        raise ValueError("ground truth is required for the diagnostic")
    obs, w = problem.obs, problem.weights.w
    x_d = truth.X_seq[-1]
    x_hat = solution.factors.product()
    delta = x_hat - x_d

    lhs = 0.0
    stoch = np.zeros((obs.n1, obs.n2))
    for w_t, op, y_t in _live_bins(w, obs.ops, obs.y):
        a_delta = op.apply(delta)
        lhs += w_t * float(a_delta @ a_delta)
        stoch += w_t * op.adjoint(op.apply(x_d) - y_t)
    rhs = (
        2.0
        * np.sqrt(2.0 * problem.rank)
        * float(np.linalg.norm(stoch, 2))
        * frobenius_norm(delta)
    )

    fit_hat = weighted_misfit(obs, w, x_hat)
    fit_truth = weighted_misfit(obs, w, x_d)
    slack = 1e-9 * max(1.0, fit_truth, lhs, rhs)
    return BasicInequalityReport(
        lhs=float(lhs),
        rhs=float(rhs),
        premise_holds=fit_hat <= fit_truth + slack,
        inequality_holds=lhs <= rhs + slack,
        slack=slack,
    )
