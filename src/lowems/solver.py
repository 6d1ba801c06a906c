"""Alternating least squares for weighted multi-bin low-rank recovery.

The estimator minimizes

    0.5 * sum_t w_t * ||A_t(U V^T) - y_t||^2  +  gamma * (||U||_F^2 + ||V||_F^2)

over factor pairs ``(U, V)`` of width ``rank``.  Each half-sweep solves one
factor's weighted least-squares subproblem exactly while the other is held
fixed, so the objective is nonincreasing along the iteration.

Both variants share one update, :func:`_factor_update`: a per-variant
builder assembles the normal equations as a batch of systems plus a function
giving the candidate's misfit, and the update adds the ridge, solves and
reshapes.  Sampling gives one tiny system per output row, summed over a
duplicate-merged design cached on the problem.  Dense sensing gives one
stacked system in ``n * rank`` unknowns from one pass over the operator; its
design rows (one BLAS matmul per block) are kept, ``m * n * rank`` floats per
live bin, so the misfit is read from them without producing the blocks a
second time.  Replay-mode operators never materialize their sensing stack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import RandomStream, frobenius_norm, top_r_svd
from .dynamics import DynamicGroundTruth
from .measurement import ObservationSet, _live_bins
from .weights import WeightVector


class RankDeficiencyWarning(UserWarning):
    """A least-squares subproblem was singular (gamma = 0) and was resolved
    by a minimum-norm pseudo-inverse solve."""


class DivergenceError(RuntimeError):
    """The objective became non-finite.  Carries the last finite iterate."""

    def __init__(self, message: str, factors: "FactorPair", trace: list[float]):
        super().__init__(message)
        self.factors = factors
        self.trace = np.asarray(trace)


@dataclass(frozen=True, eq=False)
class FactorPair:
    """A candidate factorization ``X = U @ V.T``."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self) -> None:
        if self.U.ndim != 2 or self.V.ndim != 2:
            raise ValueError("factors must be 2-D")
        if self.U.shape[1] != self.V.shape[1]:
            raise ValueError("factors must share their inner dimension")

    def product(self) -> np.ndarray:
        return self.U @ self.V.T


@dataclass(frozen=True, eq=False)
class LowemsProblem:
    """One weighted recovery problem: observations, bin weights, target rank.

    ``gamma`` is the Frobenius ridge coefficient (0 disables it) and
    ``max_entry`` an optional bound on entry magnitude applied to the final
    estimate by clipping (useful for bounded-scale data such as ratings).
    """

    obs: ObservationSet
    weights: WeightVector
    rank: int
    gamma: float = 0.0
    max_entry: float | None = None

    def __post_init__(self) -> None:
        if len(self.weights) != self.obs.d:
            raise ValueError(
                f"weight length {len(self.weights)} != bin count {self.obs.d}"
            )
        if not 1 <= self.rank <= min(self.obs.n1, self.obs.n2):
            raise ValueError(
                f"rank must be in [1, {min(self.obs.n1, self.obs.n2)}]"
            )
        if not self.gamma >= 0:
            raise ValueError("gamma must be nonnegative")
        if self.max_entry is not None and not self.max_entry > 0:
            raise ValueError("max_entry must be positive when given")


@dataclass(frozen=True, eq=False)
class Solution:
    """Solver output.

    ``factors`` is the final (unclipped) factor pair; ``X_hat`` the estimate
    after optional entry clipping.  ``objective_trace`` has the initial
    objective followed by one value per accepted half-sweep; ``iterations``
    counts completed full sweeps.  ``clip_applied`` reports whether the
    ``max_entry`` bound actually changed any entry.
    """

    factors: FactorPair
    X_hat: np.ndarray = field(repr=False)
    objective_trace: np.ndarray = field(repr=False)
    iterations: int
    converged: bool
    clip_applied: bool


def weighted_misfit(obs: ObservationSet, w: np.ndarray, x: np.ndarray) -> float:
    """Data-fit term ``0.5 * sum_t w_t * ||A_t(x) - y_t||^2`` (zero-weight bins
    skipped)."""
    total = 0.0
    for w_t, op, y_t in _live_bins(w, obs.ops, obs.y):
        res = op.apply(x) - y_t
        total += w_t * float(res @ res)
    return 0.5 * total


def objective(problem: LowemsProblem, factors: FactorPair) -> float:
    """Full objective (data fit plus ridge) at a factor pair."""
    misfit = weighted_misfit(problem.obs, problem.weights.w, factors.product())
    return _with_ridge(problem, misfit, factors.U, factors.V)


def _with_ridge(problem: LowemsProblem, misfit: float, u: np.ndarray, v: np.ndarray) -> float:
    """``misfit`` plus the ridge term ``gamma * (||U||_F^2 + ||V||_F^2)``."""
    if problem.gamma > 0.0:
        misfit += problem.gamma * (frobenius_norm(u) ** 2 + frobenius_norm(v) ** 2)
    return misfit


def init_factors(
    problem: LowemsProblem, mode: str = "spectral", rng: RandomStream | None = None
) -> FactorPair:
    """Starting factors.

    ``spectral``: truncated SVD of the weighted back-projection
    ``sum_t w_t A_t*(y_t)`` (rescaled by the sampling density for the
    sampling variant, which makes the back-projection unbiased), with the
    singular values split evenly between the factors.  ``random``: iid
    Gaussian entries with variance ``1/rank``; requires ``rng``.
    """
    obs, rank = problem.obs, problem.rank
    if mode == "spectral":
        acc = np.zeros((obs.n1, obs.n2))
        for w_t, op, y_t in _live_bins(problem.weights.w, obs.ops, obs.y):
            back = op.adjoint(y_t)
            if op.variant == "sampling":
                back = back / op.p
            acc += w_t * back
        u, s, v = top_r_svd(acc, rank)
        root = np.sqrt(s)
        return FactorPair(u * root, v * root)
    if mode == "random":
        if rng is None:
            raise ValueError("random init requires a RandomStream")
        scale = rank**-0.5
        u = rng.child(0).generator().standard_normal((obs.n1, rank)) * scale
        v = rng.child(1).generator().standard_normal((obs.n2, rank)) * scale
        return FactorPair(u, v)
    raise ValueError(f"unknown init mode {mode!r}")


def update_V(problem: LowemsProblem, u: np.ndarray) -> np.ndarray:
    """Exact minimizer of the objective over ``V`` with ``U = u`` fixed."""
    return _factor_update(problem, u, side="V")[0]


def update_U(problem: LowemsProblem, v: np.ndarray) -> np.ndarray:
    """Exact minimizer of the objective over ``U`` with ``V = v`` fixed."""
    return _factor_update(problem, v, side="U")[0]


def _factor_update(
    problem: LowemsProblem, fixed: np.ndarray, side: str
) -> tuple[np.ndarray, float]:
    """The minimizing ``side`` factor and the data-fit term (no ridge) of the
    pair it forms with ``fixed``, from the variant's batch of normal
    equations ``gram[k] @ x[k] = rhs[k]`` and misfit function."""
    fixed = np.asarray(fixed, dtype=float)
    obs, rank = problem.obs, problem.rank
    n_in, n_out = (obs.n1, obs.n2) if side == "V" else (obs.n2, obs.n1)
    if fixed.shape != (n_in, rank):
        raise ValueError(
            f"fixed factor has shape {fixed.shape}, expected {(n_in, rank)}"
        )
    if obs.variant == "sampling":
        build, kind = _sampling_system, "per-row"
    else:
        build, kind = _sensing_system, "stacked"
    gram, rhs, misfit = build(problem, fixed, side, n_out)
    if problem.gamma > 0.0:
        diag = np.arange(gram.shape[-1])
        gram[:, diag, diag] += 2.0 * problem.gamma
    factor = _solve_systems(gram, rhs, kind).reshape(n_out, rank)
    return factor, misfit(factor)


def _sampling_design(problem: LowemsProblem, side: str) -> tuple:
    """Sampling observations laid out for solving ``side``, cached on the
    problem (its inputs are read-only): nonzero-weight bins concatenated, the
    entries of each ``(out, feat)`` pair merged into ``c = sum w_t`` and ``b =
    sum w_t * y``, sorted by output row.  ``seen`` lists the output rows that
    have entries and ``starts`` where each one's segment begins."""
    cache = problem.__dict__.setdefault("_sampling_design", {})
    if side not in cache:
        obs = problem.obs
        live = _live_bins(problem.weights.w, obs.ops, obs.y)
        rows = np.concatenate([op.rows for _, op, _ in live])
        cols = np.concatenate([op.cols for _, op, _ in live])
        out, feat = (cols, rows) if side == "V" else (rows, cols)
        n_feat = obs.n1 if side == "V" else obs.n2
        c = np.concatenate([np.full(op.m, w_t) for w_t, op, _ in live])
        b = np.concatenate([w_t * y_t for w_t, _, y_t in live])
        keys, inverse = np.unique(out * n_feat + feat, return_inverse=True)
        seen, starts = np.unique(keys // n_feat, return_index=True)
        c, b = np.bincount(inverse, c), np.bincount(inverse, b)
        cache[side] = (seen, starts, keys % n_feat, c, b)
    return cache[side]


def _sampling_system(
    problem: LowemsProblem, fixed: np.ndarray, side: str, n_out: int
) -> tuple:
    """Per-row normal equations for the sampling variant: each upper-triangle
    Gram entry and right-hand-side component is one ``np.add.reduceat`` over
    the row segments of the cached, duplicate-merged :func:`_sampling_design`.
    The misfit is :func:`weighted_misfit` of the dense product."""
    seen, starts, feat, c, b = _sampling_design(problem, side)
    r = fixed.shape[1]
    f = fixed.T.take(feat, axis=1)  # (rank, nnz), rows contiguous for reduceat
    cf = c * f
    sums = np.empty((r, r, seen.size))
    for i in range(r):
        for j in range(i, r):
            sums[i, j] = sums[j, i] = np.add.reduceat(cf[i] * f[j], starts)
    gram = np.zeros((n_out, r, r))  # rows without entries keep a zero Gram matrix
    gram[seen] = sums.transpose(2, 0, 1)
    rhs = np.zeros((n_out, r))
    rhs[seen] = np.add.reduceat(b * f, starts, axis=1).T

    def misfit(x: np.ndarray) -> float:
        product = fixed @ x.T if side == "V" else x @ fixed.T
        return weighted_misfit(problem.obs, problem.weights.w, product)

    return gram, rhs, misfit


def _sensing_system(
    problem: LowemsProblem, fixed: np.ndarray, side: str, n_out: int
) -> tuple:
    """The stacked normal equations of the dense sensing variant, a batch of
    one ``(k, k)`` system with ``k = n_out * rank``, in one pass over the
    operator.

    For ``side == "V"`` the i-th design row is ``A_i^T @ U`` flattened (since
    ``<A_i, U V^T> = <A_i^T U, V>``); for ``side == "U"`` it is ``A_i @ V``.
    Each block's rows are one BLAS matmul (the transposed block is read as a
    view, never copied).  The design of every live bin is kept, ``m * n_out *
    rank`` floats each, to accumulate the normal equations and then to give
    the candidate's misfit from its explicit residual ``D_t x - y_t``.
    """
    obs, r = problem.obs, fixed.shape[1]
    k = n_out * r
    gram = np.zeros((k, k))
    rhs = np.zeros(k)
    designs = []
    for w_t, op, y_t in _live_bins(problem.weights.w, obs.ops, obs.y):
        design = np.empty((op.m, n_out, r))
        for start, block in op.iter_blocks():
            rows = design[start : start + block.shape[0]]
            np.matmul(block.transpose(0, 2, 1) if side == "V" else block, fixed, out=rows)
            del block  # a replayed block is freed before the next one is drawn
        design = design.reshape(op.m, k)
        gram += w_t * (design.T @ design)
        rhs += w_t * (design.T @ y_t)
        designs.append((w_t, design, y_t))

    def misfit(x: np.ndarray) -> float:
        total = 0.0
        for w_t, design, y_t in designs:
            res = design @ x.ravel() - y_t
            total += w_t * float(res @ res)
        return 0.5 * total

    return gram[None], rhs[None], misfit


def _solve_systems(gram: np.ndarray, rhs: np.ndarray, kind: str) -> np.ndarray:
    """Solve the batch ``gram[k] @ x[k] = rhs[k]`` in one call.  Singular
    systems (only possible without ridge) and systems with a non-finite
    solution are solved by minimum-norm least squares, one at a time, with
    one warning per call; the others stay in one batched solve."""
    regular = np.ones(len(rhs), dtype=bool)
    try:
        out = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # a zero sign marks an exactly zero LU pivot: the systems gesv rejects
        regular = np.linalg.slogdet(gram)[0] != 0.0
        out = np.zeros_like(rhs)
        out[regular] = np.linalg.solve(gram[regular], rhs[regular][:, :, None])[:, :, 0]
    fallback = np.flatnonzero(~regular | ~np.isfinite(out).all(axis=1))
    if fallback.size:
        warnings.warn(
            f"singular {kind} system; using minimum-norm solve",
            RankDeficiencyWarning,
            stacklevel=4,  # _solve_systems, _factor_update, solve/update_*, caller
        )
        for k in fallback:
            out[k] = np.linalg.lstsq(gram[k], rhs[k], rcond=None)[0]
    return out


def solve(
    problem: LowemsProblem,
    *,
    max_sweeps: int = 500,
    tol: float = 1e-8,
    init: str = "spectral",
    rng: RandomStream | None = None,
) -> Solution:
    """Run alternating minimization to (numerical) convergence.

    Stops when the relative objective decrease over a full sweep falls below
    ``tol``, when ``max_sweeps`` is exhausted, or when a half-sweep fails to
    improve the computed objective — exact block minimization cannot increase
    the true objective, so a computed increase means the iteration has hit
    the floating-point floor and the previous iterate is kept.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    pair = init_factors(problem, init, rng)
    u, v = pair.U, pair.V
    current = objective(problem, pair)
    if not np.isfinite(current):
        raise DivergenceError("initial objective is non-finite", pair, [])
    trace = [current]
    converged = False
    sweeps = 0
    for sweep in range(1, max_sweeps + 1):
        sweep_start = current
        stagnated = False
        for side in ("U", "V"):
            factor, misfit = _factor_update(problem, v if side == "U" else u, side)
            cand_u, cand_v = (factor, v) if side == "U" else (u, factor)
            cand_obj = _with_ridge(problem, misfit, cand_u, cand_v)
            if not np.isfinite(cand_obj):
                raise DivergenceError(
                    "objective became non-finite", FactorPair(u, v), trace
                )
            if cand_obj > current:
                stagnated = True
                break
            u, v = cand_u, cand_v
            current = cand_obj
            trace.append(current)
        sweeps = sweep
        if stagnated:
            converged = True
            break
        if sweep_start - current <= tol * max(abs(sweep_start), 1e-300):
            converged = True
            break
    x_hat = u @ v.T
    clip_applied = False
    if problem.max_entry is not None:
        clipped = np.clip(x_hat, -problem.max_entry, problem.max_entry)
        clip_applied = bool(np.any(clipped != x_hat))
        x_hat = clipped
    return Solution(
        factors=FactorPair(u, v),
        X_hat=x_hat,
        objective_trace=np.asarray(trace),
        iterations=sweeps,
        converged=converged,
        clip_applied=clip_applied,
    )


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
