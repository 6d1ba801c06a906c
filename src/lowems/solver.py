"""Alternating least squares for weighted multi-bin low-rank recovery.

The estimator minimizes

    0.5 * sum_t w_t * ||A_t(U V^T) - y_t||^2  +  gamma * (||U||_F^2 + ||V||_F^2)

over factor pairs ``(U, V)`` of width ``rank``.  Each half-sweep solves one
factor's weighted least-squares subproblem exactly while the other is held
fixed, so the objective is nonincreasing along the iteration.  With the
ridge on, a sweep that does not stop the solve is followed by a gauge step,
:func:`_balance`: the pair is replaced by the balanced factors of the same
product, which minimize the ridge term over all pairs of that product.
Plain ALS moves the scale split between ``U`` and ``V`` into balance only
slowly, so the step cuts the sweeps a ridge solve needs to reach ``tol``
when the ridge is small next to the data term (Srebro, Rennie and
Jaakkola, 2005; softImpute-ALS of Hastie, Mazumder, Lee and Zadeh, 2015,
keeps its factors in this form).  Where the ridge drives a singular value
of the product to zero, balancing slows that decay and a solve can take
more sweeps.

Each half-sweep of :func:`solve` drives the builder that
:func:`_normal_equations` makes once per solve: it assembles the normal
equations as a batch of systems plus a function giving the candidate's
misfit, and :func:`_ridge_solve` adds the ridge and solves (only systems
LAPACK finds singular pay for the fallback).
Sampling gives one tiny system per output row; all rows come from one GEMM
of dense merged weights (two ``n1 * n2`` arrays) held by the builder, so its
cost follows ``n1 * n2`` rather than the observation count.  Dense sensing
gives one stacked system in ``n * rank`` unknowns, the least-squares fit of
one weighted composite operator (the live bins' ``sqrt(w_t) * A_t``
stacked), from one pass over the operator.  Its design rows are one BLAS
matmul per drawn piece, run on the thread that drew it, into one buffer the
builder holds (``m * max(n1, n2) * rank`` floats for ``m`` live
measurements); the Gram, right-hand side and misfit are each one product of
it, so no block is produced twice and no half-sweep faults its design in
again.  The first half-sweep's misfit function also gives the starting
objective, so a solve makes one pass per half-sweep, plus one for a
spectral init.  Replay-mode operators never materialize their sensing stack.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import RandomStream, check_rank, check_settings, frobenius_norm, top_r_svd
from .measurement import ObservationSet, _live_bins
from .weights import WeightVector

INIT_MODES = ("spectral", "random")


class RankDeficiencyWarning(UserWarning):
    """A least-squares subproblem was singular (gamma = 0) and was resolved
    by a minimum-norm pseudo-inverse solve."""


class DivergenceError(RuntimeError):
    """A solve priced a non-finite objective.  Carries the pair it kept: the
    start pair as given (trace empty), or the last accepted pair and trace."""

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
        check_rank(self.rank, self.obs.n1, self.obs.n2)
        check_settings(gamma=self.gamma, max_entry=self.max_entry)


@dataclass(frozen=True, eq=False)
class Solution:
    """Solver output.

    ``factors`` is the final (unclipped) factor pair; ``X_hat`` the estimate
    after optional entry clipping.  ``objective_trace`` has the initial
    objective followed by one value per accepted half-sweep; ``iterations``
    counts completed full sweeps.  ``clip_applied`` reports whether the
    ``max_entry`` bound actually changed any entry.  ``stop_reason`` is
    ``"tol"`` or ``"stagnated"`` (``converged``) or ``"max_sweeps"``;
    ``fallbacks`` counts the systems solved by the minimum-norm fallback.
    """

    factors: FactorPair
    X_hat: np.ndarray = field(repr=False)
    objective_trace: np.ndarray = field(repr=False)
    iterations: int
    converged: bool
    clip_applied: bool
    stop_reason: str | None = None
    fallbacks: int = 0


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
    u = _fixed_factor(problem, u, "V")
    return _ridge_solve(problem, *_normal_equations(problem)(u, "V")[:2])[0]


def update_U(problem: LowemsProblem, v: np.ndarray) -> np.ndarray:
    """Exact minimizer of the objective over ``U`` with ``V = v`` fixed."""
    v = _fixed_factor(problem, v, "U")
    return _ridge_solve(problem, *_normal_equations(problem)(v, "U")[:2])[0]


def _fixed_factor(problem: LowemsProblem, fixed: np.ndarray, side: str) -> np.ndarray:
    """``fixed`` as floats, refused unless it is the factor the ``side``
    update holds fixed: ``(n1, rank)`` for V, ``(n2, rank)`` for U."""
    fixed = np.asarray(fixed, dtype=float)
    expected = (problem.obs.n1 if side == "V" else problem.obs.n2, problem.rank)
    if fixed.shape != expected:
        raise ValueError(f"fixed factor has shape {fixed.shape}, expected {expected}")
    return fixed


def _ridge_solve(problem: LowemsProblem, gram: np.ndarray, rhs: np.ndarray) -> tuple:
    """The factor solving the batch ``gram[k] @ x[k] = rhs[k]`` of a builder
    with ``2 * gamma`` added to each Gram diagonal (in place), and its fallback count."""
    if problem.gamma > 0.0:
        diag = np.arange(gram.shape[-1])
        gram[:, diag, diag] += 2.0 * problem.gamma
    kind = "per-row" if problem.obs.variant == "sampling" else "stacked"
    out, fallbacks = _solve_systems(gram, rhs, kind)
    return out.reshape(-1, problem.rank), fallbacks


def _normal_equations(problem: LowemsProblem) -> Callable:
    """The variant's ``build(fixed, side) -> (gram, rhs, misfit)``,
    holding what every half-sweep of a solve shares: for sampling, the merged
    weights ``c[i, j] = sum w_t`` and ``b[i, j] = sum w_t * y`` of the live
    bins' observations of entry ``(i, j)``, dense ``(n1, n2)`` arrays summed
    in input order over the operators' ``flat`` positions; for dense sensing,
    the live bins' ``sqrt(w_t) * y_t`` stacked into one vector ``y`` and one
    design buffer with room for either side's design.  Made per solve and
    not cached: a problem may be solved on two threads at once."""
    obs = problem.obs
    live = _live_bins(problem.weights.w, obs.ops, obs.y)
    if obs.variant == "gaussian":
        y = np.concatenate([np.sqrt(w_t) * y_t for w_t, _, y_t in live])
        buffer = np.empty(y.size * max(obs.n1, obs.n2) * problem.rank)
        return partial(_sensing_system, live, buffer, y)
    flat = np.concatenate([op.flat for _, op, _ in live])
    y = np.concatenate([y_t for _, _, y_t in live])
    w = np.concatenate([np.full(op.m, w_t) for w_t, op, _ in live])
    c = np.bincount(flat, w, obs.n1 * obs.n2).reshape(obs.n1, obs.n2)
    b = np.bincount(flat, w * y, obs.n1 * obs.n2).reshape(obs.n1, obs.n2)
    return partial(_sampling_system, live, c, b)


def _sampling_system(
    live: list, c: np.ndarray, b: np.ndarray, fixed: np.ndarray, side: str
) -> tuple:
    """Per-row normal equations for the sampling variant, from the merged
    ``c`` and ``b`` in the weighted-ALS form (Hu, Koren and Volinsky, 2008):
    Gram matrices ``c @ outer(fixed)``, right-hand sides ``b @ fixed``, with
    ``c`` and ``b`` read transposed (views) for V.  That costs
    ``n1 * n2 * rank**2`` multiply-adds whatever the number of observations,
    so it pays on densely sampled problems.  Unobserved rows keep an exactly
    zero Gram matrix.  The misfit scans the whole product once (NaN if any
    entry, observed or not, is non-finite), then reads each live bin through
    its operator's ``flat`` positions and adds ``w_t * ||r_t||^2`` left to
    right in a plain loop, as :func:`weighted_misfit` does: the same bits."""
    if side == "V":
        c, b = c.T, b.T
    r = fixed.shape[1]
    outer = (fixed[:, :, None] * fixed[:, None, :]).reshape(-1, r * r)
    gram = (c @ outer).reshape(-1, r, r)

    def misfit(x: np.ndarray) -> float:
        product = fixed @ x.T if side == "V" else x @ fixed.T
        total = 0.0 if np.isfinite(product).all() else math.nan
        for w_t, op, y_t in live:
            r_t = product.take(op.flat) - y_t
            total += w_t * float(r_t @ r_t)
        return 0.5 * total

    return gram, b @ fixed, misfit


def _sensing_system(
    live: list, buffer: np.ndarray, y: np.ndarray, fixed: np.ndarray, side: str
) -> tuple:
    """The stacked normal equations of the dense sensing variant, a batch of
    one ``(k, k)`` system with ``k = n_out * rank``, in one pass over the
    operator: the least-squares fit to ``y`` of the live bins'
    ``sqrt(w_t) * A_t`` stacked.

    For ``side == "V"`` the i-th design row is ``A_i^T @ U`` flattened (since
    ``<A_i, U V^T> = <A_i^T U, V>``); for ``side == "U"`` it is ``A_i @ V``;
    bin ``t``'s rows use ``sqrt(w_t) * fixed``.  Each piece's rows are one
    BLAS matmul (the transposed piece is read as a view, never copied), run
    by the thread that drew the piece, into the bin's rows of ``buffer``.
    The design ``D`` (``y.size * k`` floats) gives the Gram ``D^T D``, the
    right-hand side ``D^T y`` and the candidate's misfit from its explicit
    residual ``D x - y``.  The Gram matrix is allocated only after the pass
    has freed its last block.
    """
    n_out = live[0][1].n2 if side == "V" else live[0][1].n1
    k = n_out * fixed.shape[1]
    design = buffer[: y.size * k].reshape(y.size, n_out, -1)
    offset = 0
    for w_t, op, _ in live:
        bin_rows = design[offset : offset + op.m]
        offset += op.m

        def rows(start: int, piece: np.ndarray, out=bin_rows, f=np.sqrt(w_t) * fixed) -> None:
            a = piece.transpose(0, 2, 1) if side == "V" else piece
            np.matmul(a, f, out=out[start : start + piece.shape[0]])

        for _, block in op.iter_blocks(rows):
            del block  # a replayed block is freed before the next one is drawn
    design = design.reshape(y.size, k)

    def misfit(x: np.ndarray) -> float:
        res = design @ x.ravel() - y
        return 0.5 * float(res @ res)

    return (design.T @ design)[None], (design.T @ y)[None], misfit


def _solve_systems(gram: np.ndarray, rhs: np.ndarray, kind: str) -> tuple[np.ndarray, int]:
    """Solve the batch ``gram[k] @ x[k] = rhs[k]`` in one call; returns the
    solutions and how many fell back.  A batched solve that raises nothing is
    returned as it is, non-finite or not.  Otherwise the systems LAPACK finds
    singular (only possible without ridge) are solved by minimum-norm least
    squares, one at a time, with one warning per call; the rest stay batched."""
    try:
        return np.linalg.solve(gram, rhs[:, :, None])[:, :, 0], 0
    except np.linalg.LinAlgError:
        # a zero sign marks an exactly zero LU pivot: the systems gesv rejects
        regular = np.linalg.slogdet(gram)[0] != 0.0
    out = np.zeros_like(rhs)
    out[regular] = np.linalg.solve(gram[regular], rhs[regular][:, :, None])[:, :, 0]
    warnings.warn(
        f"singular {kind} system; using minimum-norm solve",
        RankDeficiencyWarning,
        stacklevel=4,  # _solve_systems, _ridge_solve, solve/update_*, caller
    )
    for k in np.flatnonzero(~regular):
        out[k] = np.linalg.lstsq(gram[k], rhs[k], rcond=None)[0]
    return out, len(regular) - int(regular.sum())


def _balance(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The balanced factors of ``u @ v.T``: with thin QRs ``u = Q_u R_u``,
    ``v = Q_v R_v`` and the SVD ``R_u R_v^T = W S Z^T``, the pair
    ``(Q_u W S^1/2, Q_v Z S^1/2)``.  It has the same product, and ``U^T U =
    V^T V = S``, so ``||U||_F^2 + ||V||_F^2`` is twice the product's nuclear
    norm, the least over all factor pairs of that product (Srebro, Rennie
    and Jaakkola, 2005).  Singular values at rounding level (``rank * eps``
    of the largest) are set to zero, so a factor pair that has lost rank
    keeps exactly zero columns.  Costs ``O((n1 + n2) * rank**2)``."""
    q_u, r_u = np.linalg.qr(u)
    q_v, r_v = np.linalg.qr(v)
    w, s, z_t = np.linalg.svd(r_u @ r_v.T)
    root = np.sqrt(np.where(s > s[0] * len(s) * np.finfo(float).eps, s, 0.0))
    return q_u @ (w * root), q_v @ (z_t.T * root)


def solve(
    problem: LowemsProblem,
    *,
    max_sweeps: int = 500,
    tol: float = 1e-8,
    init: str | FactorPair = "spectral",
    rng: RandomStream | None = None,
) -> Solution:
    """Run alternating minimization to (numerical) convergence.

    ``init`` is a mode of :func:`init_factors` (``rng`` feeds ``random``),
    or a starting :class:`FactorPair` of shapes ``(n1, rank)`` and
    ``(n2, rank)``, used as it is: a warm start.

    Stops when the relative objective decrease over a full sweep falls below
    ``tol``, when ``max_sweeps`` is exhausted, or when a half-sweep fails to
    improve the computed objective — exact block minimization cannot increase
    the true objective, so a computed increase is rounding error (often the
    floating-point floor, but it can be far larger) and the previous iterate
    is kept.  A non-finite objective, at the start or at a candidate, raises
    :class:`DivergenceError`; no other step raises on a non-finite value, and
    the sweeps turn numpy's overflow and invalid-value warnings off on the
    calling thread, so that error is all a diverging solve reports.

    With ``gamma > 0``, every sweep that does not stop the solve is followed
    by the gauge step :func:`_balance`, kept when it lowers the ridge term.
    It changes only the ridge, so its objective is the sweep's misfit plus
    the new ridge, and the next sweep starts, and measures its decrease,
    from that value.  The trace gets no entry for it, so ``objective_trace``
    still holds the initial objective and one value per accepted half-sweep,
    and ``iterations`` and ``converged`` keep their meaning; the returned
    factors are the last ALS iterate.  ``gamma = 0`` solves never take it.
    """
    check_settings(max_sweeps=max_sweeps, tol=tol)
    if isinstance(init, FactorPair):
        pair = FactorPair(
            _fixed_factor(problem, init.U, "V"), _fixed_factor(problem, init.V, "U")
        )
    else:
        pair = init_factors(problem, init, rng)
    u, v = pair.U, pair.V
    build = _normal_equations(problem)
    current, trace, fallbacks = None, [], 0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow shows in the objective
        for iterations in range(1, max_sweeps + 1):
            sweep_start, stop = current, None
            for side in ("U", "V"):
                gram, rhs, misfit = build(v if side == "U" else u, side)
                if current is None:  # the first system also prices the starting pair
                    current = sweep_start = _with_ridge(problem, misfit(u), u, v)
                    if not math.isfinite(current):
                        raise DivergenceError("initial objective is non-finite", pair, [])
                    trace.append(current)
                factor, fell_back = _ridge_solve(problem, gram, rhs)
                fallbacks += fell_back
                del gram, rhs  # the next half-sweep's assembly must not hold this Gram too
                cand_u, cand_v = (factor, v) if side == "U" else (u, factor)
                fit = misfit(factor)
                cand_obj = _with_ridge(problem, fit, cand_u, cand_v)
                if not math.isfinite(cand_obj):
                    raise DivergenceError(
                        "objective became non-finite", FactorPair(u, v), trace
                    )
                if cand_obj > current:
                    stop = "stagnated"
                    break
                u, v = cand_u, cand_v
                current = cand_obj
                trace.append(current)
            if stop is None and sweep_start - current <= tol * max(abs(sweep_start), 1e-300):
                stop = "tol"
            if stop or iterations == max_sweeps:
                break
            if problem.gamma > 0.0:  # the last accepted half-sweep was V's: fit is the pair's
                bal_u, bal_v = _balance(u, v)
                balanced = _with_ridge(problem, fit, bal_u, bal_v)
                if balanced < current:
                    u, v, current = bal_u, bal_v, balanced
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
        iterations=iterations,
        converged=stop is not None,
        clip_applied=clip_applied,
        stop_reason=stop or "max_sweeps",
        fallbacks=fallbacks,
    )
