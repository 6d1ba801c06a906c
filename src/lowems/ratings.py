"""Timestamped-ratings pipeline: ingestion, time binning, chronological
splitting, noise-ratio cross-validation, and held-out evaluation.

Conventions: items index rows of the rating matrix, users index columns.
A rating file is CSV with header ``user_id,item_id,rating,timestamp``
(integer ids and timestamps, real-valued ratings).  Users may re-rate an
item at a later timestamp; those records are kept — they carry the temporal
signal — while exact duplicate (user, item, timestamp) triples are dropped,
the last occurrence in file order winning.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import RandomStream, write_csv
from .dynamics import DynamicGroundTruth, generate_truth
from .experiments import _aggregate
from .measurement import ObservationSet, SamplingOperator
from .solver import DivergenceError, LowemsProblem, Solution, solve
from .weights import optimal_weights

HEADER = ("user_id", "item_id", "rating", "timestamp")


class EmptyResultError(ValueError):
    """A filtering step removed every rating."""


@dataclass(frozen=True, eq=False)
class RatingsTable:
    """Column-oriented rating records plus contiguous index maps.

    ``user_index`` maps raw user ids onto columns ``[0, n_users)`` and
    ``item_index`` maps raw item ids onto rows ``[0, n_items)``, both in
    sorted raw-id order.  ``item_rows``/``user_cols`` are the records'
    pre-mapped matrix coordinates.
    """

    user_ids: np.ndarray
    item_ids: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray
    user_index: dict[int, int] = field(repr=False)
    item_index: dict[int, int] = field(repr=False)
    user_cols: np.ndarray = field(repr=False)
    item_rows: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.ratings.size

    @property
    def n_users(self) -> int:
        return len(self.user_index)

    @property
    def n_items(self) -> int:
        return len(self.item_index)


def _build_table(users, items, values, stamps) -> RatingsTable:
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    stamps = np.asarray(stamps, dtype=np.int64)
    if users.size == 0:
        raise EmptyResultError("no ratings")
    unique_users, user_cols = np.unique(users, return_inverse=True)
    unique_items, item_rows = np.unique(items, return_inverse=True)
    user_index = {int(u): i for i, u in enumerate(unique_users)}
    item_index = {int(v): i for i, v in enumerate(unique_items)}
    return RatingsTable(
        user_ids=users,
        item_ids=items,
        ratings=values,
        timestamps=stamps,
        user_index=user_index,
        item_index=item_index,
        user_cols=user_cols.astype(np.int64),
        item_rows=item_rows.astype(np.int64),
    )


def _dedup_triples(users, items, values, stamps):
    """Drop exact (user, item, timestamp) duplicates, keeping the last
    occurrence in input order."""
    keep: dict[tuple[int, int, int], int] = {}
    for idx in range(len(users)):
        keep[(int(users[idx]), int(items[idx]), int(stamps[idx]))] = idx
    kept = np.array(sorted(keep.values()), dtype=np.int64)
    return users[kept], items[kept], values[kept], stamps[kept]


def ingest(path) -> RatingsTable:
    """Parse a ratings CSV into a :class:`RatingsTable`.

    Raises ``ValueError`` with the offending line number on malformed rows,
    and on an empty file or wrong header.
    """
    users, items, values, stamps = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != HEADER:
            raise ValueError(
                f"{path}: expected header {','.join(HEADER)}, got {','.join(header)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"{path}: line {lineno}: expected 4 fields")
            try:
                users.append(int(row[0]))
                items.append(int(row[1]))
                rating = float(row[2])
                stamps.append(int(row[3]))
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: malformed record {row!r}"
                ) from None
            if not math.isfinite(rating):
                raise ValueError(f"{path}: line {lineno}: non-finite rating")
            values.append(rating)
    if not users:
        raise ValueError(f"{path}: no data rows")
    arrays = _dedup_triples(
        np.asarray(users, dtype=np.int64),
        np.asarray(items, dtype=np.int64),
        np.asarray(values, dtype=float),
        np.asarray(stamps, dtype=np.int64),
    )
    return _build_table(*arrays)


def table_to_csv(table: RatingsTable, path) -> None:
    """Write a table back out in the ingestion format (raw ids)."""
    columns = (table.user_ids, table.item_ids, table.ratings, table.timestamps)
    write_csv(path, HEADER, zip(*(c.tolist() for c in columns)))


def truncate(
    table: RatingsTable, min_user_ratings: int = 1, min_item_ratings: int = 1
) -> RatingsTable:
    """Iteratively drop users/items with too few ratings until stable.

    Removing a sparse user can push an item below its threshold and vice
    versa, hence the fixed-point loop.  Raises :class:`EmptyResultError`
    when nothing survives.
    """
    if min_user_ratings < 1 or min_item_ratings < 1:
        raise ValueError("thresholds must be at least 1")
    keep = np.ones(table.n, dtype=bool)
    while True:
        users = table.user_ids[keep]
        items = table.item_ids[keep]
        if users.size == 0:
            raise EmptyResultError("truncation removed all ratings")
        _, user_inv, user_counts = np.unique(
            users, return_inverse=True, return_counts=True
        )
        _, item_inv, item_counts = np.unique(
            items, return_inverse=True, return_counts=True
        )
        ok = (user_counts[user_inv] >= min_user_ratings) & (
            item_counts[item_inv] >= min_item_ratings
        )
        if ok.all():
            break
        idx = np.flatnonzero(keep)
        keep[idx[~ok]] = False
    if not keep.any():
        raise EmptyResultError("truncation removed all ratings")
    return _build_table(
        table.user_ids[keep],
        table.item_ids[keep],
        table.ratings[keep],
        table.timestamps[keep],
    )


@dataclass(frozen=True, eq=False)
class BinnedRatings:
    """A table cut into ``d`` equal-width time bins over
    ``[min timestamp, max timestamp]``; the last bin is closed on the right.
    ``bins[t]`` holds the row indices of bin ``t`` in table order."""

    table: RatingsTable
    edges: np.ndarray
    bin_of: np.ndarray = field(repr=False)
    bins: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def d(self) -> int:
        return len(self.bins)


def bin_by_time(table: RatingsTable, d: int) -> BinnedRatings:
    """Assign each rating to one of ``d`` equal-width time bins."""
    if d < 1:
        raise ValueError("d must be at least 1")
    ts = table.timestamps
    lo, hi = int(ts.min()), int(ts.max())
    edges = np.linspace(lo, hi, d + 1)
    if lo == hi:
        bin_of = np.full(table.n, d - 1, dtype=np.int64)
    else:
        bin_of = np.clip(np.searchsorted(edges, ts, side="right") - 1, 0, d - 1)
    bins = tuple(np.flatnonzero(bin_of == t) for t in range(d))
    return BinnedRatings(table, edges, bin_of.astype(np.int64), bins)


@dataclass(frozen=True, eq=False)
class EvalSplit:
    """Chronological test split plus fold structure for cross-validation.

    ``test_rows`` are the latest ``test_frac`` of all ratings.  Each fold is
    a ``(train_rows, val_rows)`` pair; validation rows partition the last
    bin's non-test ratings, while every earlier bin is in all training sets
    (earlier bins exist to inform the temporal weighting, not to be
    predicted).
    """

    test_rows: np.ndarray
    folds: tuple[tuple[np.ndarray, np.ndarray], ...]
    test_frac: float


def make_split(
    binned: BinnedRatings,
    rng: RandomStream,
    test_frac: float = 0.10,
    folds: int = 5,
) -> EvalSplit:
    if not 0.0 <= test_frac < 1.0:
        raise ValueError("test_frac must be in [0, 1)")
    if folds < 1:
        raise ValueError("folds must be at least 1")
    table = binned.table
    n = table.n
    n_test = int(round(test_frac * n))
    order = np.lexsort((np.arange(n), table.timestamps))
    test = np.sort(order[n - n_test :]) if n_test else np.array([], dtype=np.int64)
    in_test = np.zeros(n, dtype=bool)
    in_test[test] = True

    last_bin = binned.bins[binned.d - 1]
    pool = last_bin[~in_test[last_bin]]
    if pool.size < folds:
        raise ValueError(
            f"last bin has {pool.size} non-test ratings, need at least {folds}"
        )
    earlier = np.flatnonzero(~in_test & (binned.bin_of < binned.d - 1))

    perm = rng.generator().permutation(pool)
    fold_list = []
    for part in np.array_split(perm, folds):
        val = np.sort(part)
        in_val = np.zeros(n, dtype=bool)
        in_val[val] = True
        train = np.sort(np.concatenate([earlier, pool[~in_val[pool]]]))
        fold_list.append((train.astype(np.int64), val.astype(np.int64)))
    return EvalSplit(test.astype(np.int64), tuple(fold_list), test_frac)


@dataclass(frozen=True)
class FitConfig:
    """Solver settings for ratings fits.  Ridge on by default: real rating
    matrices have rows/columns that a fold may leave unobserved."""

    rank: int
    gamma: float = 1.0
    max_sweeps: int = 500
    tol: float = 1e-8
    init: str = "random"
    max_entry: float | None = None


def _fit_rows(
    binned: BinnedRatings,
    rows: np.ndarray,
    weights,
    cfg: FitConfig,
    rng: RandomStream | None,
) -> Solution:
    """Fit the weighted model on a subset of table rows."""
    table = binned.table
    selected = np.zeros(table.n, dtype=bool)
    selected[rows] = True
    ops, ys = [], []
    for t in range(binned.d):
        members = binned.bins[t][selected[binned.bins[t]]]
        if members.size == 0:
            raise ValueError(f"time bin {t} has no training ratings")
        ops.append(
            SamplingOperator(
                table.n_items,
                table.n_users,
                table.item_rows[members],
                table.user_cols[members],
            )
        )
        ys.append(table.ratings[members])
    obs = ObservationSet(tuple(ops), tuple(ys), noise_std=0.0)
    problem = LowemsProblem(
        obs, weights, cfg.rank, gamma=cfg.gamma, max_entry=cfg.max_entry
    )
    return solve(
        problem,
        max_sweeps=cfg.max_sweeps,
        tol=cfg.tol,
        init=cfg.init,
        rng=rng,
    )


def _score_rows(
    binned: BinnedRatings,
    solution: Solution,
    train_rows: np.ndarray,
    eval_rows: np.ndarray,
) -> tuple[float, int, int]:
    """RMSE of the fit on ``eval_rows``, excluding records whose user or
    item has no training rating.  Returns (rmse, used, excluded)."""
    table = binned.table
    seen_items = np.zeros(table.n_items, dtype=bool)
    seen_users = np.zeros(table.n_users, dtype=bool)
    seen_items[table.item_rows[train_rows]] = True
    seen_users[table.user_cols[train_rows]] = True
    rows_ok = (
        seen_items[table.item_rows[eval_rows]]
        & seen_users[table.user_cols[eval_rows]]
    )
    used = eval_rows[rows_ok]
    excluded = int(eval_rows.size - used.size)
    if used.size == 0:
        return math.nan, 0, excluded
    pred = solution.X_hat[table.item_rows[used], table.user_cols[used]]
    err = pred - table.ratings[used]
    return float(np.sqrt(np.mean(err**2))), int(used.size), excluded


@dataclass(frozen=True)
class CVRow:
    kappa: float
    mean_val_rmse: float
    std: float


@dataclass(frozen=True, eq=False)
class CrossValidation:
    best_kappa: float
    rows: tuple[CVRow, ...]

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["kappa", "mean_val_rmse", "std"],
            [[r.kappa, r.mean_val_rmse, r.std] for r in self.rows],
        )


def cross_validate_kappa(
    binned: BinnedRatings,
    split: EvalSplit,
    kappa_grid: Sequence[float],
    cfg: FitConfig,
    rng: RandomStream,
) -> CrossValidation:
    """Pick the noise-ratio parameter by fold-averaged validation RMSE.

    Random-init streams are derived per fold and shared across the grid, so
    the comparison between kappa values is not confounded by init noise.
    Folds whose fit diverges are skipped with a warning; a kappa with no
    surviving folds is excluded from selection.  Exact RMSE ties resolve to
    the smaller kappa.
    """
    kappa_grid = list(kappa_grid)
    if not kappa_grid:
        raise ValueError("kappa_grid must be nonempty")
    d = binned.d
    rows = []
    best: tuple[float, float] | None = None  # (rmse, kappa)
    for kappa in kappa_grid:
        weights = optimal_weights(d, kappa)
        fold_scores = []
        for f, (train, val) in enumerate(split.folds):
            try:
                sol = _fit_rows(binned, train, weights, cfg, rng.child(f))
            except DivergenceError:
                warnings.warn(
                    f"fold {f} diverged at kappa={kappa}; skipping",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            rmse, used, _ = _score_rows(binned, sol, train, val)
            if used:
                fold_scores.append(rmse)
        mean, std, n = _aggregate(fold_scores)
        if n == 0:
            warnings.warn(
                f"kappa={kappa} produced no usable folds; excluded",
                RuntimeWarning,
                stacklevel=2,
            )
        rows.append(CVRow(float(kappa), mean, std))
        if math.isfinite(mean):
            if best is None or mean < best[0] or (mean == best[0] and kappa < best[1]):
                best = (mean, float(kappa))
    if best is None:
        raise RuntimeError("cross-validation failed for every kappa")
    return CrossValidation(best[1], tuple(rows))


@dataclass(frozen=True, eq=False)
class TestEvaluation:
    """Held-out RMSE per restart, plus how many test records were scored
    and how many were excluded for referencing unseen users/items."""

    rmse: np.ndarray
    n_used: int
    n_excluded: int

    def to_csv(self, path) -> None:
        write_csv(path, ["restart", "test_rmse"], enumerate(self.rmse.tolist()))


def evaluate_test(
    binned: BinnedRatings,
    split: EvalSplit,
    kappa: float,
    cfg: FitConfig,
    rng: RandomStream,
    restarts: int = 10,
) -> TestEvaluation:
    """Refit on all non-test data with ``restarts`` random initializations
    and score each fit on the chronological test set."""
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    table = binned.table
    in_test = np.zeros(table.n, dtype=bool)
    in_test[split.test_rows] = True
    train = np.flatnonzero(~in_test)
    weights = optimal_weights(binned.d, kappa)
    scores = []
    used = excluded = 0
    for i in range(restarts):
        sol = _fit_rows(binned, train, weights, cfg, rng.child(i))
        rmse, used, excluded = _score_rows(binned, sol, train, split.test_rows)
        scores.append(rmse)
    return TestEvaluation(np.asarray(scores), used, excluded)


def synthetic_ratings(
    n_items: int,
    n_users: int,
    rank: int,
    d: int,
    fill: float,
    noise_std: float,
    drift_std: float,
    rng: RandomStream,
    bin_width: int = 10_000,
) -> tuple[RatingsTable, DynamicGroundTruth]:
    """Planted ratings data: a drifting low-rank matrix sampled uniformly
    within each of ``d`` equal time windows, with Gaussian rating noise.

    One record per window is pinned to the window boundary so that
    :func:`bin_by_time` with the same ``d`` reproduces the planted windows
    exactly.  Returns the table and the planted truth.
    """
    if not 0 < fill <= 1:
        raise ValueError("fill must be in (0, 1]")
    truth = generate_truth(n_items, n_users, rank, d, drift_std, rng.child(0))
    per_bin = max(1, round(fill * n_items * n_users))
    users, items, values, stamps = [], [], [], []
    for t in range(d):
        gen = rng.child(1 + t).generator()
        item_idx = gen.integers(0, n_items, size=per_bin)
        user_idx = gen.integers(0, n_users, size=per_bin)
        ts = gen.integers(t * bin_width, (t + 1) * bin_width, size=per_bin)
        if t == 0:
            ts[0] = 0
        if t == d - 1:
            ts[-1] = d * bin_width
        vals = truth.X_seq[t][item_idx, user_idx] + noise_std * gen.standard_normal(
            per_bin
        )
        users.append(user_idx)
        items.append(item_idx)
        values.append(vals)
        stamps.append(ts)
    arrays = _dedup_triples(
        np.concatenate(users),
        np.concatenate(items),
        np.concatenate(values),
        np.concatenate(stamps),
    )
    return _build_table(*arrays), truth
