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

from .core import COUNT, RandomStream, Range, write_csv
from .dynamics import DynamicGroundTruth, generate_truth
from .experiments import _aggregate
from .measurement import ObservationSet, SamplingOperator
from .solver import DivergenceError, LowemsProblem, solve
from .weights import optimal_weights

HEADER = ("user_id", "item_id", "rating", "timestamp")
TEST_FRACTIONS = Range(lambda f: 0 <= f < 1, "in [0, 1)")
BIN_WIDTH = 10_000  # timestamp ticks per planted window of synthetic_ratings


class EmptyResultError(ValueError):
    """A filtering or splitting step left no ratings."""


@dataclass(frozen=True, eq=False)
class RatingsTable:
    """Column-oriented rating records plus their matrix coordinates.

    ``user_cols`` maps each record's raw user id onto a column in
    ``[0, n_users)`` and ``item_rows`` its raw item id onto a row in
    ``[0, n_items)``, both in sorted raw-id order.
    """

    user_ids: np.ndarray
    item_ids: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray
    user_cols: np.ndarray = field(repr=False)
    item_rows: np.ndarray = field(repr=False)
    n_users: int
    n_items: int

    @property
    def n(self) -> int:
        return self.ratings.size


def _build_table(users, items, values, stamps) -> RatingsTable:
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    stamps = np.asarray(stamps, dtype=np.int64)
    if users.size == 0:
        raise EmptyResultError("no ratings")
    unique_users, user_cols = np.unique(users, return_inverse=True)
    unique_items, item_rows = np.unique(items, return_inverse=True)
    return RatingsTable(
        user_ids=users,
        item_ids=items,
        ratings=values,
        timestamps=stamps,
        user_cols=user_cols.astype(np.int64),
        item_rows=item_rows.astype(np.int64),
        n_users=unique_users.size,
        n_items=unique_items.size,
    )


def _dedup_triples(users, items, values, stamps):
    """Drop exact (user, item, timestamp) duplicates, keeping the last
    occurrence in input order: a stable three-key sort of the reversed rows
    puts it first among its copies, where the sorted keys change."""
    keys = [a[::-1] for a in (stamps, items, users)]
    order = np.lexsort(keys)
    first = np.zeros(order.size, dtype=bool)
    first[:1] = True
    for key in keys:
        ordered = key[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    kept = np.sort(len(users) - 1 - order[first])
    return users[kept], items[kept], values[kept], stamps[kept]


def ingest(path) -> RatingsTable:
    """Parse a ratings CSV into a :class:`RatingsTable`.

    Raises ``ValueError`` with the offending line number on malformed rows,
    and on an empty file or wrong header.
    """
    users, items, values, stamps = [], [], [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    if min(min_user_ratings, min_item_ratings) not in COUNT:
        raise ValueError(f"thresholds must be {COUNT}")
    cols, rows = table.user_cols, table.item_rows
    keep = np.ones(table.n, dtype=bool)
    while keep.any():
        user_counts = np.bincount(cols[keep], minlength=table.n_users)
        item_counts = np.bincount(rows[keep], minlength=table.n_items)
        drop = keep & (
            (user_counts[cols] < min_user_ratings) | (item_counts[rows] < min_item_ratings)
        )
        if not drop.any():
            break
        keep &= ~drop
    else:
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
    ``bin_of[i]`` is the bin of table row ``i``."""

    table: RatingsTable
    edges: np.ndarray
    bin_of: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return self.edges.size - 1


def bin_by_time(table: RatingsTable, d: int) -> BinnedRatings:
    """Assign each rating to one of ``d`` equal-width time bins."""
    if d not in COUNT:
        raise ValueError(f"d must be {COUNT}")
    ts = table.timestamps
    lo, hi = int(ts.min()), int(ts.max())
    edges = np.linspace(lo, hi, d + 1)
    if lo == hi:
        bin_of = np.full(table.n, d - 1, dtype=np.int64)
    else:
        bin_of = np.clip(np.searchsorted(edges, ts, side="right") - 1, 0, d - 1)
    return BinnedRatings(table, edges, bin_of.astype(np.int64))


@dataclass(frozen=True, eq=False)
class EvalSplit:
    """Chronological test split plus fold structure for cross-validation.

    ``test_rows`` are those of :func:`chronological_split`.  Each fold is
    a ``(train_rows, val_rows)`` pair; validation rows partition the last
    bin's non-test ratings, and a fold trains on every other non-test row,
    so every earlier bin is in all training sets (earlier bins exist to
    inform the temporal weighting, not to be predicted).
    """

    test_rows: np.ndarray
    folds: tuple[tuple[np.ndarray, np.ndarray], ...]


def chronological_split(
    table: RatingsTable, test_frac: float = 0.10
) -> tuple[np.ndarray, np.ndarray]:
    """The test rows, the latest ``round(test_frac * n)`` ratings (equal
    timestamps ordered by table row), and the training rows, all the others.
    Both are ascending."""
    if test_frac not in TEST_FRACTIONS:
        raise ValueError(f"test_frac must be {TEST_FRACTIONS}")
    n = table.n
    n_test = int(round(test_frac * n))
    order = np.lexsort((np.arange(n), table.timestamps))
    return np.sort(order[n - n_test :]), np.sort(order[: n - n_test])


def make_split(
    binned: BinnedRatings,
    rng: RandomStream,
    test_frac: float = 0.10,
    folds: int = 5,
) -> EvalSplit:
    if folds not in COUNT:
        raise ValueError(f"folds must be {COUNT}")
    test, rest = chronological_split(binned.table, test_frac)
    pool = rest[binned.bin_of[rest] == binned.d - 1]
    if pool.size < folds:
        raise ValueError(
            f"last bin has {pool.size} non-test ratings, need at least {folds}"
        )
    perm = rng.generator().permutation(pool)
    vals = [np.sort(part) for part in np.array_split(perm, folds)]
    # rows are unique, and a difference that assumes so keeps rest's sorted order
    trains = [np.setdiff1d(rest, val, assume_unique=True) for val in vals]
    return EvalSplit(test, tuple(zip(trains, vals)))


@dataclass(frozen=True)
class FitConfig:
    """Solver settings for ratings fits.  Ridge on by default: real rating
    matrices have rows/columns that a fold may leave unobserved."""

    rank: int
    gamma: float = 1.0
    max_sweeps: int = 500
    tol: float = 1e-8


def _training_set(
    binned: BinnedRatings, train_rows: np.ndarray, eval_rows: np.ndarray
) -> tuple[ObservationSet, np.ndarray]:
    """The observations of ``train_rows``, one sampling operator per time
    bin, and the ``eval_rows`` whose item and user both have a training
    rating.  Both callers pass ascending ``train_rows``, so each bin's
    ratings stay in table order."""
    table = binned.table
    train_bins = binned.bin_of[train_rows]
    ops, ys = [], []
    for t in range(binned.d):
        members = train_rows[train_bins == t]
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
    items, users = table.item_rows, table.user_cols
    seen = np.isin(items[eval_rows], items[train_rows]) & np.isin(
        users[eval_rows], users[train_rows]
    )
    return ObservationSet(tuple(ops), tuple(ys), noise_std=0.0), eval_rows[seen]


def _fit_rmse(
    binned: BinnedRatings,
    obs: ObservationSet,
    scored: np.ndarray,
    weights,
    cfg: FitConfig,
    rng: RandomStream,
) -> float:
    """Fit the weighted model to ``obs`` from a random init, unclipped, and
    return its RMSE on the ``scored`` table rows (NaN when there are none)."""
    problem = LowemsProblem(obs, weights, cfg.rank, gamma=cfg.gamma)
    sol = solve(problem, max_sweeps=cfg.max_sweeps, tol=cfg.tol, init="random", rng=rng)
    if scored.size == 0:
        return math.nan
    table = binned.table
    pred = sol.X_hat[table.item_rows[scored], table.user_cols[scored]]
    return float(np.sqrt(np.mean((pred - table.ratings[scored]) ** 2)))


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

    Each fold's training set is built once and shared by the grid, one fold
    at a time.  Random-init streams are derived per fold and shared across
    the grid, so the comparison between kappa values is not confounded by
    init noise.
    Folds whose fit diverges are skipped with a warning; a kappa with no
    surviving folds is excluded from selection.  Exact RMSE ties resolve to
    the smaller kappa.
    """
    kappa_grid = list(kappa_grid)
    if not kappa_grid:
        raise ValueError("kappa_grid must be nonempty")
    weights = [optimal_weights(binned.d, kappa) for kappa in kappa_grid]
    scores: list[list[float]] = [[] for _ in kappa_grid]
    for f, (train, val) in enumerate(split.folds):
        obs, scored = _training_set(binned, train, val)
        for kappa, w, fold_scores in zip(kappa_grid, weights, scores):
            try:
                rmse = _fit_rmse(binned, obs, scored, w, cfg, rng.child(f))
            except DivergenceError:
                warnings.warn(
                    f"fold {f} diverged at kappa={kappa}; skipping",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if scored.size:
                fold_scores.append(rmse)
        del obs  # one fold's observations at a time
    rows = []
    for kappa, fold_scores in zip(kappa_grid, scores):
        mean, std, n = _aggregate(fold_scores)
        if n == 0:
            warnings.warn(
                f"kappa={kappa} produced no usable folds; excluded",
                RuntimeWarning,
                stacklevel=2,
            )
        rows.append(CVRow(float(kappa), mean, std))
    finite = [(r.mean_val_rmse, r.kappa) for r in rows if math.isfinite(r.mean_val_rmse)]
    if not finite:
        raise RuntimeError("cross-validation failed for every kappa")
    return CrossValidation(min(finite)[1], tuple(rows))


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
    holdout: tuple[np.ndarray, np.ndarray],
    kappa: float,
    cfg: FitConfig,
    rng: RandomStream,
    restarts: int = 10,
) -> TestEvaluation:
    """Refit on the training rows of ``holdout``, the ``(test, train)`` pair
    of :func:`chronological_split`, with ``restarts`` random initializations
    and score each fit on its test rows.  The training set is built once; a
    split with no test ratings is refused before any fit."""
    if restarts not in COUNT:
        raise ValueError(f"restarts must be {COUNT}")
    test, train = holdout
    if test.size == 0:
        raise EmptyResultError("the test split holds no ratings")
    obs, scored = _training_set(binned, train, test)
    weights = optimal_weights(binned.d, kappa)
    rmse = [_fit_rmse(binned, obs, scored, weights, cfg, rng.child(i))
            for i in range(restarts)]
    return TestEvaluation(np.asarray(rmse), scored.size, test.size - scored.size)


def synthetic_ratings(
    n_items: int,
    n_users: int,
    rank: int,
    d: int,
    fill: float,
    noise_std: float,
    drift_std: float,
    rng: RandomStream,
) -> tuple[RatingsTable, DynamicGroundTruth]:
    """Planted ratings data: a drifting low-rank matrix sampled uniformly
    within each of ``d`` time windows of ``BIN_WIDTH`` ticks, with Gaussian
    rating noise.

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
        ts = gen.integers(t * BIN_WIDTH, (t + 1) * BIN_WIDTH, size=per_bin)
        if t == 0:
            ts[0] = 0
        if t == d - 1:
            ts[-1] = d * BIN_WIDTH
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
