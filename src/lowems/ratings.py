"""Timestamped-ratings pipeline: ingestion, time binning, chronological
splitting, noise-ratio cross-validation, and held-out evaluation.

Conventions: items index rows of the rating matrix, users index columns.
A rating file is UTF-8 CSV with header ``user_id,item_id,rating,timestamp``
(int64 ids and timestamps, finite real-valued ratings).  Users may re-rate an
item at a later timestamp; those records are kept — they carry the temporal
signal — while exact duplicate (user, item, timestamp) triples are dropped,
the last occurrence in file order winning.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import warnings
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import RandomStream, check_settings, write_csv
from .dynamics import DynamicGroundTruth, generate_truth
from .experiments import _aggregate
from .measurement import ObservationSet, SamplingOperator
from .solver import DivergenceError, FactorPair, LowemsProblem, solve
from .weights import optimal_weights

HEADER = ("user_id", "item_id", "rating", "timestamp")
_HEADER_LINES = tuple(",".join(HEADER).encode() + end for end in (b"", b"\r"))
_NUMERIC_BYTES = b"0123456789+-.eE, \t\r\n"
_RECORD = np.dtype([(name, float if name == "rating" else np.int64) for name in HEADER])
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


def _columns_csv(path, raw: bytes):
    """The four columns of the ratings file ``raw``, parsed with ``csv.reader``
    and Python's ``int`` and ``float``: the reference parse, which words every
    refusal on csv's line (ended by ``\\r\\n``, ``\\r`` or ``\\n``; a record spanning
    lines is on its last).  A bad byte is refused first, else the first faulty record."""
    try:  # the whole file first, so that a bad byte is refused before any record
        raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is raw without its BOM
        n, r, rn = (exc.object.count(end, 0, exc.start) for end in (b"\n", b"\r", b"\r\n"))
        raise ValueError(f"{path}: line {n + r - rn + 1}: not valid UTF-8") from None
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline=""))
    users, items, values, stamps = columns = tuple(array(code) for code in "qqdq")

    def refuse(what):
        return ValueError(f"{path}: line {reader.line_num}: {what}")

    try:
        if (header := next(reader, None)) is None:
            raise ValueError(f"{path}: empty file")
        if tuple(h.strip() for h in header) != HEADER:
            raise ValueError(f"{path}: expected header {','.join(HEADER)}, got {','.join(header)}")
        for row in reader:
            if len(row) != 4:
                raise refuse("expected 4 fields")
            try:  # a "q" array refuses an int outside int64
                users.append(int(row[0]))
                items.append(int(row[1]))
                rating = float(row[2])
                stamps.append(int(row[3]))
            except ValueError:
                raise refuse(f"malformed record {row!r}") from None
            except OverflowError:
                raise refuse("id or timestamp outside int64") from None
            if not math.isfinite(rating):
                raise refuse("non-finite rating")
            values.append(rating)
    except csv.Error as exc:  # such as a field past csv.field_size_limit()
        raise refuse(exc) from None
    if not users:
        raise ValueError(f"{path}: no data rows")
    return tuple(np.frombuffer(c, dtype=_RECORD[j]) for j, c in enumerate(columns))


def _columns_numpy(raw: bytes):
    """The four columns of the ratings file ``raw`` from one ``np.loadtxt``
    call, or ``None`` wherever that parse might differ from
    :func:`_columns_csv`'s.

    Only a file with the exact header and a body made of ``_NUMERIC_BYTES``
    is parsed: loadtxt reads many non-ASCII characters as digits, and strips
    ``\\x1c``-``\\x1f`` around a number, which ``int`` and ``float`` refuse.
    A line longer than csv's field size limit might hold a field that csv
    refuses.  The parse is kept only if it raised no error or warning (it
    refuses a ``\\r`` inside a line; numpy before 2.0 warns on ``1.0`` in an
    integer column), it found one row per line (it skips blank lines, which
    csv refuses), and every rating is finite.
    """
    lines = io.BytesIO(raw)  # shares raw's buffer: a refusal below copies no body
    head = lines.readline().removeprefix(codecs.BOM_UTF8).removesuffix(b"\n")
    start = lines.tell()
    if head not in _HEADER_LINES or lines.readline().translate(None, _NUMERIC_BYTES):
        return None
    body = raw[start:]
    if body.translate(None, _NUMERIC_BYTES):
        return None
    buf = np.frombuffer(body, dtype=np.uint8)
    lines = np.diff(np.flatnonzero(buf == ord("\n")), prepend=-1, append=buf.size)
    if lines.max() > csv.field_size_limit():  # lines[k]: line k's length + 1
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.BytesIO(body), dtype=_RECORD, delimiter=",",
                              comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if rows.size != lines.size - body.endswith(b"\n") or not np.isfinite(rows["rating"]).all():
        return None
    return tuple(rows[name] for name in HEADER)


def ingest(path) -> RatingsTable:
    """Parse a UTF-8 ratings CSV into a :class:`RatingsTable`.

    The file is read once.  A plain numeric file is parsed by numpy; any
    other file, and any file whose numpy parse might differ, by
    ``csv.reader``, to the same table.  Raises ``ValueError`` with the
    offending line number on malformed rows, ``csv`` errors, ids or
    timestamps outside int64 and bytes that are not UTF-8, and on an empty
    file or wrong header.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    columns = _columns_numpy(raw) or _columns_csv(path, raw)
    del raw  # the file's bytes, freed before dedup and the table build
    columns = _dedup_triples(*columns)  # the parsed columns, freed before the table build
    return _build_table(*columns)


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
    check_settings(min_user_ratings=min_user_ratings, min_item_ratings=min_item_ratings)
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
    """Assign each rating to one of ``d`` equal-width time bins, by its
    timestamp's offset from the earliest one."""
    check_settings(d=d)
    ts = table.timestamps
    lo, hi = int(ts.min()), int(ts.max())
    # exact int64 offsets (float64 rounds ns stamps to 256); lo == hi: the last bin
    offsets = np.linspace(0, hi - lo, d + 1)
    bin_of = np.clip(np.searchsorted(offsets, ts - lo, side="right") - 1, 0, d - 1)
    return BinnedRatings(table, np.linspace(lo, hi, d + 1), bin_of.astype(np.int64))


def chronological_split(
    table: RatingsTable, test_frac: float = 0.10
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(train_rows, test_rows)`` split: the test rows are the latest
    ``round(test_frac * n)`` ratings (equal timestamps ordered by table row),
    the training rows all the others.  Both are ascending."""
    check_settings(test_frac=test_frac)
    n = table.n
    n_test = int(round(test_frac * n))
    order = np.lexsort((np.arange(n), table.timestamps))
    return np.sort(order[: n - n_test]), np.sort(order[n - n_test :])


def make_split(
    binned: BinnedRatings,
    rng: RandomStream,
    test_frac: float = 0.10,
    folds: int = 5,
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The ``(train_rows, val_rows)`` folds for cross-validation, outside the
    test rows of :func:`chronological_split`.  Validation rows partition the
    last bin's non-test ratings, and a fold trains on every other non-test
    row, so every earlier bin is in all training sets (earlier bins exist to
    inform the temporal weighting, not to be predicted)."""
    check_settings(folds=folds)
    rest, _ = chronological_split(binned.table, test_frac)
    pool = rest[binned.bin_of[rest] == binned.d - 1]
    if pool.size < folds:
        raise ValueError(
            f"last bin has {pool.size} non-test ratings, need at least {folds}"
        )
    perm = rng.generator().permutation(pool)
    vals = [np.sort(part) for part in np.array_split(perm, folds)]
    # rows are unique, and a difference that assumes so keeps rest's sorted order
    return tuple((np.setdiff1d(rest, val, assume_unique=True), val) for val in vals)


@dataclass(frozen=True)
class FitConfig:
    """Solver settings for ratings fits.  Ridge on by default: real rating
    matrices have rows/columns that a fold may leave unobserved."""

    rank: int
    gamma: float = 1.0
    max_sweeps: int = 500
    tol: float = 1e-8


def _training_set(
    binned: BinnedRatings, split: tuple[np.ndarray, np.ndarray]
) -> tuple[ObservationSet, np.ndarray]:
    """The observations of a ``(train_rows, held_rows)`` split's training
    rows, one sampling operator per time bin, and the held rows whose item
    and user both have a training rating.  Both splitters return ascending
    training rows, so each bin's ratings stay in table order."""
    train_rows, held_rows = split
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
    seen = np.isin(items[held_rows], items[train_rows]) & np.isin(
        users[held_rows], users[train_rows]
    )
    return ObservationSet(tuple(ops), tuple(ys), noise_std=0.0), held_rows[seen]


def _fit_rmse(
    binned: BinnedRatings,
    obs: ObservationSet,
    scored: np.ndarray,
    weights,
    cfg: FitConfig,
    rng: RandomStream,
    init: str | FactorPair = "random",
) -> tuple[float, FactorPair]:
    """Fit the weighted model to ``obs``, unclipped, from a random init drawn
    from ``rng`` or from the starting pair ``init``; return its RMSE on the
    nonempty ``scored`` table rows and its factors."""
    problem = LowemsProblem(obs, weights, cfg.rank, gamma=cfg.gamma)
    sol = solve(problem, max_sweeps=cfg.max_sweeps, tol=cfg.tol, init=init, rng=rng)
    table = binned.table
    pred = sol.X_hat[table.item_rows[scored], table.user_cols[scored]]
    return float(np.sqrt(np.mean((pred - table.ratings[scored]) ** 2))), sol.factors


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
    folds: Sequence[tuple[np.ndarray, np.ndarray]],
    kappa_grid: Sequence[float],
    cfg: FitConfig,
    rng: RandomStream,
) -> CrossValidation:
    """Pick the noise-ratio parameter by fold-averaged validation RMSE over
    the ``(train_rows, val_rows)`` ``folds`` of :func:`make_split`.

    Each fold's training set is built once and shared by the grid, one fold
    at a time.  A fold fits its grid as one path in ascending kappa (a warm
    start along a regularization path, as in glmnet and softImpute): the
    smallest kappa's fit starts from a random init drawn from the fold's
    stream ``rng.child(f)``, and each later fit starts from the factors of
    the fit before it.  So a kappa's scores depend on the smaller kappa
    values in the grid, not on the grid's order.  A kappa whose weights
    equal the previous kappa's (every kappa when ``d = 1``) poses the same
    problem and takes that fit's score without a solve.  A fold with no
    validation rating to score is skipped before any fit
    (:class:`EmptyResultError` if every fold is), and a fit that diverges is
    skipped with a warning, the next kappa starting again from
    ``rng.child(f)``; a kappa with no surviving folds is excluded from
    selection.  Rows follow the grid's order.  Exact RMSE ties resolve to
    the smaller kappa.
    """
    kappa_grid = list(kappa_grid)
    check_settings(kappa_grid=kappa_grid)
    weights = [optimal_weights(binned.d, kappa) for kappa in kappa_grid]
    path = sorted(range(len(kappa_grid)), key=kappa_grid.__getitem__)
    scores: list[list[float]] = [[] for _ in kappa_grid]
    scoreable = False
    for f, fold in enumerate(folds):
        obs, scored = _training_set(binned, fold)
        if scored.size == 0:  # its scores would be dropped
            del obs
            continue
        scoreable = True
        init, prev = "random", None  # prev: the grid index of the fit before
        for k in path:
            if prev is not None and np.array_equal(weights[k].w, weights[prev].w):
                scores[k].append(scores[prev][-1])
                continue
            try:
                rmse, init = _fit_rmse(binned, obs, scored, weights[k], cfg, rng.child(f), init)
            except DivergenceError:
                warnings.warn(
                    f"fold {f} diverged at kappa={kappa_grid[k]}; skipping",
                    RuntimeWarning,
                    stacklevel=2,
                )
                init, prev = "random", None
                continue
            scores[k].append(rmse)
            prev = k
        del obs  # one fold's observations at a time
    if not scoreable:
        raise EmptyResultError("no CV fold has a validation rating whose user and item "
                               "both appear in its training rows")
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
    """Held-out RMSE per restart (``nan`` for a restart that diverged), plus
    how many test records were scored and how many were excluded for
    referencing unseen users/items."""

    rmse: np.ndarray
    n_used: int
    n_excluded: int

    def to_csv(self, path) -> None:
        write_csv(path, ["restart", "test_rmse"], enumerate(self.rmse.tolist()))


def evaluate_test(
    binned: BinnedRatings,
    split: tuple[np.ndarray, np.ndarray],
    kappa: float,
    cfg: FitConfig,
    rng: RandomStream,
    restarts: int = 10,
) -> TestEvaluation:
    """Refit on the training rows of the :func:`chronological_split` pair
    ``split`` with ``restarts`` random initializations, and score each fit
    on its test rows.  The training set is built once; a split with no test
    rating to score is refused before any fit.  A diverged restart scores
    ``nan`` with a warning; ``RuntimeError`` if every restart diverges."""
    check_settings(restarts=restarts)
    _, test = split
    if test.size == 0:
        raise EmptyResultError("the test split holds no ratings")
    obs, scored = _training_set(binned, split)
    if scored.size == 0:
        raise EmptyResultError("no test rating's user and item both appear in training")
    weights = optimal_weights(binned.d, kappa)
    rmse = np.full(restarts, math.nan)
    for i in range(restarts):
        try:
            rmse[i] = _fit_rmse(binned, obs, scored, weights, cfg, rng.child(i))[0]
        except DivergenceError:
            warnings.warn(f"restart {i} diverged; skipping", RuntimeWarning, stacklevel=2)
    if not np.isfinite(rmse).any():
        raise RuntimeError("evaluation failed for every restart")
    return TestEvaluation(rmse, scored.size, test.size - scored.size)


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
    check_settings(fill=fill)
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
