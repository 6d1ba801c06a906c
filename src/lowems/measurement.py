"""Linear measurement operators and the per-bin observation bundle.

Two operator families are supported:

* ``gaussian`` — dense sensing: each of the ``m`` measurements is the inner
  product of the target with an iid ``N(0, 1/m)`` matrix, so the composite
  map is a near-isometry in expectation.
* ``sampling`` — entry sampling with replacement: each measurement reads one
  matrix entry, drawn uniformly over the grid.  Indices are *not*
  deduplicated; repeated entries accumulate in the adjoint, keeping
  ``apply``/``adjoint`` exact transposes of each other.

Gaussian operators can either store their sensing matrices or regenerate
them on demand from the stream that defined them (``store=False``), trading
CPU for memory on large sweeps.  Both modes draw the matrices through the
same chunked construction, so they are bit-identical.  Each block is drawn in
pieces, one per usable CPU.  A replay operator's first full pass records the
stream position where each piece starts; later passes draw a block's pieces
on all CPUs at once, from generators restored to those positions, with the
same bits.  A pass can hand each piece to a hook on the thread that drew it,
right after it is scaled; the solver builds its design rows that way.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import RandomStream, check_matrix, check_rank, check_settings, frobenius_norm
from .dynamics import DynamicGroundTruth
from .weights import WeightVector

VARIANTS = ("gaussian", "sampling")

PieceHook = Callable[[int, np.ndarray], None]


def _block_rows(n1: int, n2: int) -> int:
    """Measurements per generation block: ~8 MB, the one block a replay pass
    holds beside its consumer's arrays; 4 MB blocks were slower."""
    return max(1, (1 << 20) // (n1 * n2))


def _workers() -> int:
    """Usable CPUs: the number of pieces each Gaussian block is drawn in."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _gaussian_blocks(
    source: RandomStream, m: int, n1: int, n2: int, out: np.ndarray | None = None,
    pieces: list | None = None, each: PieceHook | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, block)`` chunks of the sensing stack for a stream.

    This is the canonical construction for both stored and replay operators:
    one stream consumed in order, in fixed-size blocks scaled to entry
    standard deviation ``1/sqrt(m)``.  With ``out`` (an ``(m, n1, n2)``
    array) each block is drawn and scaled in place in its rows of ``out``.
    Each block is drawn in pieces, a share of its rows per usable CPU.  A pass
    without ``pieces`` draws them in turn and returns each piece's ``(lo, hi,
    position)``, per block; given those, a pass draws the pieces in parallel.
    With ``each``, ``each(row, piece)`` runs on every piece right after it is
    scaled, on the thread that drew it, with ``row`` its first stack row.
    """
    gen, recorded, k = source.generator(), [], _workers()
    scale, block = 1.0 / np.sqrt(m), _block_rows(n1, n2)

    def draw(g: np.random.Generator, lo: int, hi: int) -> None:  # rows lo:hi of chunk
        piece = chunk[lo:hi]
        g.standard_normal(out=piece)  # releases the GIL while it fills
        piece *= scale
        if each is not None:
            each(start + lo, piece)  # while the piece is still in cache

    with ThreadPoolExecutor(k) as pool:  # starts threads only for replayed pieces
        run = pool.map if k > 1 else map
        for b, start in enumerate(range(0, m, block)):
            count = min(block, m - start)
            chunk = np.empty((count, n1, n2)) if out is None else out[start : start + count]
            if pieces is None:
                recorded.append([])
                for i in range(k):
                    lo, hi = count * i // k, count * (i + 1) // k
                    recorded[-1].append((lo, hi, gen.bit_generator.state))
                    draw(gen, lo, hi)
            else:
                list(run(lambda p: draw(source.generator(p[2]), p[0], p[1]), pieces[b]))
            yield start, chunk
            del chunk  # a consumer that drops the block frees it before the next draw
    return recorded if pieces is None else pieces


@dataclass(frozen=True, eq=False)
class GaussianOperator:
    """Dense sensing operator with iid ``N(0, 1/m)`` measurement matrices.

    ``matrices`` holds the ``(m, n1, n2)`` stack when stored; in replay mode
    it is ``None`` and blocks are regenerated from ``source`` on every use.
    """

    n1: int
    n2: int
    m: int
    matrices: np.ndarray | None = field(repr=False)
    source: RandomStream | None = None

    variant = "gaussian"

    def __post_init__(self) -> None:
        check_settings(n1=self.n1, n2=self.n2, m=self.m)
        if self.matrices is None and self.source is None:
            raise ValueError("replay mode requires the defining stream")
        if self.matrices is not None:
            expected = (self.m, self.n1, self.n2)
            if self.matrices.shape != expected:
                raise ValueError(
                    f"sensing stack shape {self.matrices.shape} != {expected}"
                )

    def iter_blocks(self, each: PieceHook | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start, block)`` chunks of the sensing stack in order.
        ``each`` sees every piece of a block before the block is yielded: a
        replayed piece on the thread that drew it, a stored block inline."""
        if self.matrices is not None:
            block = _block_rows(self.n1, self.n2)
            for start in range(0, self.m, block):
                chunk = self.matrices[start : start + block]
                if each is not None:
                    each(start, chunk)
                yield start, chunk
        else:
            self.__dict__["_pieces"] = yield from _gaussian_blocks(
                self.source, self.m, self.n1, self.n2, pieces=self.__dict__.get("_pieces"),
                each=each,
            )

    def apply(self, x) -> np.ndarray:
        x = check_matrix(x, "x")
        if x.shape != (self.n1, self.n2):
            raise ValueError(f"x has shape {x.shape}, expected {(self.n1, self.n2)}")
        flat = x.ravel()
        out = np.empty(self.m)
        for start, block in self.iter_blocks():
            out[start : start + block.shape[0]] = block.reshape(block.shape[0], -1) @ flat
            del block  # free a replayed block before the next one is drawn
        return out

    def adjoint(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.m,):
            raise ValueError(f"b has shape {b.shape}, expected {(self.m,)}")
        acc = np.zeros(self.n1 * self.n2)
        for start, block in self.iter_blocks():
            acc += b[start : start + block.shape[0]] @ block.reshape(block.shape[0], -1)
            del block  # free a replayed block before the next one is drawn
        return acc.reshape(self.n1, self.n2)


@dataclass(frozen=True, eq=False)
class SamplingOperator:
    """Entry-sampling operator: measurement ``i`` reads entry
    ``(rows[i], cols[i])``, kept as read-only int64 copies.  Duplicates are
    legal and accumulate in the adjoint.  ``flat`` is each entry's position
    ``rows * n2 + cols``."""

    n1: int
    n2: int
    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray = field(init=False, repr=False)

    variant = "sampling"

    def __post_init__(self) -> None:
        check_settings(n1=self.n1, n2=self.n2)
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.size < 1:
            raise ValueError("rows/cols must be equal-length nonempty 1-D arrays")
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise ValueError(f"rows/cols must hold integers, not {rows.dtype}/{cols.dtype}")
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        if rows.min() < 0 or rows.max() >= self.n1:
            raise ValueError("row indices out of range")
        if cols.min() < 0 or cols.max() >= self.n2:
            raise ValueError("column indices out of range")
        flat = rows * self.n2 + cols
        for name, value in (("rows", rows), ("cols", cols), ("flat", flat)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.rows.size

    @property
    def p(self) -> float:
        """Nominal sampling density m / (n1 * n2)."""
        return self.m / (self.n1 * self.n2)

    def apply(self, x) -> np.ndarray:
        x = check_matrix(x, "x")
        if x.shape != (self.n1, self.n2):
            raise ValueError(f"x has shape {x.shape}, expected {(self.n1, self.n2)}")
        return x.take(self.flat)

    def adjoint(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.m,):
            raise ValueError(f"b has shape {b.shape}, expected {(self.m,)}")
        return np.bincount(self.flat, b, self.n1 * self.n2).reshape(self.n1, self.n2)


LinearOperator = GaussianOperator | SamplingOperator


def make_operator(
    variant: str,
    n1: int,
    n2: int,
    m: int,
    rng: RandomStream,
    *,
    store: bool = True,
) -> LinearOperator:
    """Draw a fresh measurement operator of the requested variant.

    ``store=False`` is honored only for the Gaussian variant and switches it
    to replay mode (sensing matrices regenerated from ``rng`` on each use).
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    check_settings(n1=n1, n2=n2, m=m)
    if variant == "gaussian":
        if store:
            stack = np.empty((m, n1, n2))
            for _ in _gaussian_blocks(rng, m, n1, n2, out=stack):
                pass
            return GaussianOperator(n1, n2, m, matrices=stack, source=rng)
        return GaussianOperator(n1, n2, m, matrices=None, source=rng)
    gen = rng.generator()
    rows = gen.integers(0, n1, size=m)
    cols = gen.integers(0, n2, size=m)
    return SamplingOperator(n1, n2, rows, cols)


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """Per-bin operators and observation vectors for one recovery problem.

    All operators share dimensions and variant; each ``y_t`` must be finite
    and is stored as a read-only copy.  Bin sizes may differ (the ratings
    pipeline produces uneven bins); ``observe`` always yields a common count.
    """

    ops: tuple[LinearOperator, ...]
    y: tuple[np.ndarray, ...]
    noise_std: float
    truth: DynamicGroundTruth | None = None

    def __post_init__(self) -> None:
        if not self.ops or len(self.ops) != len(self.y):
            raise ValueError("ops and y must be nonempty and equal length")
        first, ys = self.ops[0], tuple(np.array(v, dtype=float) for v in self.y)
        for t, (op, y_t) in enumerate(zip(self.ops, ys)):
            if (op.n1, op.n2, op.variant) != (first.n1, first.n2, first.variant):
                raise ValueError("all operators must share dimensions and variant")
            if y_t.shape != (op.m,):
                raise ValueError("each y_t must have length ops[t].m")
            if not np.all(np.isfinite(y_t)):
                raise ValueError(f"observations of time bin {t} are not all finite")
            y_t.setflags(write=False)
        check_settings(noise_std=self.noise_std)
        if self.truth is not None:
            if (self.truth.n1, self.truth.n2) != (first.n1, first.n2):
                raise ValueError("truth dimensions do not match operators")
            if self.truth.d != len(self.ops):
                raise ValueError("truth bin count does not match operators")
        object.__setattr__(self, "y", ys)

    @property
    def d(self) -> int:
        return len(self.ops)

    @property
    def n1(self) -> int:
        return self.ops[0].n1

    @property
    def n2(self) -> int:
        return self.ops[0].n2

    @property
    def variant(self) -> str:
        return self.ops[0].variant


def observe(
    ops: Sequence[LinearOperator],
    truth: DynamicGroundTruth,
    noise_std: float,
    rng: RandomStream,
) -> ObservationSet:
    """Measure each planted matrix through its bin's operator, adding iid
    ``N(0, noise_std**2)`` observation noise from per-bin substreams."""
    ops = tuple(ops)
    if len(ops) != truth.d:
        raise ValueError(f"need {truth.d} operators, got {len(ops)}")
    check_settings(noise_std=noise_std)
    sizes = {op.m for op in ops}
    if len(sizes) != 1:
        raise ValueError("observe requires a common per-bin measurement count")
    y = []
    for t, op in enumerate(ops):
        clean = op.apply(truth.X_seq[t])
        noise = rng.child(t).generator().standard_normal(op.m)
        y.append(clean + noise_std * noise)
    return ObservationSet(ops, tuple(y), float(noise_std), truth=truth)


def _live_bins(w, *columns) -> list:
    """``(w_t, *column_t)`` per bin, skipping bins of exactly zero weight so
    their data cannot reach any result, even at floating-point level."""
    return [bin_ for bin_ in zip(w, *columns) if bin_[0] != 0.0]


def isometry_gap(ops: Sequence[LinearOperator], w: WeightVector, x) -> float:
    """Deviation ``|sum_t w_t * ||A_t(x)||^2 / ||x||_F^2 - 1|`` of the
    weighted composite operator from an isometry on ``x``."""
    x = check_matrix(x, "x")
    norm_sq = frobenius_norm(x) ** 2
    if norm_sq == 0.0:
        raise ValueError("x must be nonzero")
    if len(w) != len(ops):
        raise ValueError("weight length must match operator count")
    total = 0.0
    for w_t, op in _live_bins(w.w, ops):
        v = op.apply(x)
        total += w_t * float(v @ v)
    return abs(total / norm_sq - 1.0)


def estimate_rip(
    ops: Sequence[LinearOperator],
    w: WeightVector,
    rank: int,
    trials: int,
    rng: RandomStream,
) -> float:
    """Empirical restricted-isometry probe for the weighted composite map.

    Draws ``trials`` random rank-``rank`` matrices (products of iid Gaussian
    factors, normalized to unit Frobenius norm) and reports the worst
    :func:`isometry_gap` observed.  A small value supports near-isometry on
    the sampled low-rank directions; it is a probe, not a certified constant.
    """
    ops = tuple(ops)
    if not ops:
        raise ValueError("the operator list is empty")
    check_settings(trials=trials)
    n1, n2 = ops[0].n1, ops[0].n2
    check_rank(rank, n1, n2)
    worst = 0.0
    for i in range(trials):
        gen = rng.child(i).generator()
        left = gen.standard_normal((n1, rank))
        right = gen.standard_normal((n2, rank))
        x = left @ right.T
        x /= frobenius_norm(x)
        worst = max(worst, isometry_gap(ops, w, x))
    return worst
