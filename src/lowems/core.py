"""Primitives shared across the package: keyed random streams, the rules
of numeric settings (:data:`RULES`), small dense-matrix helpers, and the
package's one CSV table writer.

Reproducibility contract
------------------------
Every stochastic routine in this package receives a :class:`RandomStream`
instead of touching global RNG state.  A stream is an immutable
``(seed, stream)`` pair of 64-bit integers feeding a counter-based Philox4x64
bit generator keyed by exactly that pair, so the same pair always replays the
same variates on any platform.  Independent substreams are derived with
``child(k)``, which mixes the index into the stream id with a splitmix64-style
finalizer; no generator state is ever shared or advanced between call sites.
Philox is counter-based, so ``generator(position)`` restored to a position
(a ``bit_generator.state``) recorded from a generator of the same stream draws
exactly the variates that generator went on to draw.

CSV dialect
-----------
Every CSV table the package writes goes through :func:`write_csv`: the csv
module's default dialect (comma-separated, CRLF record ends) with float
cells as ``%.17g`` (:data:`FLOAT_FORMAT`), which parses back to the exact
float64 value.  Dense matrices are written by ``numpy.savetxt`` with the
same format.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1
FLOAT_FORMAT = "%.17g"


@dataclass(frozen=True)
class Range:
    """The valid values of a numeric setting: ``value in range`` (never true
    for NaN), and ``str(range)`` words the rule for an error message."""

    test: Callable[[float], bool]
    text: str

    def __contains__(self, value) -> bool:
        return bool(self.test(value))

    def __str__(self) -> str:
        return self.text


COUNT = Range(lambda v: v >= 1, "at least 1")
NONNEGATIVE = Range(lambda v: v >= 0, "nonnegative")
DENSITIES = Range(lambda p: 0 < p <= 1, "in (0, 1]")
TEST_FRACTIONS = Range(lambda f: 0 <= f < 1, "in [0, 1)")

# Every numeric setting's rule, by name, stated once: the library's checks
# read it through check_settings, and the command line's options by their
# destinations.  A grid's rule holds for each of its entries.
RULES = {
    "seed": Range(lambda v: 0 <= v < 2**64, "in [0, 2**64)"),
    "max_entry": Range(lambda v: v > 0, "positive"),
    "p_grid": DENSITIES, "fill": DENSITIES, "test_frac": TEST_FRACTIONS,
    **dict.fromkeys(("n1", "n2", "rank", "d", "m", "m0", "m_total", "trials", "max_sweeps",
                     "threads", "folds", "restarts", "min_user_ratings",
                     "min_item_ratings"), COUNT),
    **dict.fromkeys(("noise_std", "drift_std", "drift_grid", "gamma", "tol", "kappa",
                     "kappa_grid", "success_threshold"), NONNEGATIVE),
}


def check_settings(**values) -> None:
    """Refuse a setting, or any entry of a tuple or list of them, outside its
    rule in :data:`RULES`, and an empty tuple or list; ``None`` means not
    given."""
    for name, value in values.items():
        rule = RULES[name]
        entries = value if isinstance(value, (tuple, list)) else (value,)
        if not entries:
            raise ValueError(f"{name} must be nonempty")
        for v in entries:
            if v is not None and v not in rule:
                raise ValueError(f"{name} must be {rule}, got {v!r}")


def _mix64(a: int, b: int) -> int:
    """Stable 64-bit hash of an integer pair (splitmix64 finalizer)."""
    x = (a * 0x9E3779B97F4A7C15 + b + 0xD1B54A32D192ED03) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


@dataclass(frozen=True)
class RandomStream:
    """Immutable handle for one reproducible stream of random variates.

    ``seed`` identifies the experiment, ``stream`` the substream within it.
    Two handles with the same pair produce identical draws; handles differing
    in either component are statistically independent (distinct Philox keys).
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer")
            if int(value) not in RULES["seed"]:
                raise ValueError(f"{name} must fit in an unsigned 64-bit int")
            object.__setattr__(self, name, int(value))

    def generator(self, position: dict | None = None) -> np.random.Generator:
        """Fresh generator at the start of this stream, or at a recorded ``position``."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        if position is not None:
            gen.bit_generator.state = position
        return gen

    def child(self, index: int) -> "RandomStream":
        """Derive the ``index``-th substream of this stream."""
        if not isinstance(index, (int, np.integer)) or index < 0:
            raise ValueError("child index must be a nonnegative integer")
        return RandomStream(self.seed, _mix64(self.stream, int(index)))


def check_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate a dense real matrix (2-D, nonempty, finite) and return it
    as a float64 array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_rank(rank: int, n1: int, n2: int) -> None:
    """Reject a rank outside ``[1, min(n1, n2)]``: below 1 by its rule in
    :data:`RULES`, above the smaller dimension with the package's one message."""
    check_settings(rank=rank)
    if rank > min(n1, n2):
        raise ValueError(f"rank must be in [1, {min(n1, n2)}], got {rank}")


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries, summed in C order: the
    operations of ``np.linalg.norm(a.ravel())`` without its wrapper."""
    x = np.asarray(m, dtype=float).ravel()
    return math.sqrt(float(x @ x))


def top_r_svd(m, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best rank-``rank`` factorization ``(U, s, V)`` of a matrix.

    ``U`` is ``n1 x rank``, ``s`` the leading singular values, ``V`` is
    ``n2 x rank`` (so the approximation is ``U @ diag(s) @ V.T``).  Singular
    values below ``1e-12`` times the largest are zeroed.  LAPACK
    non-convergence surfaces as ``numpy.linalg.LinAlgError``.
    """
    a = check_matrix(m, "matrix")
    check_rank(rank, *a.shape)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s = s.copy()
    if s[0] > 0.0:
        s[s < 1e-12 * s[0]] = 0.0
    return u[:, :rank], s[:rank], vt[:rank].T


def write_csv(path, header, rows) -> None:
    """Write a header and rows to ``path`` as CSV.

    Float cells (numpy float64 included) are formatted with
    :data:`FLOAT_FORMAT`; every other cell goes to the csv writer unchanged.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [FLOAT_FORMAT % c if isinstance(c, float) else c for c in row]
            for row in rows
        )
