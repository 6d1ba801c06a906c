"""Ground-truth generator for a slowly drifting low-rank matrix.

The column space is held fixed while the coefficient factor performs a
Gaussian random walk: ``X_t = U @ V_t.T`` with ``U`` orthonormal,
``V_1`` standard normal, and ``V_t = V_{t-1} + drift_std * E_t`` for iid
standard-normal increments ``E_t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RandomStream, check_rank, check_settings


@dataclass(frozen=True, eq=False)
class DynamicGroundTruth:
    """A planted sequence of low-rank matrices sharing one column space.

    ``U`` is ``n1 x rank`` with orthonormal columns, ``V_seq`` holds the
    ``d`` coefficient factors (``n2 x rank`` each), ``X_seq`` the products
    ``U @ V_t.T`` derived from them.  ``drift_std`` is the per-entry standard
    deviation of the random-walk increments that produced ``V_seq``.
    """

    U: np.ndarray
    V_seq: tuple[np.ndarray, ...] = field(repr=False)
    drift_std: float
    X_seq: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.U.ndim != 2:
            raise ValueError("U must be 2-D")
        if not self.V_seq:
            raise ValueError("V_seq must be nonempty")
        check_settings(drift_std=self.drift_std)
        object.__setattr__(self, "X_seq", tuple(self.U @ v.T for v in self.V_seq))

    @property
    def n1(self) -> int:
        return self.U.shape[0]

    @property
    def n2(self) -> int:
        return self.V_seq[0].shape[0]

    @property
    def rank(self) -> int:
        return self.U.shape[1]

    @property
    def d(self) -> int:
        return len(self.V_seq)


def random_orthonormal(n: int, rank: int, rng: RandomStream) -> np.ndarray:
    """Haar-ish random ``n x rank`` matrix with orthonormal columns.

    QR of an iid standard-normal matrix, with column signs fixed so the
    factorization is canonical (diagonal of R nonnegative).
    """
    check_rank(rank, n, n)
    g = rng.generator().standard_normal((n, rank))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def generate_truth(
    n1: int,
    n2: int,
    rank: int,
    d: int,
    drift_std: float,
    rng: RandomStream,
) -> DynamicGroundTruth:
    """Draw a planted drifting sequence of ``d`` rank-``rank`` matrices.

    The first coefficient factor has iid standard-normal entries; each later
    one adds iid ``N(0, drift_std**2)`` increments.  Distinct substreams feed
    U, the initial factor, and every increment, so any prefix of the sequence
    is reproducible independently of ``d``.
    """
    check_settings(n1=n1, n2=n2, d=d, drift_std=drift_std)
    check_rank(rank, n1, n2)

    u = random_orthonormal(n1, rank, rng.child(0))
    v = rng.child(1).generator().standard_normal((n2, rank))
    v_seq = [v]
    for t in range(1, d):
        step = rng.child(1 + t).generator().standard_normal((n2, rank))
        v_seq.append(v_seq[-1] + drift_std * step)
    return DynamicGroundTruth(u, tuple(v_seq), float(drift_std))
