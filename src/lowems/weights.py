"""Bin-weighting schemes for the weighted least-squares estimator.

Observations arrive in ``d`` time bins; the estimator minimizes a weighted
sum of per-bin squared residuals with weights on the probability simplex.
The variance-minimizing weights have a closed form driven by a single
nonnegative parameter ``kappa``, the ratio of drift variance to measurement
noise variance: stale bins are discounted by how much the target has drifted
since they were collected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative per-bin weights summing to one.

    ``kappa`` records the noise-ratio parameter the weights were derived
    from, when there is one: 0 for equal weights, ``math.inf`` for
    last-bin-only, ``None`` for explicitly supplied weights.
    """

    w: np.ndarray
    kappa: float | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-D vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < -1e-15):
            raise ValueError("weights must be nonnegative")
        w = np.maximum(w, 0.0)
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if self.kappa is not None and not self.kappa >= 0:
            raise ValueError("kappa must be nonnegative")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def d(self) -> int:
        return self.w.size

    def __len__(self) -> int:
        return self.w.size


def lag_profile(d: int) -> np.ndarray:
    """Number of drift steps separating each bin from the last one:
    ``d - t`` for bins ``t = 1..d``."""
    return np.arange(d - 1, -1, -1, dtype=float)


def _check_d_kappa(d: int, kappa: float) -> float:
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError("d must be a positive integer")
    kappa = float(kappa)
    if math.isnan(kappa) or kappa < 0:
        raise ValueError("kappa must be nonnegative (or +inf)")
    return kappa


def optimal_weights(d: int, kappa: float) -> WeightVector:
    """Variance-minimizing bin weights for noise ratio ``kappa``.

    Closed form: ``w_t`` proportional to ``1 / (1 + (d - t) * kappa)``,
    normalized to the simplex.  ``kappa = 0`` gives equal weights;
    ``kappa = inf`` collapses onto the last bin.
    """
    kappa = _check_d_kappa(d, kappa)
    if math.isinf(kappa):
        return baseline_weights(d, "last_only")
    raw = 1.0 / (1.0 + lag_profile(d) * kappa)
    return WeightVector(raw / raw.sum(), kappa=kappa)


def baseline_weights(d: int, kind: str) -> WeightVector:
    """Reference weightings: ``last_only`` or ``equal``."""
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise ValueError("d must be a positive integer")
    if kind == "last_only":
        w = np.zeros(d)
        w[-1] = 1.0
        return WeightVector(w, kappa=math.inf)
    if kind == "equal":
        return WeightVector(np.full(d, 1.0 / d), kappa=0.0)
    raise ValueError(f"unknown baseline kind {kind!r}")


def kappa_for(noise_std: float, drift_std: float) -> float:
    """Noise ratio ``drift_std**2 / noise_std**2`` with the degenerate cases
    pinned: no drift means 0 (equal weights are optimal); drift with
    noiseless measurements means +inf (only the last bin is unbiased)."""
    if noise_std < 0 or drift_std < 0:
        raise ValueError("standard deviations must be nonnegative")
    if drift_std == 0:
        return 0.0
    if noise_std == 0:
        return math.inf
    return drift_std**2 / noise_std**2
