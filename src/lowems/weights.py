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

from .core import check_settings


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative per-bin weights summing to one."""

    w: np.ndarray

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
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return self.w.size


def lag_profile(d: int) -> np.ndarray:
    """Number of drift steps separating each bin from the last one:
    ``d - t`` for bins ``t = 1..d``."""
    return np.arange(d - 1, -1, -1, dtype=float)


def _check_d_kappa(d: int, kappa: float) -> float:
    if not isinstance(d, (int, np.integer)):
        raise ValueError(f"d must be an integer, got {d!r}")
    kappa = float(kappa)
    check_settings(d=d, kappa=kappa)
    return kappa


def optimal_weights(d: int, kappa: float) -> WeightVector:
    """Variance-minimizing bin weights for noise ratio ``kappa``.

    Closed form: ``w_t`` proportional to ``1 / (1 + (d - t) * kappa)``,
    normalized to the simplex.  ``kappa = 0`` gives equal weights;
    ``kappa = inf`` collapses onto the last bin.
    """
    kappa = _check_d_kappa(d, kappa)
    lag = lag_profile(d)
    raw = (lag == 0) * 1.0 if math.isinf(kappa) else 1.0 / (1.0 + lag * kappa)
    return WeightVector(raw / raw.sum())


_BASELINE_KAPPA = {"last_only": math.inf, "equal": 0.0}


def baseline_weights(d: int, kind: str) -> WeightVector:
    """Reference weightings, the endpoints of the ``kappa`` family:
    ``equal`` (``kappa = 0``) and ``last_only`` (``kappa = inf``)."""
    _check_d_kappa(d, 0.0)  # a bad d is reported before a bad kind
    if kind not in _BASELINE_KAPPA:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return optimal_weights(d, _BASELINE_KAPPA[kind])


def kappa_for(noise_std: float, drift_std: float) -> float:
    """Noise ratio ``drift_std**2 / noise_std**2`` with the degenerate cases
    pinned: no drift means 0 (equal weights are optimal); drift with
    noiseless measurements means +inf (only the last bin is unbiased)."""
    check_settings(noise_std=noise_std, drift_std=drift_std)
    if drift_std == 0:
        return 0.0
    if noise_std == 0:
        return math.inf
    return drift_std**2 / noise_std**2
