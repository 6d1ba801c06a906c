"""Locally weighted matrix smoothing (LOWEMS): recovery of a slowly drifting
low-rank matrix from incomplete noisy observations, with variance-optimal
time weighting."""

from .bundles import load_bundle, save_bundle
from .core import RandomStream, frobenius_norm, top_r_svd
from .dynamics import DynamicGroundTruth, generate_truth, random_orthonormal
from .experiments import (
    DiagnosticsRow,
    MinSampleRow,
    SweepConfig,
    SweepResult,
    SweepRow,
    bound_shape,
    default_p_grid,
    phi_prime,
    relative_error,
    run_error_sweep,
    run_sample_sweep,
    strategy_weights,
    theorem_diagnostics,
)
from .measurement import (
    GaussianOperator,
    ObservationSet,
    SamplingOperator,
    estimate_rip,
    isometry_gap,
    make_operator,
    observe,
)
from .solver import (
    DivergenceError,
    FactorPair,
    LowemsProblem,
    RankDeficiencyWarning,
    Solution,
    init_factors,
    objective,
    solve,
    update_U,
    update_V,
    weighted_misfit,
)
from .weights import (
    WeightVector,
    baseline_weights,
    kappa_for,
    optimal_weights,
)

__version__ = "0.1.0"

__all__ = [
    "DiagnosticsRow",
    "DivergenceError",
    "DynamicGroundTruth",
    "FactorPair",
    "GaussianOperator",
    "LowemsProblem",
    "MinSampleRow",
    "ObservationSet",
    "RandomStream",
    "RankDeficiencyWarning",
    "SamplingOperator",
    "Solution",
    "SweepConfig",
    "SweepResult",
    "SweepRow",
    "WeightVector",
    "baseline_weights",
    "bound_shape",
    "default_p_grid",
    "estimate_rip",
    "frobenius_norm",
    "generate_truth",
    "init_factors",
    "isometry_gap",
    "kappa_for",
    "load_bundle",
    "make_operator",
    "objective",
    "observe",
    "optimal_weights",
    "phi_prime",
    "random_orthonormal",
    "relative_error",
    "run_error_sweep",
    "run_sample_sweep",
    "save_bundle",
    "solve",
    "strategy_weights",
    "theorem_diagnostics",
    "top_r_svd",
    "update_U",
    "update_V",
    "weighted_misfit",
]
