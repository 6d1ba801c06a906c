import csv
import math

import numpy as np
import pytest

from lowems.experiments import (
    DiagnosticsRow,
    SweepConfig,
    bound_shape,
    default_p_grid,
    phi_prime,
    relative_error,
    run_error_sweep,
    run_sample_sweep,
    strategy_weights,
    theorem_diagnostics,
)
from lowems.weights import WeightVector, baseline_weights, optimal_weights


def _tiny_error_cfg(**overrides):
    base = dict(
        n1=12, n2=10, rank=2, d=2, noise_std=0.05,
        drift_grid=(1e-3, 0.5), seed=99, m0=84, trials=3,
        variant="sampling", max_sweeps=120, tol=1e-9,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRelativeError:
    def test_hand_value(self):
        x = np.array([[3.0, 0.0], [0.0, 4.0]])
        x_hat = np.array([[3.0, 1.0], [2.0, 4.0]])
        assert relative_error(x_hat, x) == pytest.approx(5.0 / 25.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones((2, 2)), np.ones((2, 3)))


class TestStrategyWeights:
    def test_strategies_map_to_expected_weights(self):
        np.testing.assert_array_equal(
            strategy_weights("last_only", 3, 0.1, 0.2).w,
            baseline_weights(3, "last_only").w,
        )
        np.testing.assert_array_equal(
            strategy_weights("equal", 3, 0.1, 0.2).w,
            baseline_weights(3, "equal").w,
        )
        np.testing.assert_array_equal(
            strategy_weights("optimal", 3, 0.1, 0.2).w,
            optimal_weights(3, 4.0).w,
        )

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            strategy_weights("newest", 3, 0.1, 0.2)


class TestErrorSweep:
    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_rows_cover_the_grid(self):
        cfg = _tiny_error_cfg()
        res = run_error_sweep(cfg)
        assert res.mode == "error"
        assert len(res.rows) == len(cfg.drift_grid) * len(cfg.strategies)
        for row in res.rows:
            assert row.metric == "mean_rel_error"
            assert row.trials == cfg.trials
            assert np.isfinite(row.value) and row.value >= 0
            assert row.stddev >= 0

    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_deterministic_and_thread_invariant(self):
        cfg = _tiny_error_cfg()
        a = run_error_sweep(cfg)
        b = run_error_sweep(cfg)
        c = run_error_sweep(_tiny_error_cfg(threads=3))
        for x, y, z in zip(a.rows, b.rows, c.rows):
            assert x == y == z

    def test_zero_drift_makes_strategies_coincide(self):
        cfg = _tiny_error_cfg(drift_grid=(0.0,), strategies=("equal", "optimal"))
        res = run_error_sweep(cfg)
        by_strategy = {row.strategy: row.value for row in res.rows}
        assert by_strategy["equal"] == pytest.approx(by_strategy["optimal"], rel=1e-10)

    def test_optimal_dominates_baselines(self):
        cfg = _tiny_error_cfg(
            n1=30, n2=20, rank=2, d=3, m0=420, trials=10,
            drift_grid=(1e-3, 0.3, 1.0), noise_std=0.05,
        )
        res = run_error_sweep(cfg)
        table = {(row.drift_std, row.strategy): row.value for row in res.rows}
        for drift in cfg.drift_grid:
            best_baseline = min(
                table[(drift, "last_only")], table[(drift, "equal")]
            )
            assert table[(drift, "optimal")] <= 1.15 * best_baseline

    def test_equal_weights_degrade_with_drift(self):
        cfg = _tiny_error_cfg(
            n1=30, n2=20, rank=2, d=3, m0=420, trials=10,
            drift_grid=(1e-3, 0.3, 1.0), strategies=("equal",),
        )
        values = [row.value for row in run_error_sweep(cfg).rows]
        # nondecreasing along the drift grid, with one-grid-step slack:
        # each point must not drop below the running maximum one step back
        for i in range(2, len(values)):
            assert values[i] >= max(values[: i - 1])

    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_every_solve_keeps_its_trace(self):
        cfg = _tiny_error_cfg(trials=2, drift_grid=(0.1,))
        res = run_error_sweep(cfg)
        assert len(res.traces) == 2 * len(cfg.strategies)
        for trace in res.traces:
            assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_error_sweep(_tiny_error_cfg(m0=None))
        with pytest.raises(ValueError):
            run_error_sweep(_tiny_error_cfg(drift_grid=()))
        with pytest.raises(ValueError):
            run_error_sweep(_tiny_error_cfg(strategies=("fastest",)))
        with pytest.raises(ValueError):
            run_error_sweep(_tiny_error_cfg(trials=0))
        # refused when the config is built, before any cell runs
        for bad, message in [
            ({"variant": "foo"}, "variant must be one of"),
            ({"init": "newton"}, "unknown init mode 'newton'"),
            ({"gamma": -1.0}, "gamma must be nonnegative"),
            ({"max_sweeps": 0}, "max_sweeps must be positive"),
            ({"strategies": ("optimal", "optimal")}, "strategies must not repeat"),
        ]:
            with pytest.raises(ValueError, match=message):
                _tiny_error_cfg(**bad)

    def test_csv_round_trip(self, tmp_path):
        cfg = _tiny_error_cfg(trials=2, drift_grid=(0.25,), strategies=("optimal",))
        res = run_error_sweep(cfg)
        out = tmp_path / "errors.csv"
        res.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma2", "strategy", "metric", "value", "stddev", "trials"]
        assert len(rows) == 2
        drift, strategy, metric, value, stddev, trials = rows[1]
        assert float(drift) == 0.25
        assert strategy == "optimal" and metric == "mean_rel_error"
        assert float(value) == res.rows[0].value  # %.17g survives the round trip
        assert int(trials) == 2


class TestSampleSweep:
    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_reports_first_sufficient_density(self):
        cfg = _tiny_error_cfg(
            m0=None, trials=3, drift_grid=(1e-3,), strategies=("optimal",),
            p_grid=(0.1, 0.3, 0.6, 0.9), noise_std=0.0, success_threshold=0.04,
        )
        res = run_sample_sweep(cfg)
        assert res.mode == "samples"
        (row,) = res.rows
        assert row.min_p in cfg.p_grid

    def test_unreachable_threshold_reports_none(self, tmp_path):
        cfg = _tiny_error_cfg(
            m0=None, trials=2, drift_grid=(0.1,), strategies=("equal",),
            p_grid=(0.2, 0.5), noise_std=0.2, success_threshold=1e-12,
        )
        res = run_sample_sweep(cfg)
        (row,) = res.rows
        assert row.min_p is None
        out = tmp_path / "samples.csv"
        res.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sigma2", "strategy", "min_p"]
        assert rows[1][2] == "not_achieved"

    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_deterministic_and_thread_invariant(self):
        cfg = _tiny_error_cfg(
            m0=None, trials=2, p_grid=(0.2, 0.5, 0.9), noise_std=0.0,
        )
        a = run_sample_sweep(cfg)
        b = run_sample_sweep(
            _tiny_error_cfg(
                m0=None, trials=2, p_grid=(0.2, 0.5, 0.9), noise_std=0.0, threads=4
            )
        )
        assert [r for r in a.rows] == [r for r in b.rows]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            run_sample_sweep(_tiny_error_cfg(m0=None, p_grid=(0.5, 0.2)))
        with pytest.raises(ValueError):
            run_sample_sweep(_tiny_error_cfg(m0=None, p_grid=(0.0, 0.5)))
        with pytest.raises(ValueError):
            run_sample_sweep(_tiny_error_cfg(m0=None, p_grid=(0.5, 1.5)))

    def test_default_grid(self):
        grid = default_p_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.02)
        assert grid[-1] == pytest.approx(1.0)
        assert list(grid) == sorted(grid)


class TestBoundShape:
    def test_halves_when_budget_doubles(self):
        w = optimal_weights(3, 2.0)
        a = bound_shape(w, 0.1, 0.3, n_max=40, rank=3, m_total=2000)
        b = bound_shape(w, 0.1, 0.3, n_max=40, rank=3, m_total=4000)
        assert a == pytest.approx(2.0 * b, rel=1e-15)

    def test_last_only_reduces_to_static_shape(self):
        w = baseline_weights(4, "last_only")
        got = bound_shape(w, 0.2, 5.0, n_max=30, rank=2, m_total=1000)
        assert got == pytest.approx(0.2**2 * 30 * 2 / 1000, rel=1e-15)

    def test_hand_value(self):
        w = WeightVector(np.array([0.5, 0.5]))
        # noise part: 0.01 * 0.5; drift part: 0.04 * (1 * 0.25)
        expected = (0.01 * 0.5 + 0.04 * 0.25) * 20 * 2 / 100
        got = bound_shape(w, 0.1, 0.2, n_max=20, rank=2, m_total=100)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_shape(optimal_weights(2, 1.0), 0.1, 0.1, 10, 2, 0)


class TestPhiPrime:
    def test_hand_value_no_drift(self):
        w = WeightVector(np.array([0.5, 0.5]))
        # drift 0: numerator max(w^2) sigma1^2, denominator sum(w^2) sigma1^2
        assert phi_prime(w, 1.0, 0.0, rank=3, n1=10) == pytest.approx(0.5)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            phi_prime(optimal_weights(2, 1.0), 0.0, 0.0, rank=2, n1=10)


class TestTheoremDiagnostics:
    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_rows_align_with_sweep(self):
        cfg = _tiny_error_cfg(trials=2)
        res = run_error_sweep(cfg)
        diag = theorem_diagnostics(cfg, res)
        assert len(diag) == len(res.rows)
        for d_row, s_row in zip(diag, res.rows):
            assert isinstance(d_row, DiagnosticsRow)
            assert d_row.strategy == s_row.strategy
            assert d_row.empirical_error == s_row.value
            assert d_row.bound_value > 0
            assert d_row.ratio == pytest.approx(s_row.value / d_row.bound_value)

    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_requires_error_mode(self):
        cfg = _tiny_error_cfg(
            m0=None, trials=2, drift_grid=(1e-3,), strategies=("optimal",),
            p_grid=(0.5, 0.9), noise_std=0.0,
        )
        res = run_sample_sweep(cfg)
        with pytest.raises(ValueError):
            theorem_diagnostics(cfg, res)


@pytest.fixture(scope="module")
def errors_by_budget():
    out = {}
    for m0 in (2000, 4000):
        cfg = SweepConfig(
            n1=60, n2=65, rank=10, d=1, noise_std=0.05,
            drift_grid=(0.0,), seed=4242, m0=m0,
            strategies=("optimal",), trials=5, variant="gaussian",
            max_sweeps=300, tol=1e-9,
        )
        res = run_error_sweep(cfg)
        out[m0] = (cfg, res)
    return out


class TestTwoPointBudgetScaling:
    """Doubling the per-bin sensing budget near the information limit should
    shrink the measured error by roughly the predicted factor of two."""

    def test_error_ratio_tracks_predicted_doubling(self, errors_by_budget):
        lo = errors_by_budget[2000][1].rows[0].value
        hi = errors_by_budget[4000][1].rows[0].value
        assert 1.5 <= lo / hi <= 3.0

    def test_bound_ratio_is_exactly_two(self, errors_by_budget):
        diag_lo = theorem_diagnostics(*errors_by_budget[2000])[0]
        diag_hi = theorem_diagnostics(*errors_by_budget[4000])[0]
        assert diag_lo.bound_value == pytest.approx(2.0 * diag_hi.bound_value)
        assert diag_lo.ratio > 0 and np.isfinite(diag_lo.ratio)
