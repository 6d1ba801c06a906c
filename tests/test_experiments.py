import csv
import dataclasses
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import numpy as np
import pytest

from lowems import experiments
from lowems.experiments import (
    DiagnosticsRow,
    SweepConfig,
    _aggregate,
    bound_shape,
    default_p_grid,
    phi_prime,
    relative_error,
    run_error_sweep,
    run_sample_sweep,
    strategy_weights,
    theorem_diagnostics,
)
from lowems.solver import DivergenceError, RankDeficiencyWarning
from lowems.weights import WeightVector, baseline_weights, optimal_weights


def _tiny_error_cfg(**overrides):
    base = dict(
        n1=12, n2=10, rank=2, d=2, noise_std=0.05,
        drift_grid=(1e-3, 0.5), seed=99, m0=84, trials=3,
        variant="sampling", max_sweeps=120, tol=1e-9,
    )
    base.update(overrides)
    return SweepConfig(**base)


@pytest.fixture
def pooled(monkeypatch):
    """Sweeps of any size see three usable CPUs, so ``threads`` 2 and 3
    start that many workers on any machine with ``fork``."""
    monkeypatch.setattr(experiments, "_workers", lambda: 3)
    monkeypatch.setattr(experiments, "_POOL_MIN_ENTRIES", 0)


def _assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_sweeps(results):
    """Equal rows and bitwise-equal traces, in order; no worker left."""
    first, *others = results
    assert first.traces
    for res in others:
        assert res.rows == first.rows
        assert [t.tobytes() for t in res.traces] == [t.tobytes() for t in first.traces]
    _assert_no_child()


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
        assert [(row.drift_std, row.strategy) for row in res.rows] == [
            (drift, s) for drift in cfg.drift_grid for s in cfg.strategies
        ]
        for row in res.rows:
            assert row.trials == cfg.trials
            assert np.isfinite(row.value) and row.value >= 0
            assert row.stddev >= 0

    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    @pytest.mark.usefixtures("pooled")
    def test_deterministic_and_thread_invariant(self):
        for variant in ("sampling", "gaussian"):
            _assert_same_sweeps([
                run_error_sweep(_tiny_error_cfg(variant=variant, threads=threads))
                for threads in (1, 1, 2, 3)
            ])

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
            ({"max_sweeps": 0}, "max_sweeps must be at least 1"),
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


def test_aggregate_leaves_out_diverged_trials():
    assert _aggregate([1.0, None, 3.0]) == (2.0, math.sqrt(2.0), 2)
    assert _aggregate([4.0]) == (4.0, 0.0, 1)
    mean, std, n = _aggregate([None, None])
    assert math.isnan(mean) and math.isnan(std) and n == 0


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
    @pytest.mark.usefixtures("pooled")
    def test_deterministic_and_thread_invariant(self):
        for variant in ("sampling", "gaussian"):
            _assert_same_sweeps([
                run_sample_sweep(_tiny_error_cfg(
                    m0=None, trials=2, p_grid=(0.2, 0.5, 0.9), noise_std=0.0,
                    variant=variant, threads=threads,
                ))
                for threads in (1, 2, 3)
            ])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            run_sample_sweep(_tiny_error_cfg(m0=None, p_grid=(0.5, 0.2)))
        with pytest.raises(ValueError):
            run_sample_sweep(_tiny_error_cfg(m0=None, p_grid=(0.0, 0.5)))
        with pytest.raises(ValueError):
            run_sample_sweep(_tiny_error_cfg(m0=None, p_grid=(0.5, 1.5)))

    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_each_lane_fits_only_its_strategy(self, monkeypatch):
        fitted, solve = [], experiments.solve

        def counting(problem, **kwargs):
            fitted.append(problem.weights.w.tolist())
            return solve(problem, **kwargs)

        monkeypatch.setattr(experiments, "solve", counting)
        cfg = _tiny_error_cfg(
            m0=None, trials=2, drift_grid=(0.1,), strategies=("equal", "last_only"),
            p_grid=(0.9,), success_threshold=1e9,  # no lane decides after one trial
        )
        run_sample_sweep(cfg)
        # one solve per (lane, trial): equal weights twice, then last-only twice
        assert fitted == [[0.5, 0.5]] * 2 + [[0.0, 1.0]] * 2

    @staticmethod
    def _scripted(monkeypatch, errors):
        """Replace each solve by the next of ``errors`` (``None``: the solve
        diverges) and return the per-bin budget of each solve, in order."""
        solved, script = [], iter(errors)

        def scripted_solve(problem, **kwargs):
            solved.append(problem.obs.ops[0].m)
            error = next(script)
            if error is None:
                raise DivergenceError("scripted", None, [])
            return SimpleNamespace(X_hat=error, objective_trace=np.zeros(1))

        monkeypatch.setattr(experiments, "solve", scripted_solve)
        monkeypatch.setattr(experiments, "relative_error", lambda x_hat, x: x_hat)
        return solved

    @staticmethod
    def _scripted_cfg(trials=4, **overrides):
        return _tiny_error_cfg(
            m0=None, trials=trials, drift_grid=(0.0,), strategies=("equal",),
            noise_std=0.0, max_sweeps=5, success_threshold=0.04, **overrides,
        )

    def test_a_density_is_decided_by_its_first_trial(self, monkeypatch):
        # 10.0 > 0.04 * 4: the density fails however the other trials go
        solved = self._scripted(monkeypatch, [10.0, 0.0, 0.0, 0.0, 0.0])
        (row,) = run_sample_sweep(self._scripted_cfg(p_grid=(0.3, 0.9))).rows
        assert row.min_p == 0.9
        assert solved == [36] + [108] * 4

    def test_a_diverged_trial_adds_nothing_to_the_sum(self, monkeypatch):
        solved = self._scripted(monkeypatch, [None, 0.1, 0.1])
        with pytest.warns(RuntimeWarning, match="diverged"):
            res = run_sample_sweep(self._scripted_cfg(p_grid=(0.3,)))
        assert res.rows[0].min_p is None and solved == [36] * 3
        assert len(res.traces) == 2  # only the solves that ran

    @pytest.mark.parametrize(
        "errors, min_p",
        [([0.0, 0.0, 0.0, 0.2], None),  # crosses 0.16 only at the last trial
         ([0.04] * 4, 0.3),  # a sum at the bound is not decided early
         ([0.0, 0.0, 0.16, 0.0], 0.3),
         # summed left to right these pass 0.12 by one rounding step, but
         # their mean is 0.04: only the margin keeps the rule from failing them
         ([0.06296947439827162, 0.010181411291899374, 0.04684911430982901], 0.3)],
    )
    def test_a_sum_within_the_bound_runs_every_trial(self, monkeypatch, errors, min_p):
        solved = self._scripted(monkeypatch, errors)
        cfg = self._scripted_cfg(trials=len(errors), p_grid=(0.3,))
        (row,) = run_sample_sweep(cfg).rows
        assert solved == [36] * len(errors)
        mean, _, _ = _aggregate(errors)
        assert row.min_p == min_p and (mean <= 0.04) == (min_p is not None)

    def test_default_grid(self):
        grid = default_p_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.02)
        assert grid[-1] == pytest.approx(1.0)
        assert list(grid) == sorted(grid)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="without fork the sweeps run inline")
@pytest.mark.usefixtures("pooled")
class TestWorkerPool:
    def test_rank_warnings_come_back_as_issued_inline(self):
        issued = []
        for threads in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                run_error_sweep(_tiny_error_cfg(trials=2, threads=threads))
            issued.append([
                (str(w.message), w.filename, w.lineno)
                for w in caught if w.category is RankDeficiencyWarning
            ])
        assert issued[0] and issued[1] == issued[0]

    def test_a_worker_divergence_reaches_the_caller(self, monkeypatch):
        # each worker runs its own copy of the script from where the fork left it
        TestSampleSweep._scripted(monkeypatch, [None, 0.1, 0.1] * 2)
        cfg = dataclasses.replace(
            TestSampleSweep._scripted_cfg(trials=3, p_grid=(0.3,)),
            strategies=("equal", "last_only"), threads=2,
        )
        with pytest.warns(RuntimeWarning, match="diverged") as record:
            res = run_sample_sweep(cfg)
        assert [row.min_p for row in res.rows] == [None, None] and len(res.traces) == 4
        assert [str(w.message) for w in record] == [
            f"solver diverged (strategy={s}, drift=0.0)" for s in cfg.strategies
        ]

    def test_a_cell_error_is_raised_and_leaves_no_worker(self, monkeypatch):
        def fail(problem, **kwargs):
            raise ValueError("scripted cell failure")

        monkeypatch.setattr(experiments, "solve", fail)
        with pytest.raises(ValueError, match="scripted cell failure") as raised:
            run_error_sweep(_tiny_error_cfg(trials=2, threads=2))
        assert "in fail" in str(raised.value.__cause__)  # the worker's frames
        _assert_no_child()

    def test_a_dead_worker_raises(self, monkeypatch):
        parent = os.getpid()

        def die(problem, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("solved in the calling process")
            os._exit(3)

        def hung(signum, frame):
            pytest.fail("the sweep waited on a dead worker")

        monkeypatch.setattr(experiments, "solve", die)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                run_error_sweep(_tiny_error_cfg(trials=2, threads=2))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        _assert_no_child()

    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_workers_are_capped_by_items_cpus_and_size(self, monkeypatch):
        requested = []

        def recording(fn, cfg, items, workers):  # maps inline: starts no process
            requested.append(workers)
            return [fn(cfg, item) for item in items]

        monkeypatch.setattr(experiments, "_fork_map", recording)
        two_cells = _tiny_error_cfg(trials=1, threads=10**6)
        monkeypatch.setattr(experiments, "_workers", lambda: 64)
        run_error_sweep(two_cells)
        monkeypatch.setattr(experiments, "_workers", lambda: 1)
        run_error_sweep(two_cells)
        assert requested == [2]
        # two lanes of two densities x two trials, two bins of 12 x 10 entries
        two_lanes = _tiny_error_cfg(
            m0=None, trials=2, p_grid=(0.3, 0.9), drift_grid=(0.1,),
            strategies=("equal", "last_only"), threads=2,
        )
        monkeypatch.setattr(experiments, "_workers", lambda: 64)
        for least in (1920, 1921):
            monkeypatch.setattr(experiments, "_POOL_MIN_ENTRIES", least)
            run_sample_sweep(two_lanes)
        assert requested == [2, 2]

    def test_uneven_items_each_run_once_and_come_back_in_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "_workers", lambda: 3)
        log = tmp_path / "runs"

        def item(cfg, i):
            if i == 0:
                time.sleep(0.5)  # the other workers pull the six short items meanwhile
            with open(log, "a") as fh:  # one short append per run, from any worker
                fh.write(f"{i}\n")
            return i, os.getpid()

        out = experiments._map_items(item, _tiny_error_cfg(threads=3), list(range(7)))
        assert [i for i, _ in out] == list(range(7))
        assert sorted(int(line) for line in log.read_text().split()) == list(range(7))
        pids = [pid for _, pid in out]
        assert os.getpid() not in pids and pids.count(pids[0]) == 1
        _assert_no_child()

    def test_more_items_than_a_pipe_holds_come_back_in_order(self):
        # 20,000 4-byte records would fill a 64 kB pipe before any worker
        # reads, so each record starts a run of items
        def hung(signum, frame):
            pytest.fail("the caller blocked writing the task records")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            out = experiments._map_items(
                lambda cfg, i: i * i, _tiny_error_cfg(threads=2), list(range(20_000))
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert out == [i * i for i in range(20_000)]
        _assert_no_child()

    def test_an_item_error_follows_the_earlier_items_warnings(self, monkeypatch):
        monkeypatch.setattr(experiments, "_workers", lambda: 3)

        def item(cfg, i):
            warnings.warn(f"item {i}", RuntimeWarning)
            if i == 4:
                raise KeyError("scripted item failure")
            return i

        issued = []
        for threads in (1, 3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(KeyError, match="scripted item failure"):
                    experiments._map_items(item, _tiny_error_cfg(threads=threads), list(range(7)))
            issued.append([str(w.message) for w in caught])
        assert issued[0] == [f"item {i}" for i in range(5)] and issued[1] == issued[0]
        _assert_no_child()

    def test_a_caller_exception_while_reading_leaves_no_worker(self, monkeypatch):
        monkeypatch.setattr(experiments, "_workers", lambda: 3)

        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        def item(cfg, i):
            time.sleep(60)  # the workers are still running when the caller stops

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        try:
            started = time.monotonic()
            with pytest.raises(Interrupted):
                experiments._map_items(item, _tiny_error_cfg(threads=3), list(range(3)))
            assert time.monotonic() - started < 30
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        _assert_no_child()

    def test_a_pooled_sweep_never_loads_multiprocessing(self):
        # only a fresh interpreter shows what a pooled sweep imports
        script = (
            "import os, sys\n"
            "from lowems import experiments\n"
            "experiments._workers, experiments._POOL_MIN_ENTRIES = (lambda: 2), 0\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "cfg = experiments.SweepConfig(n1=10, n2=8, rank=1, d=2, noise_std=0.05,"
            " drift_grid=(0.1,), seed=1, m0=40, trials=2, threads=2)\n"
            "experiments.run_error_sweep(cfg)\n"
            "print(len(forks), sorted({'multiprocessing', 'concurrent.futures.process'}"
            " & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-W", "ignore", "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "2 []"


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
