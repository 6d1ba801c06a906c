"""End-to-end tests for the ``lowems`` command-line interface.

Commands run in-process through ``cli.main`` so exit codes, stdout, and the
stderr config log can be asserted directly; one smoke test goes through
``python -m lowems`` to cover the module entry point.
"""

import argparse
import csv
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from lowems import experiments, ratings
from lowems.bundles import load_bundle
from lowems.cli import _RANGES, _float_list, build_parser, main
from lowems.core import RandomStream
from lowems.experiments import (
    SweepConfig,
    relative_error,
    run_error_sweep,
    theorem_diagnostics,
)
from lowems.measurement import estimate_rip, make_operator
from lowems.ratings import synthetic_ratings, table_to_csv
from lowems.solver import LowemsProblem, solve
from lowems.weights import baseline_weights
from make_manifest import recorded_solves


def _run(capsys, argv):
    capsys.readouterr()  # drop anything emitted during fixture setup
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _config_log(err, command):
    """The one config line of ``command``, parsed as strict JSON: a bare
    NaN or Infinity in it is an error."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token} in the config line")

    prefix = f"[lowems {command}] config: "
    lines = [l for l in err.splitlines() if l.startswith(prefix)]
    assert len(lines) == 1, f"no single config line for {command!r} in {err!r}"
    return json.loads(lines[0][len(prefix) :], parse_constant=reject)


def _csv_rows(path):
    """Records of a CSV file as written by the package: CRLF-terminated,
    parsed with the csv module."""
    raw = path.read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n")
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _g(value):
    return format(value, ".17g")


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bundle.npz"
    code = main(
        [
            "generate",
            "--n1", "8", "--n2", "6", "--rank", "2", "--d", "2",
            "--m0", "60", "--noise-std", "0.01", "--drift-std", "0.05",
            "--variant", "sampling", "--out", str(path), "--seed", "7",
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def ratings_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-ratings") / "ratings.csv"
    table, _ = synthetic_ratings(
        20, 15, 2, 2, fill=0.4, noise_std=0.05, drift_std=0.05,
        rng=RandomStream(11),
    )
    table_to_csv(table, path)
    return path


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, err = _run(capsys, [])
        assert code == 1
        assert "usage" in err

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--bogus", "1"])
        assert exc.value.code == 1

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "0.1.0" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0

    def test_missing_required_key(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["generate", "--out", str(tmp_path / "b.npz"), "--seed", "1"],
        )
        assert code == 1
        assert "missing required option --n1" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n1": 8, "typo_key": 3}))
        code, _, err = _run(
            capsys,
            ["generate", "--config", str(cfg),
             "--out", str(tmp_path / "b.npz"), "--seed", "1"],
        )
        assert code == 1
        assert "unknown config keys" in err and "typo_key" in err

    def test_malformed_config_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = _run(
            capsys,
            ["generate", "--config", str(cfg),
             "--out", str(tmp_path / "b.npz"), "--seed", "1"],
        )
        assert code == 1
        assert "cannot read config" in err

    def test_missing_bundle_file(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(tmp_path / "nope.npz"),
             "--weights", "equal", "--rank", "2",
             "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 1
        assert "cannot load bundle" in err

    def test_optimal_weights_require_kappa(self, capsys, bundle_path, tmp_path):
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(bundle_path), "--weights", "optimal",
             "--rank", "2", "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 1
        assert "requires --kappa" in err

    def test_explicit_weights_wrong_length(self, capsys, bundle_path, tmp_path):
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(bundle_path),
             "--weights", "explicit:1.0", "--rank", "2",
             "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 1
        assert "bad explicit weights" in err

    def test_unknown_weights_spec(self, capsys, bundle_path, tmp_path):
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(bundle_path), "--weights", "fancy",
             "--rank", "2", "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 1
        assert "--weights must be" in err

    def test_random_init_requires_seed(self, capsys, bundle_path, tmp_path):
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(bundle_path), "--weights", "equal",
             "--rank", "2", "--init", "random",
             "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 1
        assert "requires --seed" in err

    def test_nan_kappa_rejected_before_io(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["ratings", "eval", "--in", str(tmp_path / "absent.csv"),
             "--d", "2", "--rank", "2", "--kappa", "nan",
             "--out", str(tmp_path / "o.csv"), "--seed", "1"],
        )
        assert code == 1
        assert "--kappa must be nonnegative" in err

    def test_non_finite_bundle_rejected_on_load(self, capsys, bundle_path, tmp_path):
        with np.load(bundle_path) as data:
            payload = dict(data)
        payload["y_1"][3] = np.nan
        bad = tmp_path / "nan.npz"
        np.savez(bad, **payload)
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(bad), "--weights", "equal", "--rank", "2",
             "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 1
        assert "cannot load bundle" in err and "time bin 1" in err

    def test_non_integer_bundle_indices_rejected_on_load(self, capsys, bundle_path, tmp_path):
        # 0.5 past each index would truncate back to it if read as int64
        with np.load(bundle_path) as data:
            payload = dict(data)
        payload["rows_0"] = payload["rows_0"] + 0.5
        bad = tmp_path / "float_rows.npz"
        np.savez(bad, **payload)
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(bad), "--weights", "equal", "--rank", "2",
             "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 1
        assert f"cannot load bundle {bad}: rows/cols must hold integers" in err
        assert not (tmp_path / "x.csv").exists()

    def test_truncated_bundle_is_usage_error(self, capsys, bundle_path, tmp_path):
        raw = bundle_path.read_bytes()
        half = tmp_path / "half.npz"
        half.write_bytes(raw[: len(raw) // 2])
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(half), "--weights", "equal", "--rank", "2",
             "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 1
        assert f"cannot load bundle {half}: " in err
        assert not (tmp_path / "x.csv").exists()

    def test_runtime_failure_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,item_id,rating,timestamp\n1,2\n")
        code, _, err = _run(capsys, ["ratings", "ingest", "--in", str(bad)])
        assert code == 2
        assert "lowems: failed" in err


class TestGenerateSolve:
    def test_generate_writes_loadable_bundle(self, capsys, bundle_path):
        obs = load_bundle(bundle_path)
        assert (obs.n1, obs.n2, obs.d) == (8, 6, 2)
        assert [op.m for op in obs.ops] == [60, 60]
        assert obs.variant == "sampling"
        assert obs.truth is not None

    def test_generate_is_deterministic(self, capsys, bundle_path, tmp_path):
        other = tmp_path / "again.npz"
        code, out, _ = _run(
            capsys,
            ["generate",
             "--n1", "8", "--n2", "6", "--rank", "2", "--d", "2",
             "--m0", "60", "--noise-std", "0.01", "--drift-std", "0.05",
             "--variant", "sampling", "--out", str(other), "--seed", "7"],
        )
        assert code == 0
        assert out == f"wrote bundle {other} (d=2, m0=60, sampling)\n"
        first, second = load_bundle(bundle_path), load_bundle(other)
        for y_a, y_b in zip(first.y, second.y):
            np.testing.assert_array_equal(y_b, y_a)

    def test_out_without_suffix_is_the_written_path(self, capsys, tmp_path):
        out = tmp_path / "mybundle"
        code, stdout, _ = _run(
            capsys,
            ["generate",
             "--n1", "8", "--n2", "6", "--rank", "2", "--d", "2",
             "--m0", "60", "--variant", "sampling", "--out", str(out), "--seed", "7"],
        )
        assert code == 0
        assert f"wrote bundle {out} " in stdout
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(out), "--weights", "equal", "--rank", "2",
             "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 0, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mybundle", "x.csv"]

    def test_dump_x_writes_one_file_per_bin(self, capsys, tmp_path):
        out = tmp_path / "b.npz"
        prefix = tmp_path / "planted"
        code, _, _ = _run(
            capsys,
            ["generate",
             "--n1", "8", "--n2", "6", "--rank", "2", "--d", "3",
             "--m0", "30", "--variant", "sampling",
             "--out", str(out), "--dump-x", str(prefix), "--seed", "2"],
        )
        assert code == 0
        truth = load_bundle(out).truth
        for t in range(3):
            dumped = np.loadtxt(f"{prefix}_{t}.csv", delimiter=",")
            np.testing.assert_array_equal(dumped, truth.X_seq[t])

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"n1": 8, "n2": 6, "rank": 2, "d": 2, "m0": 60,
                 "noise_std": 0.5, "variant": "sampling"}
            )
        )
        code, _, err = _run(
            capsys,
            ["generate", "--config", str(cfg), "--noise-std", "0.0",
             "--out", str(tmp_path / "b.npz"), "--seed", "3"],
        )
        assert code == 0
        resolved = _config_log(err, "generate")
        assert resolved["noise_std"] == 0.0  # flag beats file
        assert resolved["m0"] == 60  # file beats default

    def test_solve_round_trip_is_reproducible(self, capsys, bundle_path, tmp_path):
        argv = [
            "solve", "--bundle", str(bundle_path),
            "--weights", "optimal", "--kappa", "25.0", "--rank", "2",
        ]
        x_a, x_b = tmp_path / "xa.csv", tmp_path / "xb.csv"
        trace = tmp_path / "trace.csv"
        code, out, _ = _run(
            capsys, argv + ["--out-x", str(x_a), "--out-trace", str(trace)]
        )
        assert code == 0
        assert re.fullmatch(
            r"solved in \d+ sweeps \(converged=True, stop_reason=tol, fallbacks=0, "
            r"objective=[-+.\de]+\)\n",
            out,
        ), out
        code, _, _ = _run(capsys, argv + ["--out-x", str(x_b)])
        assert code == 0
        assert x_a.read_bytes() == x_b.read_bytes()

    def test_solve_trace_header_and_monotone(self, capsys, bundle_path, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, _ = _run(
            capsys,
            ["solve", "--bundle", str(bundle_path), "--weights", "equal",
             "--rank", "2", "--out-x", str(tmp_path / "x.csv"),
             "--out-trace", str(trace)],
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,objective"
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert values.size >= 2
        assert np.all(np.diff(values) <= 1e-12)

    def test_trace_rows_match_library_solve(self, capsys, bundle_path, tmp_path):
        trace = tmp_path / "trace.csv"
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(bundle_path), "--weights", "equal",
             "--rank", "2", "--out-x", str(tmp_path / "x.csv"),
             "--out-trace", str(trace)],
        )
        assert code == 0
        problem = LowemsProblem(load_bundle(bundle_path), baseline_weights(2, "equal"), 2)
        expected = solve(problem).objective_trace
        assert _csv_rows(trace) == [["step", "objective"]] + [
            [str(i), _g(v)] for i, v in enumerate(expected)
        ]
        logged = _config_log(err, "solve")
        assert logged["out_trace"] == str(trace) and logged["max_entry"] is None

    def test_solved_matrix_tracks_planted_truth(self, capsys, bundle_path, tmp_path):
        out_x = tmp_path / "x.csv"
        code, _, _ = _run(
            capsys,
            ["solve", "--bundle", str(bundle_path),
             "--weights", "optimal", "--kappa", "25.0", "--rank", "2",
             "--out-x", str(out_x)],
        )
        assert code == 0
        x_hat = np.loadtxt(out_x, delimiter=",")
        truth = load_bundle(bundle_path).truth
        assert relative_error(x_hat, truth.X_seq[-1]) < 0.1

    @pytest.mark.parametrize("seed", ["3", "4"])
    def test_ridge_solve_stops_on_tol_within_ten_sweeps(self, capsys, tmp_path, seed):
        # without the balancing step between sweeps these took 175 and 178
        bundle = tmp_path / "g.npz"
        code, _, _ = _run(
            capsys,
            ["generate", "--n1", "6", "--n2", "5", "--rank", "1", "--d", "2",
             "--m0", "50", "--variant", "gaussian", "--out", str(bundle), "--seed", "8"],
        )
        assert code == 0
        stops: list = []
        with recorded_solves(stops):
            code, _, _ = _run(
                capsys,
                ["solve", "--bundle", str(bundle), "--weights", "equal", "--rank", "1",
                 "--init", "random", "--gamma", "0.01", "--seed", seed,
                 "--out-x", str(tmp_path / "x.csv")],
            )
        assert code == 0
        [(iterations, stopped_on_tol)] = stops
        assert stopped_on_tol and iterations <= 10

    def test_explicit_and_alias_weight_specs(self, capsys, bundle_path, tmp_path):
        for spec in ("explicit:0.3,0.7", "last", "last_only"):
            code, _, _ = _run(
                capsys,
                ["solve", "--bundle", str(bundle_path), "--weights", spec,
                 "--rank", "2", "--out-x", str(tmp_path / "x.csv")],
            )
            assert code == 0, spec


class TestSweepCommands:
    def test_sweep_error_csv_and_diagnostics(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        diag = tmp_path / "diag.csv"
        code, _, _ = _run(
            capsys,
            ["sweep-error",
             "--n1", "8", "--n2", "6", "--rank", "2", "--d", "2",
             "--m0", "48", "--trials", "2", "--drift-grid", "0.0,0.1",
             "--strategies", "equal", "--noise-std", "0.02",
             "--max-sweeps", "80", "--out", str(out),
             "--diagnostics-out", str(diag), "--seed", "1"],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sigma2,strategy,metric,value,stddev,trials"
        assert len(lines) == 3  # two drift levels x one strategy
        assert all(line.split(",")[2] == "mean_rel_error" for line in lines[1:])
        diag_lines = diag.read_text().splitlines()
        assert diag_lines[0] == "sigma2,strategy,bound_value,phi_prime,empirical,ratio"
        assert len(diag_lines) == 3
        cfg = SweepConfig(
            n1=8, n2=6, rank=2, d=2, m0=48, trials=2, drift_grid=(0.0, 0.1),
            strategies=("equal",), noise_std=0.02, max_sweeps=80, seed=1,
        )
        rows = theorem_diagnostics(cfg, run_error_sweep(cfg))
        assert _csv_rows(diag)[1:] == [
            [_g(r.drift_std), r.strategy, _g(r.bound_value), _g(r.phi_prime),
             _g(r.empirical_error), _g(r.ratio)]
            for r in rows
        ]

    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    def test_sweep_samples_reports_not_achieved(self, capsys, tmp_path):
        out = tmp_path / "samples.csv"
        code, _, _ = _run(
            capsys,
            ["sweep-samples",
             "--n1", "8", "--n2", "6", "--rank", "2", "--d", "2",
             "--trials", "1", "--drift-grid", "0.3",
             "--strategies", "last_only", "--noise-std", "0.2",
             "--p-grid", "0.08,0.15", "--success-threshold", "1e-12",
             "--max-sweeps", "40", "--out", str(out), "--seed", "2"],
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sigma2,strategy,min_p"
        assert lines[1].endswith("not_achieved")

    @pytest.mark.filterwarnings("ignore::lowems.solver.RankDeficiencyWarning")
    @pytest.mark.filterwarnings("ignore:solver diverged:RuntimeWarning")
    def test_sweep_samples_csv_does_not_depend_on_threads(self, capsys, tmp_path, monkeypatch):
        solved, real_solve = [], experiments.solve

        def counted(problem, **kwargs):
            solved.append(1)
            return real_solve(problem, **kwargs)

        monkeypatch.setattr(experiments, "solve", counted)
        monkeypatch.setattr(experiments, "_POOL_MIN_ENTRIES", 0)  # fork at any size
        csvs, solves = [], []
        for threads in ("1", "2"):
            out = tmp_path / f"samples{threads}.csv"
            code, _, _ = _run(
                capsys,
                ["sweep-samples", "--n1", "12", "--n2", "10", "--rank", "2", "--d", "2",
                 "--trials", "3", "--drift-grid", "0.001,0.3",
                 "--strategies", "last_only,optimal", "--noise-std", "0.05",
                 "--p-grid", "0.1,0.3,0.6,0.9", "--max-sweeps", "60",
                 "--threads", threads, "--out", str(out), "--seed", "5"],
            )
            assert code == 0
            csvs.append(out.read_bytes())
            solves.append(len(solved))
        assert csvs[0] == csvs[1]
        # some density was decided before its last trial: fewer solves than
        # every trial of every density the lanes scanned.  Only the --threads 1
        # run is counted: the other solves in worker processes, which this
        # list does not see.
        grid = [0.1, 0.3, 0.6, 0.9]
        min_ps = [row[2] for row in _csv_rows(tmp_path / "samples1.csv")[1:]]
        scanned = [4 if p == "not_achieved" else grid.index(float(p)) + 1 for p in min_ps]
        assert scanned != [1] * 4 and solves[0] < 3 * sum(scanned)


class TestRipProbe:
    def test_stdout_and_csv(self, capsys, tmp_path):
        out = tmp_path / "rip.csv"
        code, stdout, _ = _run(
            capsys,
            ["rip-probe", "--n1", "10", "--n2", "10", "--m0", "150",
             "--rank", "2", "--trials", "5", "--variant", "gaussian",
             "--out", str(out), "--seed", "3"],
        )
        assert code == 0
        token = [l for l in stdout.splitlines() if l.startswith("rip_estimate")]
        assert len(token) == 1
        estimate = float(token[0].split()[1])
        assert 0.0 < estimate < 1.0
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,n1,n2,d,m0,rank,trials,estimate"
        assert lines[1].startswith("gaussian,10,10,1,150,2,5,")
        root = RandomStream(3)
        ops = [make_operator("gaussian", 10, 10, 150, root.child(0).child(0))]
        expected = estimate_rip(ops, baseline_weights(1, "equal"), 2, 5, root.child(1))
        assert _csv_rows(out) == [
            ["variant", "n1", "n2", "d", "m0", "rank", "trials", "estimate"],
            ["gaussian", "10", "10", "1", "150", "2", "5", _g(expected)],
        ]


class TestRatingsPipeline:
    def test_ingest_reports_counts(self, capsys, ratings_csv, tmp_path):
        cleaned = tmp_path / "clean.csv"
        code, out, _ = _run(
            capsys,
            ["ratings", "ingest", "--in", str(ratings_csv),
             "--out", str(cleaned)],
        )
        assert code == 0
        assert out.startswith("ingested ")
        assert cleaned.exists()

    def test_ingest_truncation_path(self, capsys, ratings_csv):
        code, out, _ = _run(
            capsys,
            ["ratings", "ingest", "--in", str(ratings_csv),
             "--min-user-ratings", "3"],
        )
        assert code == 0
        assert "after truncation" in out

    def test_ingest_names_the_line_of_an_id_outside_int64(self, capsys, tmp_path):
        bad = tmp_path / "big.csv"
        bad.write_text("user_id,item_id,rating,timestamp\n1,2,3.0,4\n99999999999999999999,2,3.0,4\n")
        code, _, err = _run(capsys, ["ratings", "ingest", "--in", str(bad)])
        assert code == 2
        assert f"lowems: failed: {bad}: line 3: id or timestamp outside int64" in err

    def test_ingest_names_the_line_of_a_field_past_csvs_limit(self, capsys, tmp_path):
        bad = tmp_path / "long.csv"
        bad.write_text("user_id,item_id,rating,timestamp\n1,2,3.0," + " " * 131_072 + "4\n")
        code, _, err = _run(capsys, ["ratings", "ingest", "--in", str(bad)])
        assert code == 2
        assert f"lowems: failed: {bad}: line 2: field larger than field limit (131072)" in err

    def test_cv_writes_grid_csv(self, capsys, ratings_csv, tmp_path):
        out = tmp_path / "cv.csv"
        code, stdout, err = _run(
            capsys,
            ["ratings", "cv", "--in", str(ratings_csv), "--d", "2",
             "--rank", "2", "--kappa-grid", "0.1,10", "--folds", "2",
             "--out", str(out), "--seed", "5"],
        )
        assert code == 0
        logged = _config_log(err, "ratings cv")
        assert logged == {
            "infile": str(ratings_csv), "d": 2, "rank": 2, "gamma": 1.0,
            "kappa_grid": [0.1, 10.0], "folds": 2, "test_frac": 0.1,
            "out": str(out), "seed": 5,
        }
        assert all(type(k) is float for k in logged["kappa_grid"])
        best = [l for l in stdout.splitlines() if l.startswith("best_kappa")]
        assert float(best[0].split()[1]) in (0.1, 10.0)
        lines = out.read_text().splitlines()
        assert lines[0] == "kappa,mean_val_rmse,std"
        assert len(lines) == 3

    def test_ingest_accepts_a_byte_order_mark(self, capsys, ratings_csv, tmp_path):
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + ratings_csv.read_bytes())
        outs = [_run(capsys, ["ratings", "ingest", "--in", str(p)]) for p in (ratings_csv, marked)]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0][1] == outs[1][1]

    def test_eval_writes_restart_csv(self, capsys, monkeypatch, ratings_csv, tmp_path):
        folds = []
        monkeypatch.setattr(ratings, "make_split", lambda *a, **k: folds.append(a))
        out = tmp_path / "eval.csv"
        code, stdout, _ = _run(
            capsys,
            ["ratings", "eval", "--in", str(ratings_csv), "--d", "2",
             "--rank", "2", "--kappa", "1.0", "--restarts", "2",
             "--out", str(out), "--seed", "6"],
        )
        assert code == 0
        assert "test_rmse mean" in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "restart,test_rmse"
        assert len(lines) == 3
        assert np.isfinite(float(lines[1].split(",")[1]))
        assert folds == []  # eval draws no CV fold

    def test_eval_names_the_bin_without_training_ratings(self, capsys, monkeypatch, tmp_path):
        # 30 ratings at 0..29 in two bins: the latest half is all of bin 1
        path = tmp_path / "r.csv"
        path.write_text("user_id,item_id,rating,timestamp\n" + "".join(
            f"{k % 4},{k % 5},{k % 3},{k}\n" for k in range(30)
        ))
        folds = []
        monkeypatch.setattr(ratings, "make_split", lambda *a, **k: folds.append(a))
        out = tmp_path / "eval.csv"
        code, _, err = _run(
            capsys,
            ["ratings", "eval", "--in", str(path), "--d", "2", "--rank", "1",
             "--kappa", "1", "--test-frac", "0.5", "--restarts", "1",
             "--out", str(out), "--seed", "1"],
        )
        assert code == 2
        assert "lowems: failed: time bin 1 has no training ratings" in err
        assert folds == []
        assert not out.exists()

    def test_eval_refuses_a_split_with_nothing_to_score(self, capsys, monkeypatch, tmp_path):
        # the one test rating, the latest, is user 9's only rating
        pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (1, 1), (2, 2), (9, 1)]
        path = tmp_path / "r.csv"
        path.write_text("user_id,item_id,rating,timestamp\n" + "".join(
            f"{u},{i},{t},{t}\n" for t, (u, i) in enumerate(pairs, start=1)
        ))

        def refuse(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(ratings, "solve", refuse)
        out = tmp_path / "eval.csv"
        code, _, err = _run(
            capsys,
            ["ratings", "eval", "--in", str(path), "--d", "2", "--rank", "1",
             "--kappa", "1", "--restarts", "3", "--test-frac", "0.12",
             "--out", str(out), "--seed", "1"],
        )
        assert code == 1
        assert ("lowems: error: --test-frac 0.12: no test rating's user and item "
                "both appear in training") in err
        assert not out.exists()

    def test_cv_refuses_folds_with_nothing_to_score(self, capsys, monkeypatch, tmp_path):
        # the last bin's non-test ratings are users 3 and 4's only ones, so no
        # CV fold has a validation rating whose user has a training rating
        path = tmp_path / "r.csv"
        path.write_text(
            "user_id,item_id,rating,timestamp\n1,1,3.0,1\n2,1,4.0,2\n1,2,2.0,3\n"
            "2,2,5.0,4\n3,1,3.5,8\n4,2,4.5,9\n1,1,3.2,10\n"
        )

        def refuse(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(ratings, "solve", refuse)
        out = tmp_path / "cv.csv"
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            code, _, err = _run(
                capsys,
                ["ratings", "cv", "--in", str(path), "--d", "2", "--rank", "1",
                 "--kappa-grid", "0,1", "--folds", "2", "--test-frac", "0.12",
                 "--out", str(out), "--seed", "1"],
            )
        assert code == 1
        assert ("lowems: error: --folds 2, --test-frac 0.12: no CV fold has a validation "
                "rating whose user and item both appear in its training rows") in err
        assert [str(w.message) for w in record] == []
        assert not out.exists()

    def test_cv_accepts_an_empty_test_split(self, capsys, ratings_csv, tmp_path):
        out = tmp_path / "cv.csv"
        code, _, _ = _run(
            capsys,
            ["ratings", "cv", "--in", str(ratings_csv), "--d", "2", "--rank", "2",
             "--kappa-grid", "1", "--folds", "2", "--test-frac", "0",
             "--out", str(out), "--seed", "5"],
        )
        assert code == 0
        assert len(_csv_rows(out)) == 2


class TestModuleEntryPoint:
    def test_python_dash_m_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lowems", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "0.1.0" in proc.stdout

    def test_numpy_is_the_only_runtime_dependency(self):
        # the test extras (scipy, pytest) are installed here, so only a fresh
        # interpreter shows what the package itself imports
        script = (
            "import sys, lowems, lowems.cli\n"
            "code = lowems.cli.main(['rip-probe', '--n1', '4', '--n2', '4', '--m0', '20',"
            " '--rank', '1', '--trials', '2', '--seed', '1'])\n"
            "print(code, sorted({'scipy', 'pytest'} & set(sys.modules)))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


_REQUIRED_ONLY = {
    "generate": (
        ["--n1", "4", "--n2", "3", "--rank", "1", "--d", "2", "--m0", "6"],
        {"n1": 4, "n2": 3, "rank": 1, "d": 2, "m0": 6, "noise_std": 0.05,
         "drift_std": 0.0, "variant": "sampling", "dump_x": None},
    ),
    "sweep-error": (
        ["--n1", "4", "--n2", "3", "--rank", "1", "--d", "1", "--m0", "8",
         "--drift-grid", "0"],
        {"n1": 4, "n2": 3, "rank": 1, "d": 1, "m0": 8, "noise_std": 0.05,
         "drift_grid": [0.0], "strategies": ["last_only", "equal", "optimal"],
         "trials": 10, "variant": "sampling", "gamma": 0.0, "init": "spectral",
         "max_sweeps": 500, "tol": 1e-8, "threads": 1, "diagnostics_out": None},
    ),
    "sweep-samples": (
        ["--n1", "3", "--n2", "3", "--rank", "1", "--d", "1",
         "--drift-grid", "0"],
        {"n1": 3, "n2": 3, "rank": 1, "d": 1, "noise_std": 0.05,
         "drift_grid": [0.0], "strategies": ["last_only", "equal", "optimal"],
         "trials": 10, "variant": "sampling", "gamma": 0.0, "init": "spectral",
         "max_sweeps": 500, "tol": 1e-8, "threads": 1, "p_grid": None,
         "success_threshold": 0.04},
    ),
    "rip-probe": (
        ["--n1", "4", "--n2", "4", "--m0", "10", "--rank", "1"],
        {"n1": 4, "n2": 4, "m0": 10, "rank": 1, "d": 1, "trials": 100,
         "variant": "gaussian", "weights": "equal", "kappa": None},
    ),
}

# The commands without --config, each with only its required flags, and
# every option they resolve to; "{in}" and "{out}" stand for paths.
_REQUIRED_ONLY_PLAIN = {
    "solve": (
        ["--bundle", "{in}", "--weights", "equal", "--rank", "2", "--out-x", "{out}"],
        {"bundle": "{in}", "weights": "equal", "kappa": None, "rank": 2, "gamma": 0.0,
         "init": "spectral", "max_sweeps": 500, "tol": 1e-8, "max_entry": None,
         "out_x": "{out}", "out_trace": None, "seed": None},
    ),
    "ratings ingest": (
        ["--in", "{in}"],
        {"infile": "{in}", "min_user_ratings": 1, "min_item_ratings": 1, "out": None},
    ),
    "ratings cv": (
        ["--in", "{in}", "--d", "2", "--rank", "2", "--out", "{out}", "--seed", "5"],
        {"infile": "{in}", "d": 2, "rank": 2, "gamma": 1.0,
         "kappa_grid": [0.0, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0], "folds": 5,
         "test_frac": 0.1, "out": "{out}", "seed": 5},
    ),
    "ratings eval": (
        ["--in", "{in}", "--d", "2", "--rank", "2", "--kappa", "1", "--out", "{out}",
         "--seed", "5"],
        {"infile": "{in}", "d": 2, "rank": 2, "gamma": 1.0, "kappa": 1.0, "restarts": 10,
         "test_frac": 0.1, "out": "{out}", "seed": 5},
    ),
}


class TestOptionResolution:
    """Pins what each command resolves and logs, so that the defaults of
    every option stay where they are."""

    @pytest.mark.parametrize("command", sorted(_REQUIRED_ONLY_PLAIN))
    def test_required_flags_only_without_config(self, capsys, tmp_path, bundle_path,
                                                ratings_csv, command):
        flags, expected = _REQUIRED_ONLY_PLAIN[command]
        paths = {"{in}": str(bundle_path if command == "solve" else ratings_csv),
                 "{out}": str(tmp_path / "out")}
        code, _, err = _run(capsys, [*command.split(), *[paths.get(f, f) for f in flags]])
        assert code == 0, err
        assert _config_log(err, command) == {
            k: paths.get(v, v) if isinstance(v, str) else v for k, v in expected.items()
        }

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(c, marks=pytest.mark.filterwarnings(
                "ignore::lowems.solver.RankDeficiencyWarning"))
            if c.startswith("sweep-") else c
            for c in sorted(_REQUIRED_ONLY)
        ],
    )
    def test_required_flags_only(self, capsys, tmp_path, command):
        flags, expected = _REQUIRED_ONLY[command]
        out = str(tmp_path / "out")
        code, _, err = _run(capsys, [command, *flags, "--out", out, "--seed", "5"])
        assert code == 0, err
        assert _config_log(err, command) == {
            **expected, "config": None, "out": out, "seed": 5,
        }

    def test_config_file_values_are_coerced(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n1": 4.0, "n2": 3, "rank": 1, "d": 1, "m0": 8, "noise_std": 0,
             "drift_grid": [0.001, 1], "strategies": ["optimal", "last_only"],
             "trials": 2, "gamma": 1, "max_sweeps": 20}
        ))
        out = str(tmp_path / "sweep.csv")
        code, _, err = _run(
            capsys,
            ["sweep-error", "--config", str(cfg), "--trials", "1",
             "--out", out, "--seed", "5"],
        )
        assert code == 0, err
        logged = _config_log(err, "sweep-error")
        assert logged == {
            "n1": 4, "n2": 3, "rank": 1, "d": 1, "m0": 8, "noise_std": 0.0,
            "drift_grid": [0.001, 1.0], "strategies": ["optimal", "last_only"],
            "trials": 1, "variant": "sampling", "gamma": 1.0, "init": "spectral",
            "max_sweeps": 20, "tol": 1e-8, "threads": 1, "diagnostics_out": None,
            "config": str(cfg), "out": out, "seed": 5,
        }
        assert type(logged["n1"]) is int
        assert all(type(logged[k]) is float for k in ("noise_std", "gamma"))
        assert all(type(s) is float for s in logged["drift_grid"])

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"n1": 6.9}, "config key 'n1': 6.9 is not an integer"),
            ({"n1": float("inf")}, "config key 'n1': inf is not an integer"),
            ({"n1": 4, "noise_std": True},
             "config key 'noise_std': booleans are not accepted, got true"),
        ],
        ids=["fraction", "infinity", "boolean"],
    )
    def test_config_value_a_flag_refuses_is_refused(self, capsys, tmp_path, values, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "b.npz"
        code, _, err = _run(
            capsys,
            ["generate", "--config", str(cfg), "--n2", "5", "--rank", "1", "--d", "1",
             "--m0", "10", "--out", str(out), "--seed", "1"],
        )
        assert code == 1
        assert f"lowems: error: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "sweep-error", "rip-probe"])
    def test_bad_variant_in_config_names_the_key(self, capsys, tmp_path, command):
        flags, _ = _REQUIRED_ONLY[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"variant": "bogus"}))
        code, _, err = _run(
            capsys,
            [command, "--config", str(cfg), *flags,
             "--out", str(tmp_path / "out"), "--seed", "5"],
        )
        assert code == 1
        assert "variant" in err and "bogus" in err


_ERROR_SWEEP = ["sweep-error", "--n1", "4", "--n2", "3", "--rank", "1", "--d", "1",
                "--m0", "8", "--drift-grid", "0.1", "--out", "s.csv", "--seed", "1"]
_SAMPLE_SWEEP = ["sweep-samples", "--n1", "4", "--n2", "3", "--rank", "1", "--d", "1",
                 "--drift-grid", "0.1", "--out", "s.csv", "--seed", "1"]
_RATINGS_CV = ["ratings", "cv", "--in", "absent.csv", "--d", "2", "--rank", "2",
               "--out", "cv.csv", "--seed", "1"]
# a later flag overrides the same flag in _ERROR_SWEEP
_COUNT_FLAGS = ["--threads", "--trials", "--d", "--m0", "--rank", "--max-sweeps"]


class TestNonFiniteOptions:
    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--weights", "optimal", "--kappa", "nan"], "--kappa"),
            (["--weights", "equal", "--gamma", "nan"], "--gamma"),
            (["--weights", "equal", "--tol", "nan"], "--tol"),
            (["--weights", "equal", "--gamma", "-1"], "--gamma"),
            (["--weights", "equal", "--tol", "-1"], "--tol"),
            (["--weights", "optimal", "--kappa", "-0.5"], "--kappa"),
        ],
    )
    def test_nan_solve_flag_is_usage_error(self, capsys, bundle_path, tmp_path,
                                           flags, name):
        out_x = tmp_path / "x.csv"
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(bundle_path), *flags, "--rank", "2",
             "--out-x", str(out_x)],
        )
        assert code == 1
        assert f"{name} must be nonnegative" in err
        assert not out_x.exists()

    def test_nan_rip_probe_kappa_is_usage_error(self, capsys):
        for value in ("nan", "-1"):
            code, _, err = _run(
                capsys,
                ["rip-probe", "--n1", "4", "--n2", "4", "--m0", "10", "--rank", "1",
                 "--weights", "optimal", "--kappa", value, "--seed", "1"],
            )
            assert code == 1
            assert "--kappa must be nonnegative" in err

    def test_nan_in_config_file_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        for grid, bad in (("[0.1, NaN]", "nan"), ("[0.1, -1]", "-1.0")):
            cfg.write_text(f'{{"drift_grid": {grid}}}')
            code, _, err = _run(
                capsys,
                ["sweep-error", "--config", str(cfg), "--n1", "4", "--n2", "3",
                 "--rank", "1", "--d", "1", "--m0", "8",
                 "--out", str(tmp_path / "out"), "--seed", "1"],
            )
            assert code == 1
            assert f"--drift-grid must be nonnegative, not {bad}" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--n1", "4", "--n2", "3", "--rank", "1", "--d", "1",
              "--m0", "8", "--noise-std", "-1", "--out", "b.npz", "--seed", "1"],
             "--noise-std must be nonnegative, not -1.0"),
            (["sweep-error", "--n1", "4", "--n2", "3", "--rank", "1", "--d", "1",
              "--m0", "8", "--drift-grid", "0.1,-1", "--out", "s.csv",
              "--seed", "1"],
             "--drift-grid must be nonnegative, not -1.0"),
            (["ratings", "eval", "--in", "absent.csv", "--d", "2", "--rank", "2",
              "--kappa", "-1", "--out", "e.csv", "--seed", "1"],
             "--kappa must be nonnegative, not -1.0"),
            # options whose valid range is narrower than nonnegative
            (["solve", "--bundle", "absent.npz", "--weights", "equal", "--rank", "1",
              "--max-entry", "0", "--out-x", "x.csv"],
             "--max-entry must be positive, not 0.0"),
            ([*_SAMPLE_SWEEP, "--p-grid", "0,0.5"], "--p-grid must be in (0, 1], not 0.0"),
            ([*_SAMPLE_SWEEP, "--p-grid", "0.5,1.5"], "--p-grid must be in (0, 1], not 1.5"),
            ([*_RATINGS_CV, "--test-frac", "1"], "--test-frac must be in [0, 1), not 1.0"),
            ([*_ERROR_SWEEP, "--seed", "-1"], "--seed must be in [0, 2**64), not -1"),
            # counts
            *[([*_ERROR_SWEEP, flag, "0"], f"{flag} must be at least 1, not 0")
              for flag in _COUNT_FLAGS],
            ([*_RATINGS_CV, "--folds", "0"], "--folds must be at least 1, not 0"),
            # constraints between options or against a fixed list
            ([*_ERROR_SWEEP, "--rank", "5"], "rank must be in [1, 3], got 5"),
            (["generate", "--n1", "4", "--n2", "3", "--rank", "5", "--d", "1", "--m0", "8",
              "--out", "b.npz", "--seed", "1"], "rank must be in [1, 3], got 5"),
            (["rip-probe", "--n1", "4", "--n2", "3", "--rank", "5", "--m0", "8",
              "--weights", "equal", "--out", "r.csv", "--seed", "1"],
             "rank must be in [1, 3], got 5"),
            # "BUNDLE" stands for the module's 8x6 bundle
            (["solve", "--bundle", "BUNDLE", "--weights", "equal", "--rank", "7",
              "--out-x", "x.csv"], "rank must be in [1, 6], got 7"),
            # "RATINGS" stands for the module's 20-item, 15-user ratings table
            (["ratings", "cv", "--in", "RATINGS", "--d", "2", "--rank", "16",
              "--out", "cv.csv", "--seed", "1"], "rank must be in [1, 15], got 16"),
            (["ratings", "eval", "--in", "RATINGS", "--d", "2", "--rank", "16",
              "--kappa", "1", "--out", "e.csv", "--seed", "1"],
             "rank must be in [1, 15], got 16"),
            ([*_ERROR_SWEEP, "--strategies", "foo"], "unknown strategy 'foo'"),
            ([*_ERROR_SWEEP, "--strategies", "optimal,optimal"], "strategies must not repeat"),
            ([*_SAMPLE_SWEEP, "--p-grid", "0.5,0.2"], "p_grid must be ascending"),
            # empty grids, refused before anything is read or solved
            ([*_ERROR_SWEEP, "--drift-grid", ""], "drift_grid must be nonempty"),
            (["ratings", "cv", "--in", "RATINGS", "--d", "2", "--rank", "2",
              "--kappa-grid", "", "--out", "cv.csv", "--seed", "1"],
             "kappa_grid must be nonempty"),
            # an empty test split, refused before any fit
            (["ratings", "eval", "--in", "RATINGS", "--d", "2", "--rank", "2",
              "--kappa", "1", "--test-frac", "0", "--out", "e.csv", "--seed", "1"],
             "--test-frac 0.0: the test split holds no ratings"),
        ],
        ids=["generate", "sweep-error", "ratings-eval", "max-entry", "p-grid-zero",
             "p-grid-above-one", "test-frac", "seed",
             *[f"count{flag}" for flag in _COUNT_FLAGS], "folds",
             "rank-above-dimensions", "generate-rank", "rip-probe-rank", "solve-rank",
             "ratings-cv-rank", "ratings-eval-rank", "unknown-strategy", "repeated-strategy",
             "p-grid-descending",
             "empty-drift-grid", "empty-kappa-grid", "empty-test-split"],
    )
    def test_negative_value_is_usage_error(self, capsys, tmp_path, monkeypatch, bundle_path,
                                           ratings_csv, argv, message):
        monkeypatch.chdir(tmp_path)
        inputs = {"BUNDLE": str(bundle_path), "RATINGS": str(ratings_csv)}
        code, _, err = _run(capsys, [inputs.get(a, a) for a in argv])
        assert code == 1
        assert f"lowems: error: {message}" in err
        assert list(tmp_path.iterdir()) == []

    def test_every_numeric_option_has_a_range(self):
        # a numeric option missing from _RANGES would be checked by nothing
        def parsers(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for child in action.choices.values():
                        yield from parsers(child)

        numeric = {action.dest for parser in parsers(build_parser())
                   for action in parser._actions if action.type in (int, float, _float_list)}
        assert numeric == set(_RANGES)

    def test_infinite_kappa_logs_as_string(self, capsys, bundle_path, tmp_path):
        code, _, err = _run(
            capsys,
            ["solve", "--bundle", str(bundle_path), "--weights", "optimal",
             "--kappa", "inf", "--rank", "2", "--out-x", str(tmp_path / "x.csv")],
        )
        assert code == 0
        assert _config_log(err, "solve")["kappa"] == "inf"
