"""Self-tests of the benchmark.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench

They use reduced input sizes (``worker.py --small``), so they take seconds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END, PIN  # noqa: E402
from spans import per_layer_units  # noqa: E402
from workloads import make_workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
WORKLOADS = list(make_workloads())


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _worker(tmp_path, workload: str, trace: int, problem: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--small",
           "--workload", workload, "--seed", "5", "--problem", str(problem),
           "--trace", str(trace), "--workdir", str(tmp_path)]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **PIN),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_are_plain():
    names = list(END_TO_END) + list(per_layer_units())
    bad = [n for n in names if not NAME.match(n)]
    assert not bad
    assert len(names) == len(set(names))


def test_benchmark_json_matches_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    for w in spec["workloads"]:
        assert w["why"] == make_workloads()[w["name"]].why


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_passes_check_and_trace_keeps_outputs(tmp_path, workload):
    plain = _worker(tmp_path, workload, trace=0)
    traced = _worker(tmp_path, workload, trace=1)
    assert plain["errors"] == [] and traced["errors"] == []
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert traced["sha256"] == plain["sha256"]
    assert traced["values"] == plain["values"]
    assert traced["trace_missing"] == []
    expected = set(per_layer_units()) - {"trace.overhead_frac"}
    assert set(traced["layers"]) == expected
    assert traced["layers"]["solver.solve.calls"] == make_workloads(small=True)[workload].solves


def test_replay_reproduces_stored(tmp_path):
    stored = _worker(tmp_path, "sensing_stored", trace=0, problem=1)
    replay = _worker(tmp_path, "sensing_replay", trace=0, problem=1)
    assert stored["sha256"] == replay["sha256"]


def test_sensing_check_rejects_a_perturbed_solution(tmp_path):
    """The oracle check must notice a factor that is not a block minimizer."""
    for key, value in PIN.items():
        os.environ.setdefault(key, value)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lowems.solver import FactorPair, Solution
    from workloads import check, job, outputs, setup

    wl = make_workloads(small=True)["sensing_stored"]
    state = setup(wl, 5, 0, str(tmp_path))
    path, sol = job(wl, 5, state, str(tmp_path))
    assert check(wl, 5, 0, state, outputs(wl, state, path, sol), sol, None) == []
    v = sol.factors.V * (1.0 + 1e-3)
    bad = Solution(FactorPair(sol.factors.U, v), sol.factors.U @ v.T,
                   sol.objective_trace, sol.iterations, sol.converged, False)
    errors = check(wl, 5, 0, state, outputs(wl, state, path, bad), bad, None)
    assert any("stationary" in e for e in errors)


def test_reference_mismatch_is_reported():
    from workloads import check

    wl = make_workloads(small=True)["ratings_cv"]
    out = {"values": {"0.10000000000000001": 0.12, "10": 0.13}, "val_rmse": 0.12}
    ref = {"values": {"0.10000000000000001": 0.12, "10": 0.1301}}
    errors = check(wl, 5, 0, {}, out, None, ref)
    assert len(errors) == 1 and errors[0].startswith("10:")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
