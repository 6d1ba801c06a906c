"""The four benchmark workloads: inputs from a seed, the timed job, output checks.

Each workload is driven through the package's public API or its CLI
(``lowems.cli.main``), looked up through module attributes at call time so
that the traced run (``spans.py``) can wrap them.  A workload is split into

* ``setup``: everything before the first call into the job (for the sensing
  workloads: ``generate_truth``, ``make_operator`` and ``observe``; for
  ``ratings_cv``: writing the planted ratings table to CSV);
* ``job``: the timed part, ending when the result file is written;
* ``check``: untimed validation of the outputs.

``problems`` is how many distinct inputs one seed defines.  Repetitions of a
run cycle through them, so a repeated input must reproduce its output bits.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field

# Relative tolerance for comparing outputs against the committed references.
# Planned kernel rewrites (index-design sampling ALS, BLAS sensing, a
# randomized range finder for spectral init) change summation order, so the
# last bits move; stopping rules with tol 1e-8 can then shift the stopping
# sweep by one, which moves errors far below this bound.  A wrong solver
# moves them by percents.
REFERENCE_RTOL = 1e-4

# Relative first-order optimality bound for the sensing oracle check: the
# last accepted half-sweep solved its block exactly, so that block's
# gradient is zero up to rounding.
STATIONARITY_RTOL = 1e-8

SENSING_NOISE = 0.05
RATINGS_NOISE = 0.1


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problems: int
    solves: int  # attempted solves per repetition
    threads: int = 1  # pool threads the job itself starts
    params: dict = field(default_factory=dict)


def _sweep_args(p: dict) -> list[str]:
    return [
        "sweep-error",
        "--n1", str(p["n1"]), "--n2", str(p["n2"]), "--rank", str(p["rank"]),
        "--d", str(p["d"]), "--m0", str(p["m0"]), "--noise-std", "0.05",
        "--drift-grid", "0.001,1.0", "--strategies", "last_only,optimal",
        "--trials", str(p["trials"]), "--variant", "sampling",
        "--threads", str(p["threads"]),
    ]


def _cv_args(p: dict) -> list[str]:
    return [
        "ratings", "cv", "--d", "3", "--rank", str(p["rank"]), "--gamma", "0.1",
        "--kappa-grid", ",".join(str(k) for k in p["kappa_grid"]),
        "--folds", str(p["folds"]),
    ]


def make_workloads(small: bool = False, threads: int = 2) -> dict[str, Workload]:
    """Workload table.  ``small`` gives reduced sizes for the self-tests."""
    if small:
        sweep = dict(n1=40, n2=30, rank=2, d=4, m0=900, trials=2)
        rat = dict(n_items=40, n_users=50, rank=2, fill=0.4, kappa_grid=(0.1, 10), folds=2)
        sense = dict(n1=20, n2=22, rank=3, m0=500, stored_sweeps=6, replay_sweeps=6)
    else:
        sweep = dict(n1=100, n2=50, rank=5, d=4, m0=4000, trials=10)
        rat = dict(n_items=100, n_users=150, rank=5, fill=0.30,
                   kappa_grid=(0.01, 0.1, 1, 10), folds=3)
        sense = dict(n1=60, n2=65, rank=10, m0=2000, stored_sweeps=10, replay_sweeps=10)
    sweep["threads"] = threads
    common = {k: sense[k] for k in ("n1", "n2", "rank", "m0")}
    return {
        "completion_sweep": Workload(
            "completion_sweep",
            "README sweep-error recipe via the CLI: sampling ALS, spectral init "
            "and the experiments thread pool; the paper's headline result",
            problems=1,
            solves=2 * sweep["trials"] * 2,
            threads=threads,
            params=sweep,
        ),
        "ratings_cv": Workload(
            "ratings_cv",
            "ratings cv via the CLI on a planted table: ingest, binning, "
            "splitting and ridge sampling ALS from random init on uneven bins",
            problems=1,
            solves=len(rat["kappa_grid"]) * rat["folds"],
            params=rat,
        ),
        "sensing_stored": Workload(
            "sensing_stored",
            "dense Gaussian sensing with a stored operator: design assembly "
            "dominates, block production is a slice",
            problems=3,
            solves=1,
            params=dict(common, store=True, max_sweeps=sense["stored_sweeps"]),
        ),
        "sensing_replay": Workload(
            "sensing_replay",
            "the same problems with replayed operators: block regeneration "
            "and the objective dominate, memory stays small",
            problems=3,
            solves=1,
            params=dict(common, store=False, max_sweeps=sense["replay_sweeps"]),
        ),
    }


def problem_stream(seed: int, problem: int):
    from lowems.core import RandomStream

    return RandomStream(seed).child(problem)


# ------------------------------------------------------------------ setup


def setup(wl: Workload, seed: int, problem: int, workdir: str) -> dict:
    """Build the job's inputs.  Returns the state the job and check need."""
    import lowems

    p = wl.params
    if wl.name == "completion_sweep":
        return {}
    if wl.name == "ratings_cv":
        table, _ = lowems.ratings.synthetic_ratings(
            p["n_items"], p["n_users"], p["rank"], 3, fill=p["fill"],
            noise_std=RATINGS_NOISE, drift_std=RATINGS_NOISE * math.sqrt(10.0),
            rng=problem_stream(seed, problem),
        )
        path = os.path.join(workdir, "ratings.csv")
        lowems.ratings.table_to_csv(table, path)
        return {"in": path, "rows": table.n}
    stream = problem_stream(seed, problem)
    truth = lowems.dynamics.generate_truth(
        p["n1"], p["n2"], p["rank"], 1, 0.0, stream.child(0)
    )
    op = lowems.measurement.make_operator(
        "gaussian", p["n1"], p["n2"], p["m0"], stream.child(1), store=p["store"]
    )
    obs = lowems.measurement.observe([op], truth, SENSING_NOISE, stream.child(2))
    return {"truth": truth, "obs": obs, "op_stream": stream.child(1)}


# -------------------------------------------------------------------- job


def job(wl: Workload, seed: int, state: dict, workdir: str) -> tuple[str, object]:
    """Run the timed job; returns (output path, in-memory result or None)."""
    import numpy as np

    import lowems

    p = wl.params
    out = os.path.join(workdir, "out")
    if wl.name == "completion_sweep":
        argv = _sweep_args(p) + ["--out", out + ".csv", "--seed", str(seed)]
    elif wl.name == "ratings_cv":
        argv = _cv_args(p) + ["--in", state["in"], "--out", out + ".csv",
                              "--seed", str(seed)]
    else:
        problem = lowems.solver.LowemsProblem(
            state["obs"], lowems.weights.optimal_weights(1, 0.0), p["rank"]
        )
        sol = lowems.solver.solve(problem, max_sweeps=p["max_sweeps"], tol=1e-9)
        np.save(out + ".npy", sol.X_hat)
        return out + ".npy", sol
    code = lowems.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lowems {' '.join(argv[:2])} exited with {code}")
    return out + ".csv", None


# ------------------------------------------------------------------ check


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def outputs(wl: Workload, state: dict, path: str, result) -> dict:
    """Values compared against references, plus the workload's error.

    ``error`` is the end-to-end quality metric: the squared relative error
    ``||X_hat - X_d||^2 / ||X_d||^2`` (completion: the ``optimal`` row at
    sigma2 = 0.001), and for ``ratings_cv`` the best mean validation RMSE in
    units of the planted rating noise std.
    """
    if wl.name == "completion_sweep":
        rows = _read_csv(path)
        values = {f"{r['sigma2']}/{r['strategy']}": float(r["value"]) for r in rows}
        trials = {f"{r['sigma2']}/{r['strategy']}": int(r["trials"]) for r in rows}
        return {"values": values, "trials": trials,
                "error": values.get("0.001/optimal", math.nan)}
    if wl.name == "ratings_cv":
        rows = _read_csv(path)
        values = {r["kappa"]: float(r["mean_val_rmse"]) for r in rows}
        finite = [v for v in values.values() if math.isfinite(v)]
        best = min(finite) if finite else math.nan
        return {"values": values, "val_rmse": best, "error": best / RATINGS_NOISE}
    import numpy as np

    x_d = state["truth"].X_seq[-1]
    err = float(np.sum((result.X_hat - x_d) ** 2) / np.sum(x_d**2))
    trace = result.objective_trace
    return {"values": {"rel_error": err, "objective": float(trace[-1])},
            "error": err}


def failed_solves(wl: Workload, out: dict, runtime_warnings: int) -> int:
    """Failures the program reports: sweep rows short of their trials, CV
    rows without a finite RMSE, and divergence warnings."""
    failed = runtime_warnings
    if wl.name == "completion_sweep":
        want = wl.params["trials"]
        failed += sum(max(0, want - n) for n in out["trials"].values())
    elif wl.name == "ratings_cv":
        failed += wl.params["folds"] * sum(
            not math.isfinite(v) for v in out["values"].values()
        )
    return min(failed, wl.solves)


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check(wl: Workload, seed: int, problem: int, state: dict, out: dict,
          result, reference: dict | None) -> list[str]:
    """Validate one repetition's outputs; returns a list of failures."""
    errors = []
    values = out["values"]
    if not values or not all(math.isfinite(v) for v in values.values()):
        errors.append(f"non-finite or missing outputs: {values}")
    if wl.name == "completion_sweep":
        expected = {f"{s}/{k}" for s in ("0.001", "1") for k in ("last_only", "optimal")}
        if set(values) != expected:
            errors.append(f"sweep rows {sorted(values)} != {sorted(expected)}")
        elif not values["0.001/optimal"] < values["0.001/last_only"]:
            errors.append(
                "paper claim failed: optimal error "
                f"{values['0.001/optimal']} >= last_only {values['0.001/last_only']}"
                " at sigma2=0.001"
            )
    elif wl.name == "ratings_cv":
        grid = [float(k) for k in values]
        if grid != [float(k) for k in wl.params["kappa_grid"]]:
            errors.append(f"cv kappa grid {grid} != {wl.params['kappa_grid']}")
        if not RATINGS_NOISE * 0.5 < out["val_rmse"] < RATINGS_NOISE * 3:
            errors.append(f"best validation RMSE {out['val_rmse']} implausible")
    else:
        if not 0 < out["error"] < 0.1:
            errors.append(f"relative error {out['error']} implausible")
        errors += _check_sensing(wl, state, result)
    if reference is not None:
        for key, ref in reference["values"].items():
            got = values.get(key)
            if got is None or not _rel_close(got, ref, REFERENCE_RTOL):
                errors.append(
                    f"{key}: {got!r} differs from reference {ref!r} "
                    f"(rtol {REFERENCE_RTOL})"
                )
    return errors


def _check_sensing(wl: Workload, state: dict, sol) -> list[str]:
    """Oracle check independent of the package's operators: regenerate the
    sensing matrices from the documented construction (iid N(0, 1/m) drawn
    sequentially from the operator's stream) and verify that the block
    solved last is at a stationary point, and that the trace never rises."""
    import numpy as np

    errors = []
    trace = sol.objective_trace
    if np.any(np.diff(trace) > 0):
        errors.append("objective trace increases")
    p = wl.params
    n1, n2, m = p["n1"], p["n2"], p["m0"]
    obs = state["obs"]
    y = obs.y[0]
    U, V = sol.factors.U, sol.factors.V
    x = (U @ V.T).ravel()
    gen = state["op_stream"].generator()
    scale = 1.0 / np.sqrt(m)
    grad = np.zeros(n1 * n2)
    back = np.zeros(n1 * n2)
    chunk = 64
    for start in range(0, m, chunk):
        count = min(chunk, m - start)
        a = (gen.standard_normal((count, n1, n2)) * scale).reshape(count, -1)
        r = a @ x - y[start : start + count]
        grad += r @ a
        back += y[start : start + count] @ a
    grad = grad.reshape(n1, n2)
    back_norm = float(np.linalg.norm(back))
    # The last accepted half-sweep is V when the accepted count is even.
    accepted = len(trace) - 1
    if accepted % 2 == 0:
        g, other = grad.T @ U, U
    else:
        g, other = grad @ V, V
    bound = STATIONARITY_RTOL * back_norm * float(np.linalg.norm(other))
    if not float(np.linalg.norm(g)) <= bound:
        errors.append(
            f"last block not stationary: |grad| {np.linalg.norm(g):.3e} > {bound:.3e}"
        )
    return errors
