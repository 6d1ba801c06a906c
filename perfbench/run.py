#!/usr/bin/env python3
"""lowems benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each repetition runs in a fresh worker process (``worker.py``): import,
set-up, the timed job, then an untimed output check.  Repetitions continue
until ``--seconds`` have passed and every input of the seed has run at least
once (and at least ``MIN_REPS`` times in all); metrics are medians over
repetitions.  With ``--trace 1`` every repetition is a pair, untraced then
traced on the same input, and the per-layer metrics come from the traced
half.  The last stdout line is the JSON result; the line before it holds
run information (thread counts, versions, output hashes).

BLAS is pinned to one thread in this process's environment, which the
workers inherit: output bits depend on the BLAS thread count.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import per_layer_units  # noqa: E402
from workloads import make_workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "error": "ratio"}
MIN_REPS = 3
REP_TIMEOUT_S = 150.0
# Start no repetition that could end after this many seconds.
DEADLINE_S = 165.0


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "lowems", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


class Runner:
    """Starts worker processes for one workload and keeps their reports."""

    def __init__(self, root: str, workload: str, seed: int, threads: int, workdir: str):
        self.root, self.workload, self.seed = root, workload, seed
        self.threads, self.workdir = threads, workdir
        self.env = dict(os.environ, PYTHONHASHSEED="0", **PIN)

    def launch(self, *extra: str) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--threads", str(self.threads), "--workdir", self.workdir, *extra]
        cmd += ["--launch", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"errors": [f"worker timed out after {REP_TIMEOUT_S} s"]}
        lines = proc.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            report = {"errors": [f"worker exited {proc.returncode} without a report"]}
        if proc.returncode != 0:
            report.setdefault("errors", []).append(f"worker exited {proc.returncode}")
        if report.get("errors"):
            report["stderr"] = proc.stderr[-4000:]
        return report

    def rep(self, problem: int, trace: int) -> dict:
        return self.launch("--workload", self.workload, "--seed", str(self.seed),
                           "--problem", str(problem), "--trace", str(trace))


def measure(root: str, name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one workload; returns (result, info)."""
    nproc = _nproc()
    threads = min(2, nproc)
    wl = make_workloads(threads=threads)[name]
    workdir = os.path.join(HERE, ".work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(root, name, seed, threads, workdir)
        warm = runner.launch("--warmup")  # fills file caches and .pyc files
        if warm.get("errors"):
            raise RuntimeError("cannot import lowems:\n" + "\n".join(warm["errors"])
                               + warm.get("stderr", ""))
        plain, traced = [], []
        min_rounds = max(wl.problems, MIN_REPS if not trace else 2)
        started = time.monotonic()
        longest = 0.0
        while True:
            t0 = time.monotonic()
            problem = len(plain) % wl.problems
            plain.append(dict(runner.rep(problem, 0), problem=problem))
            if trace:
                traced.append(dict(runner.rep(problem, 1), problem=problem))
            longest = max(longest, time.monotonic() - t0)
            elapsed = time.monotonic() - started
            if len(plain) >= min_rounds and elapsed >= seconds:
                break
            if elapsed + longest > DEADLINE_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return summarize(wl, plain, traced, trace), {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "nproc": nproc,
        "blas_threads": int(PIN["OPENBLAS_NUM_THREADS"]),
        "pool_threads": wl.threads,
        "versions": warm.get("versions"),
        "src_lowems_lines": _src_lines(root),
        "reps": len(plain),
        "run_s_samples": [r.get("run_s") for r in plain],
        "sha256": _hashes(plain),
        "reference_sha256_match": _reference_match(plain),
        "layer_notes": traced[0].get("layer_notes") if traced else None,
        "trace_missing": traced[0].get("trace_missing") if traced else None,
    }


def _hashes(reps: list[dict]) -> dict:
    return {str(r["problem"]): r.get("sha256") for r in reps}


def _reference_match(reps: list[dict]) -> dict:
    return {
        str(r["problem"]): r["sha256"] == r["reference_sha256"]
        for r in reps
        if r.get("reference_sha256") and r.get("sha256")
    }


def summarize(wl, plain: list[dict], traced: list[dict], trace: int) -> dict:
    problems: list[str] = []
    attempted = failed = 0
    for r in plain + traced:
        attempted += r.get("attempted", wl.solves)
        failed += r.get("failed", wl.solves)
        for e in r.get("errors", []):
            problems.append(f"problem {r['problem']}: {e}")
            if r.get("stderr"):
                problems.append(r["stderr"])
    by_problem: dict[int, set] = {}
    for r in plain + traced:
        if r.get("sha256"):
            by_problem.setdefault(r["problem"], set()).add(r["sha256"])
    for p, digests in sorted(by_problem.items()):
        if len(digests) > 1:
            problems.append(f"problem {p}: outputs differ between repetitions"
                            f"{' (traced vs untraced)' if trace else ''}: {sorted(digests)}")
    for line in problems:
        print(line, file=sys.stderr)
    # Repetitions whose outputs failed a check still have valid timings.
    ok = [r for r in plain if "run_s" in r]
    ok_traced = [r for r in traced if "layers" in r]
    if not ok or (trace and not ok_traced):
        raise RuntimeError(f"{wl.name}: no repetition produced a result")
    if trace:
        layers = {k: statistics.median(r["layers"][k] for r in ok_traced)
                  for k in ok_traced[0]["layers"]}
        plain_run = statistics.median(r["run_s"] for r in ok)
        traced_run = statistics.median(r["run_s"] for r in ok_traced)
        layers["trace.overhead_frac"] = traced_run / plain_run - 1.0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer_units().items()}
    else:
        first = {}
        for r in ok:
            first.setdefault(r["problem"], r)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in ok),
            "run_s": statistics.median(r["run_s"] for r in ok),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "error": statistics.fmean(r["error"] for r in first.values()),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    names = list(make_workloads())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lowems", "__init__.py")):
        print("perfbench: src/lowems not found; run from the root of a lowems checkout",
              file=sys.stderr)
        return 2
    todo = names if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in todo:
        try:
            result, info = measure(root, name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if args.workload != "all":
            print(json.dumps({"info": info}))
            print(json.dumps(result))
            return 0
        for key, m in result["metrics"].items():
            print(f"{name:18s} {key:40s} {m['value']:.6g} {m['unit']}")
        print(f"{name:18s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} reps={info['reps']}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
