"""One repetition of a benchmark workload, in a fresh process.

Started by ``run.py``; prints one JSON object as its last stdout line.  The
process imports ``lowems`` from ``src/`` of the current directory, builds the
workload's inputs (set-up), runs the job, then checks the outputs untimed.
``setup_s`` counts from ``--launch``, the parent's monotonic clock just
before it started this process, so it includes interpreter start and
imports.  ``peak_rss_mb`` is read when the job ends, before the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import lowems
    import lowems.cli  # noqa: F401  (the CLI entry point imports these)
    import lowems.ratings  # noqa: F401

    where = os.path.realpath(lowems.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"lowems imported from {where}, not from {src}")
    return lowems


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _load_reference(here: str, wl, seed: int, problem: int):
    with open(os.path.join(here, "reference.json")) as fh:
        table = json.load(fh)
    key = "sensing" if wl.name.startswith("sensing") else wl.name
    per_seed = table.get(key, {}).get(str(seed))
    return per_seed[problem] if per_seed else None


def run(args) -> dict:
    root = os.getcwd()
    lowems = _import_program(root)
    from spans import Tracer, WarningCounter, install
    from workloads import check, failed_solves, job, make_workloads, outputs, setup, sha256_file

    if args.warmup:
        return {"versions": _versions()}
    wl = make_workloads(small=args.small, threads=args.threads)[args.workload]
    warned = WarningCounter([lowems.solver.RankDeficiencyWarning, RuntimeWarning])
    tracer = Tracer()
    if args.trace:
        install(tracer)
    state = setup(wl, args.seed, args.problem, args.workdir)
    started = time.monotonic()
    setup_s = started - args.launch
    path, result = job(wl, args.seed, state, args.workdir)
    run_s = time.monotonic() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    out = outputs(wl, state, path, result)
    here = os.path.dirname(os.path.abspath(__file__))
    reference = None if args.small else _load_reference(here, wl, args.seed, args.problem)
    errors = check(wl, args.seed, args.problem, state, out, result, reference)
    failed = failed_solves(wl, out, warned.diverged)
    digest = sha256_file(path)
    report = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "error": out["error"],
        "values": out["values"],
        "sha256": digest,
        "reference_sha256": reference.get("sha256") if reference else None,
        "attempted": wl.solves,
        "failed": wl.solves if errors else failed,
        "errors": errors,
        "warnings": dict(warned.counts),
    }
    if args.trace:
        tracer.counts["solver.fallbacks"] = warned.counts.get("RankDeficiencyWarning", 0)
        report["layers"], report["layer_notes"] = tracer.metrics(run_s, wl.threads)
        report["trace_missing"] = tracer.missing
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--problem", type=int, default=0)
    ap.add_argument("--workdir", default=".")
    ap.add_argument("--launch", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--small", action="store_true", help="reduced sizes (self-tests)")
    ap.add_argument("--warmup", action="store_true", help="import only, report versions")
    args = ap.parse_args(argv)
    if args.launch is None:
        args.launch = time.monotonic()
    try:
        report = run(args)
    except Exception:
        report = {"errors": [traceback.format_exc()]}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
