#!/usr/bin/env python3
"""Regenerate ``reference.json``: each workload's output values and SHA-256
per seed and input, from the program as it is now.

    python3 perfbench/make_reference.py --seeds 0-19

Run it only when a change is meant to alter results, and say so: the
benchmark compares every run against these values (at ``REFERENCE_RTOL``).
The two sensing workloads share one entry, because a replayed operator must
reproduce the stored one bit for bit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from run import HERE, Runner  # also pins the BLAS threads
from workloads import make_workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-19", help="range lo-hi, inclusive")
    args = ap.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    root = os.getcwd()
    workdir = os.path.join(HERE, ".work", f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    table: dict = {}
    try:
        for name, wl in make_workloads().items():
            if name == "sensing_replay":
                continue
            key = "sensing" if name.startswith("sensing") else name
            for seed in range(lo, hi + 1):
                entries = []
                for problem in range(wl.problems):
                    r = Runner(root, name, seed, wl.threads, workdir).rep(problem, 0)
                    if r.get("errors"):
                        print(f"{name} seed {seed}: {r['errors']}", file=sys.stderr)
                        return 1
                    entries.append({"values": r["values"], "sha256": r["sha256"]})
                table.setdefault(key, {})[str(seed)] = entries
                print(f"{name} seed {seed}: ok", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
