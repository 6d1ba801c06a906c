"""The reproducibility manifest: every CLI command run once at reduced size,
and the values and SHA-256 of every primary output it writes.

``tests/test_manifest.py`` runs the same recipes and compares each output
with ``tests/data/manifest.json`` at two levels: its values at ``RTOL``
everywhere, and its bytes (SHA-256 of each output file and of each
recipe's stdout) exactly, but only on the platform the manifest records.
A change that moves an output regenerates the manifest, so its diff lists
the moved outputs::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python tests/make_manifest.py

The sizes are chosen so that every solve stops on its ``tol`` test well
before ``max_sweeps``: a capped solve drifts, and where it ends depends on
the last bits of the BLAS kernels.  The script refuses to write a manifest
otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from lowems import cli, experiments, ratings, solver
from lowems.core import RandomStream

MANIFEST = Path(__file__).parent / "data" / "manifest.json"

# Each value is compared with its manifest value to within RTOL times the
# largest magnitude in the same array or CSV column: tight enough that only
# rounding passes, loose enough for another CPU's BLAS kernels.
RTOL = 1e-9

_SAMPLING = ["--n1", "12", "--n2", "10", "--rank", "2", "--d", "3", "--noise-std", "0.05"]
_RATINGS = ["--in", "clean.csv", "--d", "3", "--rank", "2", "--gamma", "0.5"]

# (name, argv, output files); every path is relative to the run directory.
RECIPES = [
    ("generate-sampling",
     ["generate", *_SAMPLING, "--m0", "90", "--drift-std", "0.05",
      "--out", "sampling.npz", "--dump-x", "planted", "--seed", "7"],
     ["sampling.npz", "planted_0.csv", "planted_1.csv", "planted_2.csv"]),
    ("generate-gaussian",
     ["generate", "--n1", "6", "--n2", "5", "--rank", "1", "--d", "2", "--m0", "50",
      "--noise-std", "0.05", "--drift-std", "0.02", "--variant", "gaussian",
      "--out", "gaussian.npz", "--seed", "8"],
     ["gaussian.npz"]),
    ("solve-sampling",
     ["solve", "--bundle", "sampling.npz", "--weights", "optimal", "--kappa", "0.04",
      "--rank", "2", "--out-x", "xhat-sampling.csv", "--out-trace", "trace-sampling.csv"],
     ["xhat-sampling.csv", "trace-sampling.csv"]),
    ("solve-gaussian",
     ["solve", "--bundle", "gaussian.npz", "--weights", "equal", "--rank", "1",
      "--init", "random", "--seed", "3", "--max-entry", "0.3",
      "--out-x", "xhat-gaussian.csv", "--out-trace", "trace-gaussian.csv"],
     ["xhat-gaussian.csv", "trace-gaussian.csv"]),
    ("sweep-error",
     ["sweep-error", *_SAMPLING, "--m0", "150", "--drift-grid", "0.001,0.5",
      "--trials", "2", "--out", "sweep.csv", "--diagnostics-out", "diag.csv",
      "--seed", "1234"],
     ["sweep.csv", "diag.csv"]),
    ("sweep-samples",
     ["sweep-samples", *_SAMPLING, "--drift-grid", "0.001",
      "--strategies", "last_only,optimal", "--trials", "2", "--p-grid", "0.8,1.0",
      "--success-threshold", "0.01", "--out", "samples.csv", "--seed", "777"],
     ["samples.csv"]),
    ("rip-probe",
     ["rip-probe", "--n1", "8", "--n2", "6", "--m0", "100", "--d", "2", "--rank", "2",
      "--trials", "20", "--out", "rip.csv", "--seed", "9000"],
     ["rip.csv"]),
    ("ratings-ingest",
     ["ratings", "ingest", "--in", "raw.csv", "--min-user-ratings", "18",
      "--min-item-ratings", "12", "--out", "clean.csv"],
     ["clean.csv"]),
    ("ratings-cv",
     ["ratings", "cv", *_RATINGS, "--kappa-grid", "0.1,1,10", "--folds", "2",
      "--out", "cv.csv", "--seed", "42"],
     ["cv.csv"]),
    ("ratings-eval",
     ["ratings", "eval", *_RATINGS, "--kappa", "1", "--restarts", "2",
      "--out", "eval.csv", "--seed", "43"],
     ["eval.csv"]),
]

# Output bits depend on the BLAS thread count.  BLAS reads these when numpy
# loads it, so they are read once, on import: a later change to the
# environment (perfbench/run.py pins them when a test session imports it)
# does not reach the running BLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_THREADS = {v: os.environ.get(v) for v in THREAD_VARS}


def fingerprint() -> dict:
    """The platform whose output bytes the manifest's hashes record."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        **_THREADS,
    }


_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)(?!\w)")


def _column(cells: list[str]):
    """A CSV column as floats where every cell parses, else as text."""
    try:
        return [float(c) for c in cells]
    except ValueError:
        return cells


def read_output(path: Path) -> dict:
    """An output file as named arrays: an ``.npz`` bundle by member, a CSV
    table by header column, a headerless matrix as ``values``."""
    if path.suffix == ".npz":
        with np.load(path) as data:
            members = {name: data[name] for name in data.files}
        return {k: str(v) if v.dtype.kind == "U" else v.tolist() for k, v in members.items()}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if all(_NUMBER.fullmatch(c) for c in rows[0]):
        return {"values": np.loadtxt(path, delimiter=",", ndmin=2).tolist()}
    return {h: _column(list(col)) for h, col in zip(rows[0], zip(*rows[1:]))}


def read_stdout(text: str) -> dict:
    """Printed lines as their text with each number replaced by ``#``, and
    the numbers."""
    numbers = [float(n) for n in _NUMBER.findall(text)]
    return {"text": _NUMBER.sub("#", text), "numbers": numbers}


@contextlib.contextmanager
def recorded_solves(stops: list):
    """Append ``(iterations, stopped_on_tol)`` for every solve the CLI runs:
    a solve stopped on its ``tol`` test before the sweep cap."""
    def recording(problem, **kwargs):
        sol = solver.solve(problem, **kwargs)
        on_tol = sol.stop_reason == "tol" and sol.iterations < kwargs["max_sweeps"]
        stops.append((sol.iterations, on_tol))
        return sol

    modules = (cli, experiments, ratings)
    try:
        for module in modules:
            module.solve = recording
        yield
    finally:
        for module in modules:
            module.solve = solver.solve


def write_ratings_input(path: Path) -> None:
    table, _ = ratings.synthetic_ratings(
        20, 15, 2, 3, fill=0.4, noise_std=0.05, drift_std=0.05, rng=RandomStream(11)
    )
    ratings.table_to_csv(table, path)


def run_recipes(workdir: Path) -> tuple[dict, dict, list]:
    """Run every recipe in ``workdir`` and read its outputs.  Returns the
    manifest's values and SHA-256s, by output, and one ``(recipe,
    iterations, stopped_on_tol)`` per solve."""
    write_ratings_input(workdir / "raw.csv")
    entries, hashes, solves = {}, {}, []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv, outputs in RECIPES:
            stops: list = []
            stdout, stderr = io.StringIO(), io.StringIO()
            with recorded_solves(stops), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{name} exited {code}: {stderr.getvalue()}")
            entries[f"{name}: stdout"] = read_stdout(stdout.getvalue())
            hashes[f"{name}: stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            for out in outputs:
                entries[f"{name}: {out}"] = read_output(workdir / out)
                data = (workdir / out).read_bytes()
                hashes[f"{name}: {out}"] = hashlib.sha256(data).hexdigest()
            solves += [(name, *s) for s in stops]
    finally:
        os.chdir(cwd)
    return entries, hashes, solves


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        entries, hashes, solves = run_recipes(Path(tmp))
    capped = [s for s in solves if not s[2]]
    if capped:
        print(f"solves that did not stop on tol: {capped}", file=sys.stderr)
        return 1
    MANIFEST.parent.mkdir(exist_ok=True)
    sections = {"platform": fingerprint(), "sha256": hashes, "values": entries}
    # one line per entry, so the diff of a regenerated manifest names what moved
    body = ",\n".join(
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in section.items())
        + "\n }"
        for name, section in sections.items()
    )
    MANIFEST.write_text("{\n" + body + "\n}\n")
    most = max(s[1] for s in solves)
    print(f"wrote {MANIFEST}: {len(entries)} outputs, {len(solves)} solves, "
          f"at most {most} sweeps each")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
