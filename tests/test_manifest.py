"""Every CLI command's primary outputs, at reduced size, against the
committed manifest (regenerated by ``tests/make_manifest.py``): their values
at ``RTOL`` on any platform, their bytes on the platform it records.  Where
only the BLAS thread variables differ from the recorded platform, the bytes
are checked on a child run with the recorded ones."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lowems
from make_manifest import MANIFEST, RTOL, THREAD_VARS, fingerprint, run_recipes


@pytest.fixture(scope="module")
def recipes(tmp_path_factory):
    return run_recipes(tmp_path_factory.mktemp("manifest"))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


def _mismatch(actual, expected) -> str | None:
    """Why one output value differs from its manifest value, or None."""
    if isinstance(expected, str) or (
        isinstance(expected, list) and any(isinstance(e, str) for e in expected)
    ):
        return None if actual == expected else f"{actual!r} != {expected!r}"
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        return f"shape {a.shape} != {e.shape}"
    finite = np.abs(e[np.isfinite(e)])
    atol = RTOL * (finite.max() if finite.size else 0.0)
    if np.allclose(a, e, rtol=0.0, atol=atol, equal_nan=True):
        return None
    worst = np.nanmax(np.abs(a - e))
    return f"max abs difference {worst:.3g} > {atol:.3g}"


def test_every_output_matches_the_manifest(recipes, manifest):
    entries, _, _ = recipes
    assert sorted(entries) == sorted(manifest["values"])
    moved = []
    for output, members in manifest["values"].items():
        assert sorted(entries[output]) == sorted(members), output
        for member, expected in members.items():
            why = _mismatch(entries[output][member], expected)
            if why:
                moved.append(f"{output} [{member}]: {why}")
    assert not moved, "outputs moved:\n" + "\n".join(moved)


# The recipes in a fresh interpreter; prints its fingerprint and hashes as
# the last line.
_CHILD = """
import json, sys, tempfile
from pathlib import Path
from make_manifest import fingerprint, run_recipes
with tempfile.TemporaryDirectory() as tmp:
    hashes = run_recipes(Path(tmp))[1]
print(json.dumps({"platform": fingerprint(), "sha256": hashes}))
"""


def _pinned_run(recorded: dict) -> tuple[dict, dict]:
    """The fingerprint and output SHA-256s of the recipes run in a child
    process whose BLAS threads are the recorded ones.  The pins are set
    explicitly: this process's environment may not be the one its BLAS read
    (perfbench/run.py rewrites them when a test session imports it)."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({k: recorded[k] for k in THREAD_VARS if recorded[k] is not None})
    paths = [Path(lowems.__file__).parents[1], Path(__file__).parent]
    env["PYTHONPATH"] = os.pathsep.join([*map(str, paths), env.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    return result["platform"], result["sha256"]


def test_every_output_has_the_manifest_bytes(recipes, manifest):
    _, hashes, _ = recipes
    assert sorted(hashes) == sorted(manifest["sha256"])
    here, recorded = fingerprint(), manifest["platform"]
    differs = {k: (here.get(k), v) for k, v in recorded.items() if here.get(k) != v}
    if differs and set(differs) <= set(THREAD_VARS):
        child, hashes = _pinned_run(recorded)
        assert child == recorded, "the pinned child run is not on the recorded platform"
    elif differs:
        pytest.skip(f"hash level only on the recorded platform; (here, recorded): {differs}")
    moved = [out for out, sha in manifest["sha256"].items() if hashes[out] != sha]
    assert not moved, f"outputs whose bytes moved: {moved}"


def test_every_solve_stops_on_tol(recipes):
    _, _, solves = recipes
    # solve 2, sweep-error 12, ratings 8, and sweep-samples 5: one of its
    # densities is decided by its first trial, so its second is not solved
    assert len(solves) == 27
    capped = [s for s in solves if not s[2]]
    assert not capped, f"solves that did not stop on tol: {capped}"
