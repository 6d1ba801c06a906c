"""Every CLI command's primary outputs, at reduced size, against the
committed manifest (regenerated by ``tests/make_manifest.py``): their values
at ``RTOL`` on any platform, their bytes on the platform it records."""

import json

import numpy as np
import pytest

from make_manifest import MANIFEST, RTOL, fingerprint, run_recipes


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


def test_every_output_has_the_manifest_bytes(recipes, manifest):
    _, hashes, _ = recipes
    assert sorted(hashes) == sorted(manifest["sha256"])
    here, recorded = fingerprint(), manifest["platform"]
    if here != recorded:
        differs = {k: (here.get(k), v) for k, v in recorded.items() if here.get(k) != v}
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
