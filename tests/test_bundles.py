"""Round-trip tests for observation-bundle serialization."""

import numpy as np
import numpy.testing as npt
import pytest

from lowems.bundles import load_bundle, save_bundle
from lowems.core import RandomStream
from lowems.dynamics import generate_truth
from lowems.measurement import ObservationSet, make_operator, observe


def _make_observations(variant, *, store=True, with_truth=True, seed=101):
    root = RandomStream(seed)
    truth = generate_truth(9, 7, 2, 3, 0.05, root.child(0))
    ops = tuple(
        make_operator(variant, 9, 7, 40, root.child(1).child(t), store=store)
        for t in range(3)
    )
    obs = observe(ops, truth, 0.02, root.child(2))
    if with_truth:
        return obs
    return ObservationSet(obs.ops, obs.y, obs.noise_std)


class TestRoundTrip:
    @pytest.mark.parametrize("variant", ["gaussian", "sampling"])
    def test_header_fields_survive(self, variant, tmp_path):
        obs = _make_observations(variant)
        path = tmp_path / "bundle.npz"
        save_bundle(path, obs)
        loaded = load_bundle(path)
        assert loaded.variant == variant
        assert (loaded.n1, loaded.n2, loaded.d) == (9, 7, 3)
        assert loaded.noise_std == 0.02
        assert loaded.m0 == 40

    @pytest.mark.parametrize("variant", ["gaussian", "sampling"])
    def test_observations_bitwise(self, variant, tmp_path):
        obs = _make_observations(variant)
        path = tmp_path / "bundle.npz"
        save_bundle(path, obs)
        loaded = load_bundle(path)
        for y_orig, y_back in zip(obs.y, loaded.y):
            npt.assert_array_equal(y_back, y_orig)

    def test_gaussian_matrices_bitwise(self, tmp_path):
        obs = _make_observations("gaussian")
        path = tmp_path / "bundle.npz"
        save_bundle(path, obs)
        loaded = load_bundle(path)
        for op_orig, op_back in zip(obs.ops, loaded.ops):
            npt.assert_array_equal(op_back.matrices, op_orig.matrices)

    def test_sampling_indices_bitwise(self, tmp_path):
        obs = _make_observations("sampling")
        path = tmp_path / "bundle.npz"
        save_bundle(path, obs)
        loaded = load_bundle(path)
        for op_orig, op_back in zip(obs.ops, loaded.ops):
            npt.assert_array_equal(op_back.rows, op_orig.rows)
            npt.assert_array_equal(op_back.cols, op_orig.cols)

    @pytest.mark.parametrize("variant", ["gaussian", "sampling"])
    def test_truth_survives(self, variant, tmp_path):
        obs = _make_observations(variant)
        path = tmp_path / "bundle.npz"
        save_bundle(path, obs)
        loaded = load_bundle(path)
        assert loaded.truth is not None
        npt.assert_array_equal(loaded.truth.U, obs.truth.U)
        assert loaded.truth.drift_std == obs.truth.drift_std
        for v_orig, v_back in zip(obs.truth.V_seq, loaded.truth.V_seq):
            npt.assert_array_equal(v_back, v_orig)
        # per-bin matrices are recomputed from the factors on load
        for x_orig, x_back in zip(obs.truth.X_seq, loaded.truth.X_seq):
            npt.assert_array_equal(x_back, x_orig)

    def test_truth_absent_loads_as_none(self, tmp_path):
        obs = _make_observations("sampling", with_truth=False)
        path = tmp_path / "bundle.npz"
        save_bundle(path, obs)
        loaded = load_bundle(path)
        assert loaded.truth is None


class TestReplayMaterialization:
    def test_replay_operator_is_stored_after_round_trip(self, tmp_path):
        obs = _make_observations("gaussian", store=False)
        assert all(op.matrices is None for op in obs.ops)
        path = tmp_path / "bundle.npz"
        save_bundle(path, obs)
        loaded = load_bundle(path)
        assert all(op.matrices is not None for op in loaded.ops)

    def test_replay_action_preserved(self, tmp_path):
        obs = _make_observations("gaussian", store=False)
        path = tmp_path / "bundle.npz"
        save_bundle(path, obs)
        loaded = load_bundle(path)
        x = RandomStream(5).generator().standard_normal((9, 7))
        for op_orig, op_back in zip(obs.ops, loaded.ops):
            npt.assert_array_equal(op_back.apply(x), op_orig.apply(x))

    def test_stored_and_replay_bundles_round_trip_unchanged(self, tmp_path):
        stored = _make_observations("gaussian")
        replay = _make_observations("gaussian", store=False)
        for name, obs in (("stored", stored), ("replay", replay)):
            path = tmp_path / f"{name}.npz"
            save_bundle(path, obs)
            loaded = load_bundle(path)
            for t, op_back in enumerate(loaded.ops):
                npt.assert_array_equal(op_back.matrices, stored.ops[t].matrices)
                npt.assert_array_equal(loaded.y[t], obs.y[t])


class TestFormatGuard:
    def test_unknown_format_version_rejected(self, tmp_path):
        obs = _make_observations("sampling")
        path = tmp_path / "bundle.npz"
        save_bundle(path, obs)
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        payload["format"] = np.asarray(99)
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="format"):
            load_bundle(path)
