import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lowems import measurement
from lowems.core import RandomStream, frobenius_norm
from lowems.dynamics import generate_truth
from lowems.measurement import (
    GaussianOperator,
    ObservationSet,
    SamplingOperator,
    estimate_rip,
    isometry_gap,
    make_operator,
    observe,
)
from lowems.weights import baseline_weights, optimal_weights


class TestGaussianOperator:
    def test_apply_matches_inner_product_oracle(self):
        op = make_operator("gaussian", 6, 5, 12, RandomStream(1))
        x = RandomStream(2).generator().standard_normal((6, 5))
        y = op.apply(x)
        for i in range(12):
            expected = float(np.sum(op.matrices[i] * x))
            assert abs(y[i] - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_adjoint_identity(self):
        op = make_operator("gaussian", 8, 7, 20, RandomStream(3))
        gen = RandomStream(4).generator()
        for _ in range(25):
            x = gen.standard_normal((8, 7))
            b = gen.standard_normal(20)
            lhs = float(op.apply(x) @ b)
            rhs = float(np.sum(x * op.adjoint(b)))
            assert abs(lhs - rhs) <= 1e-10 * frobenius_norm(x) * np.linalg.norm(b)

    def test_entry_variance_near_one_over_m(self):
        m, n1, n2 = 50, 20, 15  # m * n1 * n2 = 15000 samples
        op = make_operator("gaussian", n1, n2, m, RandomStream(5))
        var = float(np.var(op.matrices))
        assert abs(var - 1.0 / m) <= 0.20 / m

    def test_replay_matches_stored_bitwise(self):
        stored = make_operator("gaussian", 9, 6, 17, RandomStream(6))
        replay = make_operator("gaussian", 9, 6, 17, RandomStream(6), store=False)
        assert replay.matrices is None
        gen = RandomStream(7).generator()
        x = gen.standard_normal((9, 6))
        b = gen.standard_normal(17)
        np.testing.assert_array_equal(stored.apply(x), replay.apply(x))
        np.testing.assert_array_equal(stored.adjoint(b), replay.adjoint(b))
        # replay mode regenerates; a second use must give the same answer
        np.testing.assert_array_equal(replay.apply(x), replay.apply(x))

    def test_replay_matches_stored_across_block_boundaries(self):
        # n1 * n2 > 2^22 forces one measurement per generation block
        n1, n2, m = 2100, 2000, 3
        stored = make_operator("gaussian", n1, n2, m, RandomStream(8))
        replay = make_operator("gaussian", n1, n2, m, RandomStream(8), store=False)
        x = RandomStream(9).generator().standard_normal((n1, n2))
        np.testing.assert_array_equal(stored.apply(x), replay.apply(x))

    def test_stored_stack_equals_concatenated_blocks(self, monkeypatch):
        # m = 17 is not a multiple of the 5-row blocks; the oracle is the
        # construction the stack was once concatenated from
        monkeypatch.setattr(measurement, "_block_rows", lambda n1, n2: 5)
        n1, n2, m = 4, 3, 17
        stored = make_operator("gaussian", n1, n2, m, RandomStream(12))
        replay = make_operator("gaussian", n1, n2, m, RandomStream(12), store=False)
        gen = RandomStream(12).generator()
        oracle = np.concatenate(
            [gen.standard_normal((min(5, m - s), n1, n2)) * (1.0 / np.sqrt(m)) for s in range(0, m, 5)]
        )
        blocks = list(replay.iter_blocks())
        assert [start for start, _ in blocks] == [0, 5, 10, 15]
        np.testing.assert_array_equal(stored.matrices, oracle)
        np.testing.assert_array_equal(
            stored.matrices, np.concatenate([block for _, block in blocks])
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_replay_pass_equals_the_stored_stack(self, monkeypatch, workers):
        # 5-row blocks of m = 17: the last block has 2 rows, fewer than 3 workers
        monkeypatch.setattr(measurement, "_block_rows", lambda n1, n2: 5)
        monkeypatch.setattr(measurement, "_workers", lambda: workers)
        stored = make_operator("gaussian", 4, 3, 17, RandomStream(12))
        replay = make_operator("gaussian", 4, 3, 17, RandomStream(12), store=False)
        for _ in range(3):
            blocks = list(replay.iter_blocks())
            assert [start for start, _ in blocks] == [0, 5, 10, 15]
            np.testing.assert_array_equal(
                stored.matrices, np.concatenate([block for _, block in blocks])
            )
        assert [len(pieces) for pieces in replay._pieces] == [workers] * 4
        # positions recorded with one worker count replay under another
        for later in (1, 2, 3):
            monkeypatch.setattr(measurement, "_workers", lambda: later)
            np.testing.assert_array_equal(
                stored.matrices, np.concatenate([block for _, block in replay.iter_blocks()])
            )

    def test_abandoned_first_pass_records_nothing(self, monkeypatch):
        monkeypatch.setattr(measurement, "_block_rows", lambda n1, n2: 5)
        monkeypatch.setattr(measurement, "_workers", lambda: 2)
        stored = make_operator("gaussian", 4, 3, 17, RandomStream(12))
        replay = make_operator("gaussian", 4, 3, 17, RandomStream(12), store=False)
        blocks = replay.iter_blocks()
        _, block = next(blocks)
        np.testing.assert_array_equal(block, stored.matrices[:5])
        blocks.close()
        assert "_pieces" not in replay.__dict__
        for _ in range(2):
            np.testing.assert_array_equal(
                stored.matrices, np.concatenate([block for _, block in replay.iter_blocks()])
            )
            assert len(replay._pieces) == 4

    def test_concurrent_passes_on_one_replay_operator(self, monkeypatch):
        # more callers and pieces than cores, with frequent thread switches:
        # racing first passes may each record, and every pass stays exact
        monkeypatch.setattr(measurement, "_block_rows", lambda n1, n2: 5)
        monkeypatch.setattr(measurement, "_workers", lambda: 3)
        stored = make_operator("gaussian", 4, 3, 17, RandomStream(12))
        replay = make_operator("gaussian", 4, 3, 17, RandomStream(12), store=False)
        x = RandomStream(15).generator().standard_normal((4, 3))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as callers:
                futures = [callers.submit(replay.apply, x) for _ in range(24)]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            np.testing.assert_array_equal(result, stored.apply(x))

    @pytest.mark.parametrize("method", ["apply", "adjoint"])
    def test_replay_keeps_one_block_alive(self, monkeypatch, method):
        # 40-row blocks of 30x30 float64 (288 kB); m = 400 draws ten of them.
        # The first pass records the pieces' positions, the second draws the
        # pieces in parallel; both are measured.
        monkeypatch.setattr(measurement, "_block_rows", lambda n1, n2: 40)
        monkeypatch.setattr(measurement, "_workers", lambda: 2)
        n1, n2, m = 30, 30, 400
        block_bytes = 40 * n1 * n2 * 8
        stored = make_operator("gaussian", n1, n2, m, RandomStream(13))
        replay = make_operator("gaussian", n1, n2, m, RandomStream(13), store=False)
        gen = RandomStream(14).generator()
        arg = gen.standard_normal((n1, n2)) if method == "apply" else gen.standard_normal(m)
        for recorded in (False, True):
            assert ("_pieces" in replay.__dict__) == recorded
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                result = getattr(replay, method)(arg)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * block_bytes
            np.testing.assert_array_equal(result, getattr(stored, method)(arg))

    def test_validation(self):
        op = make_operator("gaussian", 4, 3, 5, RandomStream(10))
        with pytest.raises(ValueError):
            op.apply(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            op.adjoint(np.zeros(6))
        with pytest.raises(ValueError):
            GaussianOperator(4, 3, 5, matrices=None, source=None)
        with pytest.raises(ValueError):
            GaussianOperator(4, 3, 5, matrices=np.zeros((5, 3, 4)), source=None)


class TestSamplingOperator:
    def test_apply_reads_requested_entries(self):
        x = np.arange(12.0).reshape(3, 4)
        op = SamplingOperator(3, 4, rows=np.array([0, 2, 1]), cols=np.array([3, 0, 1]))
        np.testing.assert_array_equal(op.apply(x), [3.0, 8.0, 5.0])

    def test_adjoint_accumulates_duplicates(self):
        op = SamplingOperator(2, 2, rows=np.array([0, 0, 1]), cols=np.array([0, 0, 1]))
        out = op.adjoint(np.array([1.0, 1.0, 5.0]))
        np.testing.assert_array_equal(out, [[2.0, 0.0], [0.0, 5.0]])

    def test_flat_is_the_row_major_position_and_read_only(self):
        op = make_operator("sampling", 8, 7, 30, RandomStream(15))
        np.testing.assert_array_equal(op.flat, op.rows * 7 + op.cols)
        with pytest.raises(ValueError):
            op.flat[0] = 0

    def test_apply_matches_fancy_indexing_on_a_transposed_input(self):
        rows, cols = np.array([0, 2, 2, 1, 0, 2]), np.array([3, 0, 0, 1, 3, 2])
        op = SamplingOperator(3, 4, rows, cols)
        x = RandomStream(16).generator().standard_normal((4, 3)).T
        assert not x.flags.c_contiguous
        got = op.apply(x)
        assert got.tobytes() == x[rows, cols].tobytes()
        assert not np.shares_memory(got, x)

    def test_adjoint_matches_bincount_of_the_positions(self):
        op = make_operator("sampling", 6, 5, 80, RandomStream(17))  # duplicates
        assert len(set(op.flat.tolist())) < op.m
        b = RandomStream(18).generator().standard_normal(80)
        want = np.bincount(op.rows * 5 + op.cols, b, 30).reshape(6, 5)
        assert op.adjoint(b).tobytes() == want.tobytes()

    def test_adjoint_identity(self):
        op = make_operator("sampling", 8, 7, 30, RandomStream(11))
        gen = RandomStream(12).generator()
        for _ in range(25):
            x = gen.standard_normal((8, 7))
            b = gen.standard_normal(30)
            lhs = float(op.apply(x) @ b)
            rhs = float(np.sum(x * op.adjoint(b)))
            assert abs(lhs - rhs) <= 1e-10 * frobenius_norm(x) * np.linalg.norm(b)

    def test_density_property(self):
        op = make_operator("sampling", 10, 10, 25, RandomStream(13))
        assert op.m == 25
        assert op.p == pytest.approx(0.25)

    def test_caller_arrays_stay_writeable(self):
        r, c = np.array([0, 1]), np.array([1, 0])
        op = SamplingOperator(2, 2, r, c)
        assert r.flags.writeable and c.flags.writeable
        assert op.rows is not r and op.cols is not c
        r[0] = 1
        np.testing.assert_array_equal(op.rows, [0, 1])
        with pytest.raises(ValueError):
            op.rows[0] = 1

    def test_deterministic_draw(self):
        a = make_operator("sampling", 10, 9, 40, RandomStream(14))
        b = make_operator("sampling", 10, 9, 40, RandomStream(14))
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(a.cols, b.cols)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            SamplingOperator(2, 2, rows=np.array([2]), cols=np.array([0]))
        with pytest.raises(ValueError):
            SamplingOperator(2, 2, rows=np.array([0]), cols=np.array([-1]))
        with pytest.raises(ValueError):
            SamplingOperator(2, 2, rows=np.array([0, 1]), cols=np.array([0]))


def test_make_operator_validation():
    with pytest.raises(ValueError):
        make_operator("fourier", 4, 4, 5, RandomStream(0))
    with pytest.raises(ValueError):
        make_operator("gaussian", 4, 4, 0, RandomStream(0))


class TestObserve:
    def test_noiseless_observations_are_exact(self):
        truth = generate_truth(7, 6, 2, 3, 0.2, RandomStream(20))
        ops = [make_operator("sampling", 7, 6, 15, RandomStream(21).child(t)) for t in range(3)]
        obs = observe(ops, truth, 0.0, RandomStream(22))
        for t in range(3):
            np.testing.assert_array_equal(obs.y[t], ops[t].apply(truth.X_seq[t]))

    def test_noise_standard_deviation(self):
        sigma1 = 0.05
        truth = generate_truth(30, 25, 3, 1, 0.0, RandomStream(23))
        ops = [make_operator("sampling", 30, 25, 5000, RandomStream(24))]
        obs = observe(ops, truth, sigma1, RandomStream(25))
        residual = obs.y[0] - ops[0].apply(truth.X_seq[0])
        assert residual.size >= 4000
        assert abs(float(np.std(residual)) - sigma1) <= 0.10 * sigma1

    def test_reproducible(self):
        truth = generate_truth(6, 5, 2, 2, 0.1, RandomStream(26))
        ops = [make_operator("sampling", 6, 5, 10, RandomStream(27).child(t)) for t in range(2)]
        a = observe(ops, truth, 0.3, RandomStream(28))
        b = observe(ops, truth, 0.3, RandomStream(28))
        for t in range(2):
            np.testing.assert_array_equal(a.y[t], b.y[t])

    def test_validation(self):
        truth = generate_truth(6, 5, 2, 2, 0.1, RandomStream(29))
        one_op = [make_operator("sampling", 6, 5, 10, RandomStream(30))]
        with pytest.raises(ValueError):
            observe(one_op, truth, 0.1, RandomStream(31))
        uneven = [
            make_operator("sampling", 6, 5, 10, RandomStream(32)),
            make_operator("sampling", 6, 5, 11, RandomStream(33)),
        ]
        with pytest.raises(ValueError):
            observe(uneven, truth, 0.1, RandomStream(34))


class TestObservationSet:
    def test_rejects_mixed_variants(self):
        g = make_operator("gaussian", 4, 4, 6, RandomStream(40))
        s = make_operator("sampling", 4, 4, 6, RandomStream(41))
        with pytest.raises(ValueError):
            ObservationSet(ops=(g, s), y=(np.zeros(6), np.zeros(6)), noise_std=0.0)

    def test_rejects_length_mismatch(self):
        s = make_operator("sampling", 4, 4, 6, RandomStream(42))
        with pytest.raises(ValueError):
            ObservationSet(ops=(s,), y=(np.zeros(5),), noise_std=0.0)

    def test_uneven_bins_allowed_with_no_common_m0(self):
        a = make_operator("sampling", 4, 4, 6, RandomStream(43))
        b = make_operator("sampling", 4, 4, 9, RandomStream(44))
        obs = ObservationSet(ops=(a, b), y=(np.zeros(6), np.zeros(9)), noise_std=0.0)
        assert [op.m for op in obs.ops] == [6, 9]
        assert [y.size for y in obs.y] == [6, 9]
        assert obs.d == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_observations_naming_the_bin(self, bad):
        ops = tuple(make_operator("sampling", 4, 4, 6, RandomStream(46).child(t)) for t in range(3))
        y = [np.zeros(6), np.zeros(6), np.zeros(6)]
        y[1][4] = bad
        with pytest.raises(ValueError, match="time bin 1 "):
            ObservationSet(ops=ops, y=tuple(y), noise_std=0.0)


class TestIsometryGap:
    def test_missed_entry_gives_gap_one(self):
        # all samples sit on (1, 1); a matrix supported on (0, 0) is invisible
        op = SamplingOperator(2, 2, rows=np.array([1, 1, 1]), cols=np.array([1, 1, 1]))
        x = np.zeros((2, 2))
        x[0, 0] = 1.0
        w = baseline_weights(1, "last_only")
        assert isometry_gap([op], w, x) == pytest.approx(1.0)

    def test_small_for_large_gaussian_ensemble(self):
        op = make_operator("gaussian", 10, 8, 2000, RandomStream(50))
        x = RandomStream(51).generator().standard_normal((10, 8))
        w = baseline_weights(1, "equal")
        assert isometry_gap([op], w, x) < 0.2

    def test_zero_matrix_rejected(self):
        op = make_operator("sampling", 3, 3, 4, RandomStream(52))
        with pytest.raises(ValueError):
            isometry_gap([op], baseline_weights(1, "equal"), np.zeros((3, 3)))


class TestEstimateRip:
    def test_composite_gaussian_is_near_isometry(self):
        rank, n = 2, 20
        ops = tuple(
            make_operator("gaussian", n, n, 10 * rank * n, RandomStream(60).child(t))
            for t in range(2)
        )
        w = optimal_weights(2, 0.0)
        est = estimate_rip(ops, w, rank=rank, trials=20, rng=RandomStream(61))
        assert est <= 0.5

    def test_deterministic(self):
        ops = (make_operator("sampling", 6, 6, 30, RandomStream(62)),)
        w = baseline_weights(1, "equal")
        a = estimate_rip(ops, w, 2, 5, RandomStream(63))
        b = estimate_rip(ops, w, 2, 5, RandomStream(63))
        assert a == b

    def test_validation(self):
        ops = (make_operator("sampling", 6, 6, 30, RandomStream(64)),)
        w = baseline_weights(1, "equal")
        with pytest.raises(ValueError):
            estimate_rip(ops, w, rank=2, trials=0, rng=RandomStream(65))
        with pytest.raises(ValueError):
            estimate_rip(ops, w, rank=7, trials=3, rng=RandomStream(65))
        with pytest.raises(ValueError, match="operator list is empty"):
            estimate_rip([], w, rank=2, trials=3, rng=RandomStream(65))
