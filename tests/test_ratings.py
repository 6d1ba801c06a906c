import csv
import gc
import math
import weakref

import numpy as np
import pytest

from lowems import ratings
from lowems.core import RandomStream
from lowems.ratings import (
    EmptyResultError,
    FitConfig,
    HEADER,
    _dedup_triples,
    bin_by_time,
    cross_validate_kappa,
    evaluate_test,
    ingest,
    make_split,
    synthetic_ratings,
    table_to_csv,
    truncate,
)
from oracles import dedup_triples_by_dict


def _write_csv(path, records):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HEADER)
        writer.writerows(records)
    return path


class TestIngest:
    def test_golden_file(self, tmp_path):
        path = _write_csv(
            tmp_path / "r.csv",
            [
                (7, 300, 4.0, 100),
                (3, 100, 2.5, 50),
                (7, 100, 5.0, 75),
            ],
        )
        table = ingest(path)
        assert table.n == 3
        assert table.n_users == 2 and table.n_items == 2
        # index maps are contiguous and in sorted raw-id order
        assert dict(zip(table.user_ids.tolist(), table.user_cols.tolist())) == {3: 0, 7: 1}
        assert dict(zip(table.item_ids.tolist(), table.item_rows.tolist())) == {100: 0, 300: 1}
        np.testing.assert_array_equal(table.user_cols, [1, 0, 1])
        np.testing.assert_array_equal(table.item_rows, [1, 0, 0])
        np.testing.assert_array_equal(table.ratings, [4.0, 2.5, 5.0])

    def test_duplicate_triples_keep_last(self, tmp_path):
        path = _write_csv(
            tmp_path / "r.csv",
            [
                (1, 1, 3.0, 10),
                (1, 1, 5.0, 10),  # same (user, item, timestamp): overrides
                (1, 1, 4.0, 20),  # later re-rating: kept as its own record
            ],
        )
        table = ingest(path)
        assert table.n == 2
        by_ts = {int(t): float(r) for t, r in zip(table.timestamps, table.ratings)}
        assert by_ts == {10: 5.0, 20: 4.0}

    def test_duplicate_count_matches_scan_oracle(self, tmp_path):
        gen = RandomStream(77).generator()
        records = [
            (int(gen.integers(0, 5)), int(gen.integers(0, 4)), 1.0, int(gen.integers(0, 3)))
            for _ in range(200)
        ]
        path = _write_csv(tmp_path / "r.csv", records)
        expected = len({(u, i, t) for u, i, _, t in records})
        assert ingest(path).n == expected

    @pytest.mark.parametrize("n", [0, 1, 7, 500, 3000])
    def test_dedup_matches_dict_oracle(self, n):
        # few distinct triples, so most records repeat one; timestamps unsorted
        gen = RandomStream(78).child(n).generator()
        users = gen.integers(0, 6, size=n)
        items = gen.integers(100, 104, size=n)
        values = gen.standard_normal(n)
        stamps = gen.integers(-5, 5, size=n) * 1_000_003
        got = _dedup_triples(users, items, values, stamps)
        expected = dedup_triples_by_dict(users, items, values, stamps)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype
            np.testing.assert_array_equal(g, e)

    def test_error_reporting(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.touch()
        with pytest.raises(ValueError, match="empty file"):
            ingest(empty)

        bad_header = tmp_path / "hdr.csv"
        bad_header.write_text("user,item,score,when\n1,1,1.0,1\n")
        with pytest.raises(ValueError, match="header"):
            ingest(bad_header)

        no_rows = tmp_path / "norows.csv"
        no_rows.write_text("user_id,item_id,rating,timestamp\n")
        with pytest.raises(ValueError, match="no data rows"):
            ingest(no_rows)

        short_line = _write_csv(tmp_path / "short.csv", [(1, 1, 1.0, 1)])
        with open(short_line, "a") as fh:
            fh.write("2,3,4\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest(short_line)

        bad_value = _write_csv(tmp_path / "bad.csv", [(1, 1, 1.0, 1)])
        with open(bad_value, "a") as fh:
            fh.write("2,3,abc,4\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest(bad_value)

        non_finite = _write_csv(tmp_path / "inf.csv", [(1, 1, "inf", 1)])
        with pytest.raises(ValueError, match="non-finite"):
            ingest(non_finite)

    def test_round_trip(self, tmp_path):
        src = _write_csv(
            tmp_path / "a.csv",
            [(5, 2, 3.5, 9), (1, 8, 1.25, 4), (5, 8, 2.0, 11)],
        )
        table = ingest(src)
        out = tmp_path / "b.csv"
        table_to_csv(table, out)
        again = ingest(out)
        np.testing.assert_array_equal(table.user_ids, again.user_ids)
        np.testing.assert_array_equal(table.item_ids, again.item_ids)
        np.testing.assert_array_equal(table.ratings, again.ratings)
        np.testing.assert_array_equal(table.timestamps, again.timestamps)


class TestTruncate:
    def test_cascading_removal(self, tmp_path):
        # u4 falls first; item 12 then starves, which drops u3 too.
        records = [
            (1, 10, 1.0, 0), (1, 11, 1.0, 1),
            (2, 10, 1.0, 2), (2, 11, 1.0, 3),
            (3, 11, 1.0, 4), (3, 12, 1.0, 5),
            (4, 12, 1.0, 6),
        ]
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        kept = truncate(table, min_user_ratings=2, min_item_ratings=2)
        assert sorted(set(kept.user_ids)) == [1, 2]
        assert sorted(set(kept.item_ids)) == [10, 11]
        assert kept.n == 4
        assert kept.n_users == 2 and kept.n_items == 2

    def test_thresholds_hold_in_output(self, tmp_path):
        gen = RandomStream(78).generator()
        records = [
            (int(gen.integers(0, 30)), int(gen.integers(0, 20)), 1.0, k)
            for k in range(150)
        ]
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        kept = truncate(table, min_user_ratings=3, min_item_ratings=4)
        _, user_counts = np.unique(kept.user_ids, return_counts=True)
        _, item_counts = np.unique(kept.item_ids, return_counts=True)
        assert user_counts.min() >= 3
        assert item_counts.min() >= 4

    def test_identity_when_thresholds_are_one(self, tmp_path):
        table = ingest(
            _write_csv(tmp_path / "r.csv", [(1, 1, 1.0, 0), (2, 2, 2.0, 1)])
        )
        kept = truncate(table)
        assert kept.n == table.n
        np.testing.assert_array_equal(kept.ratings, table.ratings)

    def test_empty_result_raises(self, tmp_path):
        table = ingest(
            _write_csv(tmp_path / "r.csv", [(1, 1, 1.0, 0), (2, 2, 2.0, 1)])
        )
        with pytest.raises(EmptyResultError):
            truncate(table, min_user_ratings=2)
        assert issubclass(EmptyResultError, ValueError)

    def test_threshold_validation(self, tmp_path):
        table = ingest(_write_csv(tmp_path / "r.csv", [(1, 1, 1.0, 0)]))
        with pytest.raises(ValueError):
            truncate(table, min_user_ratings=0)


class TestBinByTime:
    def test_equal_width_hand_case(self, tmp_path):
        records = [(1, 1, 1.0, t) for t in (0, 10, 20, 30)]
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        binned = bin_by_time(table, 2)
        np.testing.assert_allclose(binned.edges, [0.0, 15.0, 30.0])
        assert [len(b) for b in binned.bins] == [2, 2]
        # max timestamp lands in the last (right-closed) bin
        assert int(binned.bin_of[np.argmax(table.timestamps)]) == 1

    def test_partition_and_edge_membership(self, tmp_path):
        gen = RandomStream(79).generator()
        records = [
            (int(gen.integers(0, 6)), int(gen.integers(0, 6)), 1.0,
             int(gen.integers(0, 1000)))
            for _ in range(120)
        ]
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        binned = bin_by_time(table, 5)
        assert sum(len(b) for b in binned.bins) == table.n
        for t in range(5):
            ts = table.timestamps[binned.bins[t]]
            if ts.size == 0:
                continue
            assert ts.min() >= binned.edges[t]
            if t < 4:
                assert ts.max() < binned.edges[t + 1]
            else:
                assert ts.max() <= binned.edges[5]

    def test_single_bin_and_degenerate_timestamps(self, tmp_path):
        records = [(1, 1, 1.0, 5), (2, 2, 2.0, 5)]
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        assert [len(b) for b in bin_by_time(table, 1).bins] == [2]
        binned = bin_by_time(table, 3)
        assert [len(b) for b in binned.bins] == [0, 0, 2]
        with pytest.raises(ValueError):
            bin_by_time(table, 0)


class TestMakeSplit:
    @pytest.fixture
    def table(self, tmp_path):
        records = [(k % 7, k % 5, float(k % 3), k) for k in range(100)]
        return ingest(_write_csv(tmp_path / "r.csv", records))

    def test_chronological_test_set(self, table):
        binned = bin_by_time(table, 4)
        split = make_split(binned, RandomStream(80))
        assert split.test_rows.size == 10
        test_ts = table.timestamps[split.test_rows]
        rest = np.delete(table.timestamps, split.test_rows)
        assert test_ts.min() > rest.max()

    def test_fold_structure(self, table):
        binned = bin_by_time(table, 4)
        split = make_split(binned, RandomStream(81), folds=5)
        in_test = np.zeros(table.n, dtype=bool)
        in_test[split.test_rows] = True
        last_bin = binned.bins[3]
        pool = set(last_bin[~in_test[last_bin]].tolist())
        earlier = set(range(table.n)) - set(last_bin.tolist()) - set(
            split.test_rows.tolist()
        )
        seen_val = set()
        for train, val in split.folds:
            val_set = set(val.tolist())
            assert val_set <= pool
            assert not (val_set & seen_val)
            seen_val |= val_set
            assert set(train.tolist()) == (earlier | pool) - val_set
        assert seen_val == pool

    def test_deterministic(self, table):
        binned = bin_by_time(table, 4)
        a = make_split(binned, RandomStream(82))
        b = make_split(binned, RandomStream(82))
        np.testing.assert_array_equal(a.test_rows, b.test_rows)
        for (ta, va), (tb, vb) in zip(a.folds, b.folds):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)

    def test_insufficient_pool_rejected(self, tmp_path):
        records = [(1, 1, 1.0, t) for t in range(10)]
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        binned = bin_by_time(table, 2)
        with pytest.raises(ValueError):
            make_split(binned, RandomStream(83), test_frac=0.4, folds=5)

    def test_validation(self, table):
        binned = bin_by_time(table, 2)
        with pytest.raises(ValueError):
            make_split(binned, RandomStream(84), test_frac=1.0)
        with pytest.raises(ValueError):
            make_split(binned, RandomStream(84), folds=0)


class TestCrossValidation:
    def test_exact_tie_resolves_to_smaller_kappa(self):
        # with a single bin every kappa produces identical weights, fits and
        # scores, so selection must fall through to the tie-break
        table, _ = synthetic_ratings(
            20, 25, 2, 1, fill=0.5, noise_std=0.1, drift_std=0.0,
            rng=RandomStream(85),
        )
        binned = bin_by_time(table, 1)
        split = make_split(binned, RandomStream(86), folds=3)
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        cv = cross_validate_kappa(
            binned, split, [10.0, 0.5, 100.0], cfg, RandomStream(87)
        )
        assert cv.best_kappa == 0.5
        means = {row.mean_val_rmse for row in cv.rows}
        assert len(means) == 1  # genuinely tied

    def test_rows_align_with_grid_and_csv(self, tmp_path):
        table, _ = synthetic_ratings(
            15, 18, 2, 2, fill=0.5, noise_std=0.1, drift_std=0.2,
            rng=RandomStream(88),
        )
        binned = bin_by_time(table, 2)
        split = make_split(binned, RandomStream(89), folds=2)
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        grid = [0.0, 1.0, 50.0]
        cv = cross_validate_kappa(binned, split, grid, cfg, RandomStream(90))
        assert [row.kappa for row in cv.rows] == grid
        assert cv.best_kappa in grid
        out = tmp_path / "cv.csv"
        cv.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kappa", "mean_val_rmse", "std"]
        assert len(rows) == 1 + len(grid)
        assert float(rows[1][0]) == 0.0

    def test_empty_grid_rejected(self):
        table, _ = synthetic_ratings(
            10, 10, 1, 1, fill=0.5, noise_std=0.1, drift_std=0.0,
            rng=RandomStream(91),
        )
        binned = bin_by_time(table, 1)
        split = make_split(binned, RandomStream(92), folds=2)
        with pytest.raises(ValueError):
            cross_validate_kappa(
                binned, split, [], FitConfig(rank=1), RandomStream(93)
            )


class TestEvaluateTest:
    def test_per_restart_scores(self):
        table, _ = synthetic_ratings(
            15, 18, 2, 2, fill=0.5, noise_std=0.1, drift_std=0.1,
            rng=RandomStream(94),
        )
        binned = bin_by_time(table, 2)
        split = make_split(binned, RandomStream(95), folds=2)
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        ev = evaluate_test(binned, split, 1.0, cfg, RandomStream(96), restarts=3)
        assert ev.rmse.shape == (3,)
        assert np.all(np.isfinite(ev.rmse))
        again = evaluate_test(binned, split, 1.0, cfg, RandomStream(96), restarts=3)
        np.testing.assert_array_equal(ev.rmse, again.rmse)
        with pytest.raises(ValueError):
            evaluate_test(binned, split, 1.0, cfg, RandomStream(96), restarts=0)

    def test_unseen_user_is_excluded(self, tmp_path):
        records = [(k % 3, k % 10, float(k % 5), k) for k in range(30)]
        # user 5 appears only in the final three records (the test window)
        records += [(5, 0, 1.0, 97), (5, 1, 2.0, 98), (5, 2, 3.0, 99)]
        records += [(0, 0, 1.0, 96)]  # keeps the last bin's training pool nonempty
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        binned = bin_by_time(table, 2)
        split = make_split(binned, RandomStream(97), test_frac=3 / 34, folds=1)
        np.testing.assert_array_equal(
            np.sort(table.timestamps[split.test_rows]), [97, 98, 99]
        )
        cfg = FitConfig(rank=1, gamma=0.5, max_sweeps=30, tol=1e-6)
        ev = evaluate_test(binned, split, 0.0, cfg, RandomStream(98), restarts=1)
        assert ev.n_excluded == 3
        assert ev.n_used == 0
        assert math.isnan(float(ev.rmse[0]))

    @pytest.mark.parametrize(
        "n, test_frac", [(40, 0.0), (4, 0.1)], ids=["test-frac-zero", "rounds-to-zero"]
    )
    def test_empty_test_split_refused_before_any_fit(
        self, tmp_path, monkeypatch, n, test_frac
    ):
        records = [(k % 3, k % 4, float(k % 5), k) for k in range(n)]
        binned = bin_by_time(ingest(_write_csv(tmp_path / "r.csv", records)), 2)
        split = make_split(binned, RandomStream(107), test_frac=test_frac, folds=1)
        assert split.test_rows.size == 0
        fits = []
        monkeypatch.setattr(ratings, "solve", lambda *a, **k: fits.append(a))
        with pytest.raises(EmptyResultError, match="test split holds no ratings"):
            evaluate_test(binned, split, 1.0, FitConfig(rank=1), RandomStream(108))
        assert fits == []

    def test_csv_output(self, tmp_path):
        table, _ = synthetic_ratings(
            12, 14, 1, 1, fill=0.6, noise_std=0.1, drift_std=0.0,
            rng=RandomStream(99),
        )
        binned = bin_by_time(table, 1)
        split = make_split(binned, RandomStream(100), folds=2)
        ev = evaluate_test(
            binned, split, 0.0, FitConfig(rank=1, gamma=0.5, max_sweeps=30),
            RandomStream(101), restarts=2,
        )
        out = tmp_path / "ev.csv"
        ev.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["restart", "test_rmse"]
        assert len(rows) == 3
        assert rows[1][0] == "0" and rows[2][0] == "1"


class TestTrainingSets:
    """Each fold's training set is built once and shared by every kappa, and
    ``evaluate_test`` builds one for all its restarts."""

    @pytest.fixture
    def planted(self):
        table, _ = synthetic_ratings(
            15, 18, 2, 2, fill=0.5, noise_std=0.1, drift_std=0.1,
            rng=RandomStream(103),
        )
        binned = bin_by_time(table, 2)
        return binned, make_split(binned, RandomStream(104), folds=3)

    @pytest.fixture
    def builds(self, monkeypatch):
        """Weak references to every observation set the pipeline builds; each
        build first checks that no earlier one is still alive."""
        refs, build = [], ratings.ObservationSet

        def counting(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in refs), "an earlier set is still alive"
            obs = build(*args, **kwargs)
            refs.append(weakref.ref(obs))
            return obs

        monkeypatch.setattr(ratings, "ObservationSet", counting)
        return refs

    @pytest.mark.parametrize("grid", [[1.0], [0.0, 0.1, 1.0, 10.0]])
    def test_cv_builds_one_set_per_fold(self, planted, builds, grid):
        binned, split = planted
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        cv = cross_validate_kappa(binned, split, grid, cfg, RandomStream(105))
        assert len(builds) == len(split.folds) == 3
        assert [row.kappa for row in cv.rows] == grid

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_eval_builds_one_set(self, planted, builds, restarts):
        binned, split = planted
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        ev = evaluate_test(binned, split, 1.0, cfg, RandomStream(106), restarts=restarts)
        assert len(builds) == 1
        assert ev.rmse.shape == (restarts,)
        assert ev.n_used + ev.n_excluded == split.test_rows.size


class TestSyntheticRatings:
    def test_bins_align_with_planted_windows(self):
        table, truth = synthetic_ratings(
            20, 30, 2, 3, fill=0.2, noise_std=0.05, drift_std=0.1,
            rng=RandomStream(102), bin_width=1000,
        )
        binned = bin_by_time(table, 3)
        np.testing.assert_allclose(binned.edges, [0.0, 1000.0, 2000.0, 3000.0])
        assert truth.d == 3 and truth.n1 == 20 and truth.n2 == 30
        for t in range(3):
            ts = table.timestamps[binned.bins[t]]
            assert ts.size > 0
            assert ts.min() >= 1000 * t

    def test_values_are_truth_plus_noise(self):
        table, truth = synthetic_ratings(
            25, 25, 2, 2, fill=0.3, noise_std=0.0, drift_std=0.3,
            rng=RandomStream(103),
        )
        binned = bin_by_time(table, 2)
        for t in range(2):
            idx = binned.bins[t]
            planted = truth.X_seq[t][
                table.item_rows[idx], table.user_cols[idx]
            ]
            # noiseless: observed ratings equal planted entries, but the
            # index maps only cover users/items that actually occur
            raw_items = table.item_ids[idx]
            raw_users = table.user_ids[idx]
            expected = truth.X_seq[t][raw_items, raw_users]
            np.testing.assert_array_equal(table.ratings[idx], expected)
            assert planted.shape == expected.shape

    def test_deterministic(self):
        a, _ = synthetic_ratings(
            10, 12, 1, 2, fill=0.4, noise_std=0.1, drift_std=0.2,
            rng=RandomStream(104),
        )
        b, _ = synthetic_ratings(
            10, 12, 1, 2, fill=0.4, noise_std=0.1, drift_std=0.2,
            rng=RandomStream(104),
        )
        np.testing.assert_array_equal(a.ratings, b.ratings)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)

    def test_fill_validation(self):
        with pytest.raises(ValueError):
            synthetic_ratings(
                10, 10, 1, 1, fill=0.0, noise_std=0.1, drift_std=0.1,
                rng=RandomStream(105),
            )
        with pytest.raises(ValueError):
            synthetic_ratings(
                10, 10, 1, 1, fill=1.5, noise_std=0.1, drift_std=0.1,
                rng=RandomStream(105),
            )
