import codecs
import csv
import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from lowems import ratings, solver
from lowems.core import RandomStream
from lowems.solver import DivergenceError, FactorPair
from lowems.weights import optimal_weights
from lowems.ratings import (
    BIN_WIDTH,
    EmptyResultError,
    FitConfig,
    HEADER,
    _dedup_triples,
    bin_by_time,
    chronological_split,
    cross_validate_kappa,
    evaluate_test,
    ingest,
    make_split,
    synthetic_ratings,
    table_to_csv,
    truncate,
)
from oracles import dedup_triples_by_dict, truncate_by_unique


def _bin_sizes(binned):
    return np.bincount(binned.bin_of, minlength=binned.d).tolist()


def _bin_rows(binned, t):
    return np.flatnonzero(binned.bin_of == t)


# The latest rating is user 9's only one, and user 3's two ratings, both in
# the last of two bins, are all of one CV fold's validation rows at
# RandomStream(1).child(0): neither has a user among its training rows.
UNSCORABLE = [
    (1, 1, 1.0, 1), (1, 2, 2.0, 2), (2, 1, 3.0, 3), (2, 2, 4.0, 4), (3, 1, 5.0, 5),
    (3, 2, 6.0, 6), (1, 1, 7.0, 7), (2, 2, 8.0, 8), (9, 1, 9.0, 9),
]

# The latest rating is the test split at test_frac 0.12, and the last bin's
# other ratings are users 3 and 4's only ones: at RandomStream(1).child(0)
# neither CV fold has a validation rating whose user has a training rating.
NO_SCOREABLE_FOLD = [
    (1, 1, 3.0, 1), (2, 1, 4.0, 2), (1, 2, 2.0, 3), (2, 2, 5.0, 4), (3, 1, 3.5, 8),
    (4, 2, 4.5, 9), (1, 1, 3.2, 10),
]


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

    def test_byte_order_mark_is_accepted(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark
        plain = _write_csv(tmp_path / "plain.csv", [(7, 300, 4.0, 100), (3, 100, 2.5, 50)])
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = ingest(plain), ingest(marked)
        for name in ("user_ids", "item_ids", "ratings", "timestamps", "user_cols", "item_rows"):
            np.testing.assert_array_equal(getattr(b, name), getattr(a, name))
        assert (b.n_users, b.n_items) == (a.n_users, a.n_items) == (2, 2)

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


_TABLE_FIELDS = ("user_ids", "item_ids", "ratings", "timestamps", "user_cols", "item_rows")
_HEAD = ",".join(HEADER)


def _ingest_corpus():
    """Ratings files, by name, that probe where numpy's ``loadtxt`` and the
    csv path could part: line ends, blank lines, quoting, whitespace, number
    spellings, non-finite and out-of-range values, field counts and bytes."""
    gen = RandomStream(2801).generator()
    n = 300
    digits17 = "\n".join(
        f"{u},{i},{r:.17g},{t}"
        for u, i, r, t in zip(
            gen.integers(-50, 50, n), gen.integers(0, 10**12, n),
            gen.uniform(-5, 5, n) * 10.0 ** gen.integers(-300, 300, n),
            gen.integers(-(2**62), 2**62, n),
        )
    )
    rows = "7,300,4.0,100\n3,100,2.5,50\n7,100,5.0,75\n"
    body = {
        "plain": rows,
        "crlf": rows.replace("\n", "\r\n"),
        "lone_cr": rows.replace("\n", "\r"),
        "lone_cr_mid": "7,300,4.0,100\r3,100,2.5,50\n",
        "cr_cr_lf": "7,300,4.0,100\r\r\n3,100,2.5,50\n",
        "cr_at_end": rows.rstrip("\n") + "\r",
        "cr_line_at_end": rows + "\r",
        "blank_mid": "7,300,4.0,100\n\n3,100,2.5,50\n",
        "blank_trailing": rows + "\n",
        "blank_trailing_crlf": rows.replace("\n", "\r\n") + "\r\n",
        "whitespace_line": "7,300,4.0,100\n \n3,100,2.5,50\n",
        "no_final_newline": rows.rstrip("\n"),
        "comment_suffix": "1,2,3.0,4#x\n",
        "comment_line": "#1,2,3.0,4\n1,2,3.0,4\n",
        "quoted": '"7","300","4.0","100"\n',
        "quoted_newline": '7,300,"4.0\n",100\n',
        "spaces": " 7 , 300,4.0 ,100 \n",
        "tabs": "\t7,300\t,\t4.0,100\t\n",
        "form_feed": "7\x0c,300,4.0,100\n",
        "info_separator": "7\x1c,300,4.0,100\n",
        "nul": "7,300,4.0,100\x00\n",
        "underscore_int": "1_000,300,4.0,100\n",
        "underscore_float": "7,300,1_0.5,100\n",
        "plus_sign": "+5,300,+4.5,+100\n",
        "leading_zeros": "007,0300,04.0,0100\n",
        "exponent_in_int": "1e3,300,4.0,100\n",
        "decimal_in_int": "1.0,300,4.0,100\n",
        "exponent_rating": "7,300,4e-1,100\n7,301,1E+2,100\n7,302,.5,100\n7,303,5.,100\n",
        "negative_zero": "-0,300,-0.0,-0\n",
        "unicode_digit": "٣,300,4.0,100\n",
        "unicode_float": "7,300,٣.5,100\n",
        "fullwidth_digit": "７,300,4.0,100\n",
        "letter_loadtxt_reads_as_digits": "Ǿ1,300,4.0,100\n",
        "unicode_space": "7　,300,4.0\xa0,100\n",
        "nan": "7,300,nan,100\n",
        "inf": "7,300,-inf,100\n",
        "overflow_to_inf": "7,300,1e400,100\n",
        "nan_id": "nan,300,4.0,100\n",
        "empty_field": "7,,4.0,100\n",
        "trailing_comma": "7,300,4.0,100,\n",
        "three_fields": "7,300,4.0\n",
        "five_fields": "7,300,4.0,100,1\n",
        "duplicates": "1,1,3.0,10\n1,1,5.0,10\n1,1,4.0,20\n2,1,1.0,10\n1,1,6.0,10\n",
        "one_row": "7,300,4.0,100\n",
        "int64_edges": f"{2**63 - 1},{-(2**63)},4.0,{2**63 - 1}\n",
        "user_above_int64": f"{2**63},300,4.0,100\n",
        "item_below_int64": f"7,{-(2**63) - 1},4.0,100\n",
        "timestamp_far_out": "7,300,4.0,99999999999999999999\n",
        "long_field": "7,300,4.0," + " " * 131_072 + "100\n",
        "digits17": digits17,
        "digits17_crlf": digits17.replace("\n", "\r\n") + "\r\n",
    }
    corpus = {name: f"{_HEAD}\n{text}".encode() for name, text in body.items()}
    corpus |= {
        "bom": codecs.BOM_UTF8 + corpus["plain"],
        "bom_crlf": codecs.BOM_UTF8 + corpus["crlf"],
        "double_bom": 2 * codecs.BOM_UTF8 + corpus["plain"],
        "header_crlf_body_lf": f"{_HEAD}\r\n{rows}".encode(),
        "header_quoted": ('"' + '","'.join(HEADER) + '"\n' + rows).encode(),
        "header_spaced": (" , ".join(HEADER) + "\n" + rows).encode(),
        "header_wrong": ("user,item,score,when\n" + rows).encode(),
        "header_only": f"{_HEAD}\n".encode(),
        "header_only_no_newline": _HEAD.encode(),
        "empty": b"",
        "bom_only": codecs.BOM_UTF8,
        "non_utf8": f"{_HEAD}\n{rows}7,300,4".encode() + b"\xff" + b".0,100\n",
        "non_utf8_after_bom": codecs.BOM_UTF8 + f"{_HEAD}\n1,2,3.0,4\n".encode() + b"\xc3(",
    }
    return corpus


# files the numpy parse must take: a regression that sends them to the csv
# path fails test_paths_agree_on_the_corpus
_NUMPY_FILES = {
    "plain", "crlf", "no_final_newline", "cr_at_end", "spaces", "tabs", "plus_sign",
    "leading_zeros", "exponent_rating", "negative_zero", "duplicates", "one_row",
    "int64_edges", "digits17", "digits17_crlf", "bom", "bom_crlf", "header_crlf_body_lf",
}


def _table_or_message(parse, path):
    try:
        return parse(path)
    except (ValueError, csv.Error) as exc:
        return str(exc)


def _csv_path_table(path):
    return ratings._build_table(*_dedup_triples(*ratings._columns_csv(path, path.read_bytes())))


def _assert_same_bits(got, expected, label):
    for a, b in zip(got, expected, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), label


class TestIngestPaths:
    """``ingest`` parses a plain numeric file with numpy and any other file
    with the csv path: the csv path alone is the oracle."""

    def test_paths_agree_on_the_corpus(self, tmp_path):
        took_numpy = set()
        for name, raw in _ingest_corpus().items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(raw)
            expected = _table_or_message(_csv_path_table, path)
            got = _table_or_message(ingest, path)
            if isinstance(expected, str):
                assert got == expected, name
            else:
                assert not isinstance(got, str), (name, got)
                _assert_same_bits([getattr(got, f) for f in _TABLE_FIELDS],
                                  [getattr(expected, f) for f in _TABLE_FIELDS], name)
                assert (got.n_users, got.n_items) == (expected.n_users, expected.n_items)
            columns = ratings._columns_numpy(raw)
            if columns is not None:
                took_numpy.add(name)
                _assert_same_bits(columns, ratings._columns_csv(path, raw), name)
        assert took_numpy == _NUMPY_FILES

    def test_paths_agree_on_mutated_files(self, tmp_path):
        # valid rows, a few with one random character inserted or one dropped,
        # and a few files with CRLF or lone CR line ends or blank last lines
        gen = RandomStream(2802).generator()
        alphabet = list("0123456789+-.eE_, \t\r\n\x0b\x0c\x1c\"#nai") + ["٣", "\xa0"]
        path = tmp_path / "m.csv"
        took_numpy = 0
        for _ in range(400):
            lines = [_HEAD]
            for _ in range(int(gen.integers(1, 4))):
                line = (f"{gen.integers(-99, 99)},{gen.integers(0, 10**6)},"
                        f"{gen.standard_normal():.17g},{gen.integers(0, 10**9)}")
                if gen.random() < 0.3:
                    at = int(gen.integers(0, len(line) + 1))
                    line = line[:at] + alphabet[gen.integers(len(alphabet))] + line[at:]
                if gen.random() < 0.1:
                    at = int(gen.integers(0, len(line)))
                    line = line[:at] + line[at + 1:]
                lines.append(line)
            end = ["\n", "\r\n", "\r"][gen.integers(3)] if gen.random() < 0.2 else "\n"
            raw = (end.join(lines) + end * int(gen.integers(0, 3))).encode()
            columns = ratings._columns_numpy(raw)
            if columns is None:
                continue
            took_numpy += 1
            path.write_bytes(raw)
            assert not isinstance(_table_or_message(_csv_path_table, path), str), raw
            _assert_same_bits(columns, ratings._columns_csv(path, raw), raw)
        assert took_numpy >= 100

    @pytest.mark.parametrize(
        "record", [f"{2**63},1,1.0,1", f"1,{-(2**63) - 1},1.0,1", "1,1,1.0,99999999999999999999"]
    )
    def test_out_of_int64_is_refused_with_its_line(self, tmp_path, record):
        path = _write_csv(tmp_path / "r.csv", [(1, 1, 1.0, 1)])
        with open(path, "a", newline="") as fh:
            fh.write(record + "\r\n")
        with pytest.raises(ValueError) as exc:
            ingest(path)
        assert str(exc.value) == f"{path}: line 3: id or timestamp outside int64"

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
    def test_non_utf8_is_refused_with_its_line(self, tmp_path, bom):
        # the bad byte opens line 4,002, far past the first 8 kB decode chunk,
        # and right after a newline, which a count that ignores the BOM misses
        path = _write_csv(tmp_path / "r.csv", [(u, 1, 1.0, u) for u in range(4000)])
        path.write_bytes(bom + path.read_bytes() + b"\xe9,5,1.0,5\r\n")
        with pytest.raises(ValueError) as exc:
            ingest(path)
        assert str(exc.value) == f"{path}: line 4002: not valid UTF-8"

    @pytest.mark.parametrize(
        "body, message",
        [
            # lone \r line ends count as lines before a bad byte too
            (b"\r1,2,3.0,4\r5,6,7.0,8\r\xff9,1,1.0,1\r", "line 4: not valid UTF-8"),
            # the record with a quoted newline spans lines 2 and 3
            (b'\n1,2,"3.0\n",4\n5,6,7.0,8\n9,x,1.0,1\n',
             "line 5: malformed record ['9', 'x', '1.0', '1']"),
            # csv's own error, in a record and in the header
            (b"\n1,2,3.0," + b" " * 131_072 + b"4\n",
             "line 2: field larger than field limit (131072)"),
            (b" " * 131_072 + b"\n1,2,3.0,4\n", "line 1: field larger than field limit (131072)"),
            # the first faulty record in file order, whatever its fault
            (b"\n1,2,3.0,4\n1,99999999999999999999,1.0,1\n5,x,1.0,1\n",
             "line 3: id or timestamp outside int64"),
            (b"\r\n1,2,3.0,4\r\n1,2,inf,5\r\n" + f"{2**63},2,3.0,4\r\n".encode(),
             "line 3: non-finite rating"),
        ],
        ids=["cr_before_bad_byte", "multiline_record", "long_field", "long_header_field",
             "int64_before_malformed", "non_finite_before_int64"],
    )
    def test_refusals_name_csvs_line(self, tmp_path, body, message):
        path = tmp_path / "r.csv"
        path.write_bytes(_HEAD.encode() + body)
        with pytest.raises(ValueError) as exc:
            ingest(path)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{path}: {message}"

    def test_csv_path_holds_typed_columns(self, tmp_path):
        # every field quoted, so only the csv path reads it; its columns cost
        # 8 bytes a field, where Python lists of ints and floats cost far more
        gen = RandomStream(2901).generator()
        rows = 27_000
        records = zip(gen.integers(10**5, 10**6, rows), gen.integers(10**5, 10**6, rows),
                      gen.integers(1, 11, rows) / 2, gen.integers(10**8, 10**9, rows))
        path = tmp_path / "quoted.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
            writer.writerow(HEADER)
            writer.writerows(records)
        raw = path.read_bytes()
        assert ratings._columns_numpy(raw) is None
        tracemalloc.start()
        try:
            columns = ratings._columns_csv(path, raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [c.size for c in columns] == [rows] * 4
        assert peak <= len(raw) + 16 * rows, (peak / rows, len(raw) / rows)

    @pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8])
    def test_numpy_path_refuses_a_quoted_file_before_copying_it(self, tmp_path, bom):
        # the quoted first record is refused from a slice of the file's bytes;
        # a copy of the body (as large as the file) is never made
        path = tmp_path / "quoted.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
            writer.writerow(HEADER)
            writer.writerows((u, u % 97, 3.5, 10**9 + u) for u in range(20_000))
        raw = bom + path.read_bytes()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            columns = ratings._columns_numpy(raw)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert columns is None
        assert peak <= len(raw) // 100, (peak, len(raw))


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

    def test_matches_unique_oracle(self):
        # raw ids are negative and non-contiguous, so the table's coordinates
        # differ from the ids the oracle counts on
        gen = RandomStream(109).generator()
        outcomes = {"kept": 0, "empty": 0}
        for _ in range(300):
            n = int(gen.integers(1, 40))
            users = gen.choice([-9, -4, 0, 3, 17, 250], size=n)
            items = gen.choice([-30, -2, 5, 6, 41, 1000, 77], size=n)
            table = ratings._build_table(users, items, gen.standard_normal(n), np.arange(n))
            lo_user, lo_item = (int(v) for v in gen.integers(1, 5, size=2))
            keep = truncate_by_unique(table.user_ids, table.item_ids, lo_user, lo_item)
            if not keep.any():
                outcomes["empty"] += 1
                with pytest.raises(EmptyResultError, match="removed all ratings"):
                    truncate(table, lo_user, lo_item)
                continue
            outcomes["kept"] += 1
            kept = truncate(table, lo_user, lo_item)
            for name in ("user_ids", "item_ids", "ratings", "timestamps"):
                np.testing.assert_array_equal(getattr(kept, name), getattr(table, name)[keep])
        assert min(outcomes.values()) > 30, outcomes

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
        assert _bin_sizes(binned) == [2, 2]
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
        assert binned.d == 5 and binned.bin_of.shape == (table.n,)
        assert sum(_bin_sizes(binned)) == table.n
        for t in range(5):
            ts = table.timestamps[_bin_rows(binned, t)]
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
        assert _bin_sizes(bin_by_time(table, 1)) == [2]
        binned = bin_by_time(table, 3)
        assert binned.d == 3
        assert _bin_sizes(binned) == [0, 0, 2]
        with pytest.raises(ValueError):
            bin_by_time(table, 0)

    def test_large_int64_timestamps_bin_by_their_exact_offsets(self):
        # nanosecond stamps near 1.7e18 are 256 apart in float64; binned at the
        # stamps themselves, these 1,001 ratings fell 129, 255, 257, 360
        n = 1001
        stamps = 1_700_000_000_000_000_000 + np.arange(n, dtype=np.int64)
        table = ratings._build_table(np.arange(n), np.arange(n), np.ones(n), stamps)
        assert _bin_sizes(bin_by_time(table, 4)) == [250, 250, 250, 251]


class TestChronologicalSplit:
    def test_latest_ratings_are_the_test_rows(self, tmp_path):
        stamps = [5, 1, 9, 3, 9, 7, 0, 2]
        records = [(k % 3, k % 2, 1.0, ts) for k, ts in enumerate(stamps)]
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        train, test = chronological_split(table, test_frac=0.375)
        # the three latest are the two 9s and the 7, in ascending row order
        np.testing.assert_array_equal(test, [2, 4, 5])
        np.testing.assert_array_equal(train, [0, 1, 3, 6, 7])

    def test_equal_timestamps_go_by_table_row(self, tmp_path):
        records = [(k, k, 1.0, 4) for k in range(10)]
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        train, test = chronological_split(table, test_frac=0.2)
        np.testing.assert_array_equal(test, [8, 9])
        np.testing.assert_array_equal(train, np.arange(8))

    def test_validation(self, tmp_path):
        table = ingest(_write_csv(tmp_path / "r.csv", [(1, 1, 1.0, 0)]))
        for bad in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError, match="test_frac"):
                chronological_split(table, bad)

    def test_eval_needs_no_fold_pool(self, tmp_path):
        # 30 ratings at 0..29 in two bins: the latest half is all of bin 1
        records = [(k % 4, k % 5, float(k % 3), k) for k in range(30)]
        binned = bin_by_time(ingest(_write_csv(tmp_path / "r.csv", records)), 2)
        split = chronological_split(binned.table, test_frac=0.5)
        np.testing.assert_array_equal(split[1], np.arange(15, 30))
        with pytest.raises(ValueError, match="last bin has 0 non-test ratings"):
            make_split(binned, RandomStream(110), test_frac=0.5, folds=1)
        cfg = FitConfig(rank=1)
        with pytest.raises(ValueError, match="time bin 1 has no training ratings"):
            evaluate_test(binned, split, 1.0, cfg, RandomStream(111), restarts=1)


class TestMakeSplit:
    @pytest.fixture
    def table(self, tmp_path):
        records = [(k % 7, k % 5, float(k % 3), k) for k in range(100)]
        return ingest(_write_csv(tmp_path / "r.csv", records))

    def test_folds_split_the_chronological_training_rows(self, table):
        binned = bin_by_time(table, 4)
        folds = make_split(binned, RandomStream(112), test_frac=0.15, folds=3)
        train, _ = chronological_split(table, test_frac=0.15)
        assert len(folds) == 3
        for fold_train, val in folds:
            np.testing.assert_array_equal(np.union1d(fold_train, val), train)
            assert np.all(np.diff(fold_train) > 0)

    def test_chronological_test_set(self, table):
        binned = bin_by_time(table, 4)
        train, test = chronological_split(table)
        assert test.size == 10
        assert table.timestamps[test].min() > table.timestamps[train].max()
        for fold in make_split(binned, RandomStream(80)):
            assert not np.isin(np.concatenate(fold), test).any()

    def test_fold_structure(self, table):
        binned = bin_by_time(table, 4)
        folds = make_split(binned, RandomStream(81), folds=5)
        _, test = chronological_split(table)
        in_test = np.zeros(table.n, dtype=bool)
        in_test[test] = True
        last_bin = _bin_rows(binned, 3)
        pool = set(last_bin[~in_test[last_bin]].tolist())
        earlier = set(range(table.n)) - set(last_bin.tolist()) - set(test.tolist())
        assert len(folds) == 5
        seen_val = set()
        for train, val in folds:
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
        assert len(a) == len(b) == 5
        for (ta, va), (tb, vb) in zip(a, b):
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
        folds = make_split(binned, RandomStream(86), folds=3)
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        cv = cross_validate_kappa(
            binned, folds, [10.0, 0.5, 100.0], cfg, RandomStream(87)
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
        folds = make_split(binned, RandomStream(89), folds=2)
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        grid = [0.0, 1.0, 50.0]
        cv = cross_validate_kappa(binned, folds, grid, cfg, RandomStream(90))
        assert [row.kappa for row in cv.rows] == grid
        assert cv.best_kappa in grid
        out = tmp_path / "cv.csv"
        cv.to_csv(out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kappa", "mean_val_rmse", "std"]
        assert len(rows) == 1 + len(grid)
        assert float(rows[1][0]) == 0.0

    def test_fold_with_nothing_to_score_is_not_fitted(self, tmp_path, monkeypatch):
        binned = bin_by_time(ingest(_write_csv(tmp_path / "r.csv", UNSCORABLE)), 2)
        folds = make_split(binned, RandomStream(1).child(0), test_frac=0.12, folds=2)
        assert [ratings._training_set(binned, fold)[1].size for fold in folds] == [2, 0]
        fits, fit = [], ratings.solve

        def counting(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(ratings, "solve", counting)
        cfg = FitConfig(rank=1)
        cv = cross_validate_kappa(binned, folds, [0.0, 1.0], cfg, RandomStream(1).child(1))
        assert len(fits) == 2  # one per kappa on the scored fold
        assert [(row.kappa, row.std) for row in cv.rows] == [(0.0, 0.0), (1.0, 0.0)]
        assert all(math.isfinite(row.mean_val_rmse) for row in cv.rows)

    def test_no_fold_with_anything_to_score_is_refused_before_any_fit(
        self, tmp_path, monkeypatch
    ):
        binned = bin_by_time(ingest(_write_csv(tmp_path / "r.csv", NO_SCOREABLE_FOLD)), 2)
        folds = make_split(binned, RandomStream(1).child(0), test_frac=0.12, folds=2)
        assert [fold[1].size for fold in folds] == [1, 1]
        assert [ratings._training_set(binned, fold)[1].size for fold in folds] == [0, 0]

        def refuse(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(ratings, "solve", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no per-kappa warning either
            with pytest.raises(EmptyResultError, match="no CV fold has a validation rating"):
                cross_validate_kappa(
                    binned, folds, [0.0, 1.0], FitConfig(rank=1), RandomStream(1).child(1)
                )

    def test_every_fit_diverging_is_a_runtime_failure(self, tmp_path, monkeypatch):
        binned = bin_by_time(ingest(_write_csv(tmp_path / "r.csv", UNSCORABLE)), 2)
        folds = make_split(binned, RandomStream(1).child(0), test_frac=0.12, folds=2)

        def diverge(problem, **kwargs):
            raise DivergenceError("objective became non-finite", None, [])

        monkeypatch.setattr(ratings, "solve", diverge)
        with pytest.warns(RuntimeWarning) as record:
            with pytest.raises(RuntimeError, match="failed for every kappa") as caught:
                cross_validate_kappa(
                    binned, folds, [0.0, 1.0], FitConfig(rank=1), RandomStream(1).child(1)
                )
        assert not isinstance(caught.value, EmptyResultError)
        assert [str(w.message) for w in record] == [
            "fold 0 diverged at kappa=0.0; skipping", "fold 0 diverged at kappa=1.0; skipping",
            "kappa=0.0 produced no usable folds; excluded",
            "kappa=1.0 produced no usable folds; excluded",
        ]

    def test_empty_grid_rejected(self):
        table, _ = synthetic_ratings(
            10, 10, 1, 1, fill=0.5, noise_std=0.1, drift_std=0.0,
            rng=RandomStream(91),
        )
        binned = bin_by_time(table, 1)
        folds = make_split(binned, RandomStream(92), folds=2)
        with pytest.raises(ValueError):
            cross_validate_kappa(
                binned, folds, [], FitConfig(rank=1), RandomStream(93)
            )


def _cold(problem, **kwargs):
    """The cold rule, the oracle of the kappa path: every fit starts from the
    fold's random init."""
    return solver.solve(problem, **{**kwargs, "init": "random"})


class TestKappaPath:
    """Each fold fits its kappa grid as one path in ascending kappa, every
    fit after the first warm-started from the factors of the one before."""

    GRID = [1.0, 0.01, 10.0, 0.1]
    CFG = FitConfig(rank=2, gamma=0.1)

    @pytest.fixture
    def planted(self):
        table, _ = synthetic_ratings(
            15, 18, 2, 2, fill=0.5, noise_std=0.1, drift_std=0.1,
            rng=RandomStream(103),
        )
        binned = bin_by_time(table, 2)
        return binned, make_split(binned, RandomStream(104), folds=3)

    @staticmethod
    def _cv_table(seed):
        """perfbench's ``ratings_cv`` table, split as ``ratings cv --seed seed``
        splits it; the CV streams are ``RandomStream(seed).child(1)``."""
        table, _ = synthetic_ratings(
            100, 150, 5, 3, fill=0.30, noise_std=0.1, drift_std=0.1 * math.sqrt(10.0),
            rng=RandomStream(seed).child(0),
        )
        binned = bin_by_time(table, 3)
        return binned, make_split(binned, RandomStream(seed).child(0), folds=3)

    def test_smallest_kappa_keeps_the_cold_fits(self, planted, monkeypatch):
        binned, folds = planted
        path = cross_validate_kappa(binned, folds, self.GRID, self.CFG, RandomStream(120))
        monkeypatch.setattr(ratings, "solve", _cold)
        cold = cross_validate_kappa(binned, folds, self.GRID, self.CFG, RandomStream(120))
        assert path.rows[1] == cold.rows[1]  # kappa 0.01: bit-equal mean and std
        assert path.rows != cold.rows  # the later kappas started warm

    def test_unsorted_grid_reports_rows_in_grid_order(self, planted):
        binned, folds = planted
        shuffled = cross_validate_kappa(binned, folds, self.GRID, self.CFG, RandomStream(121))
        ascending = cross_validate_kappa(
            binned, folds, sorted(self.GRID), self.CFG, RandomStream(121)
        )
        assert [row.kappa for row in shuffled.rows] == self.GRID
        assert sorted(shuffled.rows, key=lambda row: row.kappa) == list(ascending.rows)
        assert shuffled.best_kappa == ascending.best_kappa

    def test_divergence_restarts_the_path_cold(self, planted, monkeypatch):
        binned, folds = planted
        rng = RandomStream(122)
        fits = []  # (init, rng, solution or None when scripted to diverge)

        def scripted(problem, **kwargs):
            diverge = kwargs["rng"] == rng.child(0) and np.array_equal(
                problem.weights.w, optimal_weights(2, 0.1).w
            )
            sol = None if diverge else solver.solve(problem, **kwargs)
            fits.append((kwargs["init"], kwargs["rng"], sol))
            if diverge:
                raise DivergenceError("objective became non-finite", None, [])
            return sol

        monkeypatch.setattr(ratings, "solve", scripted)
        with pytest.warns(RuntimeWarning) as record:
            cv = cross_validate_kappa(binned, folds, [1.0, 0.1, 0.01], self.CFG, rng)
        assert [str(w.message) for w in record] == ["fold 0 diverged at kappa=0.1; skipping"]
        assert [row.kappa for row in cv.rows] == [1.0, 0.1, 0.01]
        # fold 0: 0.01 cold, 0.1 warm and diverges, 1.0 cold again; folds 1, 2 warm
        starts = ["random", 0, "random", "random", 3, 4, "random", 6, 7]
        assert len(fits) == len(starts)
        for k, ((init, stream, _), start) in enumerate(zip(fits, starts)):
            assert stream == rng.child(k // 3)
            if start == "random":
                assert init == "random"
            else:
                assert init is fits[start][2].factors

    def test_overflowing_fit_is_skipped_like_a_scripted_divergence(self, planted, monkeypatch):
        # fold 1's fit at kappa 0.1 really overflows: the real solve, started
        # from a finite pair whose product is inf; the run must equal one where
        # that fit raises a scripted DivergenceError
        binned, folds = planted
        grid, rng = [0.01, 0.1, 1.0], RandomStream(124)

        def one_fit_fails(real: bool):
            def scripted(problem, **kwargs):
                if kwargs["rng"] == rng.child(1) and np.array_equal(
                    problem.weights.w, optimal_weights(2, 0.1).w
                ):
                    if not real:
                        raise DivergenceError("objective became non-finite", None, [])
                    obs, r = problem.obs, problem.rank
                    huge = FactorPair(np.full((obs.n1, r), 1e200), np.full((obs.n2, r), 1e200))
                    return solver.solve(problem, **{**kwargs, "init": huge})
                return solver.solve(problem, **kwargs)

            monkeypatch.setattr(ratings, "solve", scripted)
            with pytest.warns(RuntimeWarning) as record:
                cv = cross_validate_kappa(binned, folds, grid, self.CFG, rng)
            assert [str(w.message) for w in record] == ["fold 1 diverged at kappa=0.1; skipping"]
            return cv

        overflowed, scripted = one_fit_fails(True), one_fit_fails(False)
        monkeypatch.setattr(ratings, "solve", solver.solve)
        clean = cross_validate_kappa(binned, folds, grid, self.CFG, rng)
        assert overflowed.rows == scripted.rows
        assert overflowed.best_kappa == scripted.best_kappa
        assert overflowed.rows[0] == clean.rows[0]  # kappa 0.01 is fit before it
        assert overflowed.rows[1] != clean.rows[1]  # one fold fewer

    def test_equal_weights_cost_no_solve(self, planted, monkeypatch):
        fits = []

        def counting(problem, **kwargs):
            fits.append(problem.weights.w)
            return solver.solve(problem, **kwargs)

        monkeypatch.setattr(ratings, "solve", counting)
        binned, folds = planted
        cv = cross_validate_kappa(binned, folds, [1.0, 0.1, 1.0, 0.1], self.CFG,
                                  RandomStream(123))
        assert len(fits) == 2 * len(folds)
        assert cv.rows[0] == cv.rows[2] and cv.rows[1] == cv.rows[3]
        # one bin: every kappa gives the same weights, so one fit per fold
        table, _ = synthetic_ratings(
            20, 25, 2, 1, fill=0.5, noise_std=0.1, drift_std=0.0, rng=RandomStream(85)
        )
        binned = bin_by_time(table, 1)
        folds = make_split(binned, RandomStream(86), folds=3)
        fits.clear()
        cv = cross_validate_kappa(binned, folds, [10.0, 0.5, 100.0], self.CFG,
                                  RandomStream(87))
        one = cross_validate_kappa(binned, folds, [0.5], self.CFG, RandomStream(87))
        assert len(fits) == 2 * len(folds)  # both runs' fits
        assert [(row.mean_val_rmse, row.std) for row in cv.rows] == [
            (one.rows[0].mean_val_rmse, one.rows[0].std)
        ] * 3

    @pytest.mark.parametrize("seed", range(6))
    def test_path_fits_end_no_higher_than_cold_fits(self, monkeypatch, seed):
        # gamma 0.1, perfbench's value: measured worst 2.5e-9 relative above
        binned, folds = self._cv_table(seed)
        fits = []

        def recording(problem, **kwargs):
            sol = solver.solve(problem, **kwargs)
            fits.append((problem, kwargs, sol.objective_trace[-1]))
            return sol

        monkeypatch.setattr(ratings, "solve", recording)
        cfg = FitConfig(rank=5, gamma=0.1)
        cross_validate_kappa(binned, folds, [0.01, 0.1, 1, 10], cfg, RandomStream(seed).child(1))
        assert len(fits) == 12
        for problem, kwargs, end in fits:
            assert end <= _cold(problem, **kwargs).objective_trace[-1] * (1 + 1e-8)

    @pytest.mark.parametrize("seed", [0, 4, 6])
    def test_large_ridge_cv_means_stay_near_cold(self, monkeypatch, seed):
        # gamma 1.0, the CLI default: a path fit may stop higher than its cold
        # fit (seed 4: 2.6e-7 relative), and seed 6 moves a mean the most (2.7e-5)
        binned, folds = self._cv_table(seed)
        cfg, grid = FitConfig(rank=5, gamma=1.0), [0.01, 0.1, 1, 10]
        path = cross_validate_kappa(binned, folds, grid, cfg, RandomStream(seed).child(1))
        monkeypatch.setattr(ratings, "solve", _cold)
        cold = cross_validate_kappa(binned, folds, grid, cfg, RandomStream(seed).child(1))
        assert path.best_kappa == cold.best_kappa
        for p, c in zip(path.rows, cold.rows):
            assert abs(p.mean_val_rmse - c.mean_val_rmse) <= 1e-4


class TestEvaluateTest:
    def test_per_restart_scores(self):
        table, _ = synthetic_ratings(
            15, 18, 2, 2, fill=0.5, noise_std=0.1, drift_std=0.1,
            rng=RandomStream(94),
        )
        binned = bin_by_time(table, 2)
        split = chronological_split(table)
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        ev = evaluate_test(binned, split, 1.0, cfg, RandomStream(96), restarts=3)
        assert ev.rmse.shape == (3,)
        assert np.all(np.isfinite(ev.rmse))
        again = evaluate_test(binned, split, 1.0, cfg, RandomStream(96), restarts=3)
        np.testing.assert_array_equal(ev.rmse, again.rmse)
        with pytest.raises(ValueError):
            evaluate_test(binned, split, 1.0, cfg, RandomStream(96), restarts=0)

    def test_diverged_restarts_score_nan_and_the_others_keep_theirs(self, monkeypatch):
        table, _ = synthetic_ratings(
            15, 18, 2, 2, fill=0.5, noise_std=0.1, drift_std=0.1,
            rng=RandomStream(94),
        )
        binned = bin_by_time(table, 2)
        split = chronological_split(table)
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        rng = RandomStream(96)
        plain = evaluate_test(binned, split, 1.0, cfg, rng, restarts=3)
        diverging = set()

        def scripted(problem, **kwargs):
            if kwargs["rng"] in diverging:
                raise DivergenceError("objective became non-finite", None, [])
            return solver.solve(problem, **kwargs)

        monkeypatch.setattr(ratings, "solve", scripted)
        diverging.add(rng.child(1))
        with pytest.warns(RuntimeWarning) as record:
            ev = evaluate_test(binned, split, 1.0, cfg, rng, restarts=3)
        assert [str(w.message) for w in record] == ["restart 1 diverged; skipping"]
        assert np.isnan(ev.rmse[1])
        np.testing.assert_array_equal(ev.rmse[[0, 2]], plain.rmse[[0, 2]])
        assert (ev.n_used, ev.n_excluded) == (plain.n_used, plain.n_excluded)
        diverging.update(rng.child(i) for i in range(3))
        with pytest.warns(RuntimeWarning) as record:
            with pytest.raises(RuntimeError, match="^evaluation failed for every restart$"):
                evaluate_test(binned, split, 1.0, cfg, rng, restarts=3)
        assert [str(w.message) for w in record] == [
            f"restart {i} diverged; skipping" for i in range(3)
        ]

    def test_unseen_user_is_excluded(self, tmp_path):
        records = [(k % 3, k % 10, float(k % 5), k) for k in range(30)]
        # user 5 appears only in three of the final four records (the test window)
        records += [(5, 0, 1.0, 97), (5, 1, 2.0, 98), (5, 2, 3.0, 99), (0, 1, 2.0, 100)]
        records += [(0, 0, 1.0, 96)]  # keeps the last bin's training set nonempty
        table = ingest(_write_csv(tmp_path / "r.csv", records))
        binned = bin_by_time(table, 2)
        split = chronological_split(table, test_frac=4 / 35)
        np.testing.assert_array_equal(table.timestamps[split[1]], [97, 98, 99, 100])
        cfg = FitConfig(rank=1, gamma=0.5, max_sweeps=30, tol=1e-6)
        ev = evaluate_test(binned, split, 0.0, cfg, RandomStream(98), restarts=1)
        assert ev.n_excluded == 3
        assert ev.n_used == 1
        assert np.isfinite(ev.rmse[0])

    @pytest.mark.parametrize(
        "records, test_frac",
        [
            (UNSCORABLE, 0.12),
            # user 5's three ratings, the latest, are all of the test split
            ([(k % 3, k % 10, float(k % 5), k) for k in range(30)]
             + [(5, 0, 1.0, 97), (5, 1, 2.0, 98), (5, 2, 3.0, 99), (0, 0, 1.0, 96)],
             3 / 34),
        ],
        ids=["unseen-user", "unseen-users-window"],
    )
    def test_split_with_nothing_to_score_refused_before_any_fit(
        self, tmp_path, monkeypatch, records, test_frac
    ):
        binned = bin_by_time(ingest(_write_csv(tmp_path / "r.csv", records)), 2)
        split = chronological_split(binned.table, test_frac)
        assert split[1].size > 0

        def refuse(*args, **kwargs):
            raise AssertionError("solve called")

        monkeypatch.setattr(ratings, "solve", refuse)
        with pytest.raises(EmptyResultError, match="no test rating's user and item both appear in training"):
            evaluate_test(binned, split, 1.0, FitConfig(rank=1), RandomStream(113))

    @pytest.mark.parametrize(
        "n, test_frac", [(40, 0.0), (4, 0.1)], ids=["test-frac-zero", "rounds-to-zero"]
    )
    def test_empty_test_split_refused_before_any_fit(
        self, tmp_path, monkeypatch, n, test_frac
    ):
        records = [(k % 3, k % 4, float(k % 5), k) for k in range(n)]
        binned = bin_by_time(ingest(_write_csv(tmp_path / "r.csv", records)), 2)
        split = chronological_split(binned.table, test_frac)
        assert split[1].size == 0
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
        ev = evaluate_test(
            binned, chronological_split(table), 0.0, FitConfig(rank=1, gamma=0.5, max_sweeps=30),
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
        binned, folds = planted
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        cv = cross_validate_kappa(binned, folds, grid, cfg, RandomStream(105))
        assert len(builds) == len(folds) == 3
        assert [row.kappa for row in cv.rows] == grid

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_eval_builds_one_set(self, planted, builds, restarts):
        binned, folds = planted
        cfg = FitConfig(rank=2, gamma=0.5, max_sweeps=40, tol=1e-6)
        train, test = chronological_split(binned.table)
        for fold in folds:
            assert not np.isin(np.concatenate(fold), test).any()
        ev = evaluate_test(
            binned, (train, test), 1.0, cfg, RandomStream(106), restarts=restarts
        )
        assert len(builds) == 1
        assert ev.rmse.shape == (restarts,)
        assert ev.n_used + ev.n_excluded == test.size


class TestSyntheticRatings:
    def test_bins_align_with_planted_windows(self):
        table, truth = synthetic_ratings(
            20, 30, 2, 3, fill=0.2, noise_std=0.05, drift_std=0.1,
            rng=RandomStream(102),
        )
        binned = bin_by_time(table, 3)
        np.testing.assert_array_equal(binned.edges, BIN_WIDTH * np.arange(4.0))
        assert truth.d == 3 and truth.n1 == 20 and truth.n2 == 30
        for t in range(3):
            ts = table.timestamps[_bin_rows(binned, t)]
            assert ts.size > 0
            assert ts.min() >= BIN_WIDTH * t

    def test_values_are_truth_plus_noise(self):
        table, truth = synthetic_ratings(
            25, 25, 2, 2, fill=0.3, noise_std=0.0, drift_std=0.3,
            rng=RandomStream(103),
        )
        binned = bin_by_time(table, 2)
        for t in range(2):
            idx = _bin_rows(binned, t)
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
