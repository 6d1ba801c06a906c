import csv
import math
import re

import numpy as np
import pytest

from lowems.core import (
    RULES,
    RandomStream,
    check_matrix,
    check_settings,
    frobenius_norm,
    top_r_svd,
    write_csv,
)
from lowems.dynamics import generate_truth
from lowems.experiments import SweepConfig, bound_shape
from lowems.measurement import estimate_rip, make_operator, observe
from lowems.ratings import (
    FitConfig,
    bin_by_time,
    chronological_split,
    cross_validate_kappa,
    evaluate_test,
    make_split,
    synthetic_ratings,
    truncate,
)
from lowems.solver import LowemsProblem, solve
from lowems.weights import optimal_weights


class TestRandomStream:
    def test_same_pair_replays_identically(self):
        a = RandomStream(5, 7).generator().standard_normal(100)
        b = RandomStream(5, 7).generator().standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_restored_position_continues_the_stream(self):
        stream = RandomStream(5, 7)
        whole = stream.generator().standard_normal(100)
        gen = stream.generator()
        gen.standard_normal(37)
        position = gen.bit_generator.state
        np.testing.assert_array_equal(stream.generator(position).standard_normal(63), whole[37:])

    def test_distinct_streams_differ(self):
        a = RandomStream(5, 1).generator().standard_normal(100)
        b = RandomStream(5, 2).generator().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_distinct_streams_look_independent(self):
        n = 20_000
        a = RandomStream(123, 1).generator().standard_normal(n)
        b = RandomStream(123, 2).generator().standard_normal(n)
        corr = float(a @ b) / n
        assert abs(corr) < 4.0 / np.sqrt(n)

    def test_child_is_deterministic_and_distinct(self):
        root = RandomStream(99)
        assert root.child(3) == root.child(3)
        seen = {root.child(k).stream for k in range(100)}
        assert len(seen) == 100
        # children of different parents don't collide either
        other = {root.child(0).child(k).stream for k in range(100)}
        assert not (seen & other)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(2**64)
        with pytest.raises(TypeError):
            RandomStream(1.5)
        with pytest.raises(ValueError):
            RandomStream(0).child(-1)


class TestFrobeniusNorm:
    def test_matches_double_loop_oracle(self):
        m = RandomStream(11).generator().standard_normal((5, 4))
        total = 0.0
        for i in range(5):
            for j in range(4):
                total += m[i, j] ** 2
        expected = total**0.5
        assert abs(frobenius_norm(m) - expected) <= 1e-12 * expected

    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "vector", "list"])
    def test_same_bits_as_numpy_norm_of_the_c_order_ravel(self, layout):
        # the entries are summed in C order whatever the memory layout, as
        # np.linalg.norm(a.ravel()) sums them
        gen = RandomStream(12).generator()
        m = gen.standard_normal((300, 200)) * 10.0 ** gen.uniform(-3, 3, (300, 200))
        m = {"C": m, "F": np.asfortranarray(m), "strided": m[::3, 1::2],
             "vector": m[0], "list": m[:4, :3].tolist()}[layout]
        for scale in (1.0, 1e-160, 1e150):  # plain, underflowing and overflowing squares
            a = np.asarray(m) * scale
            with np.errstate(over="ignore"):
                want = float(np.linalg.norm(a.ravel()))
                got = frobenius_norm(a)
            assert got == want and type(got) is float
        if layout == "C":
            assert frobenius_norm(m) == float(np.linalg.norm(m))


def _svd_by_deflation(m, rank, iters=3000):
    """Independent oracle: power iteration with deflation, no LAPACK."""
    a = np.array(m, dtype=float)
    gen = RandomStream(2024).generator()
    us, ss, vs = [], [], []
    for _ in range(rank):
        v = gen.standard_normal(a.shape[1])
        v /= np.linalg.norm(v)
        u = np.zeros(a.shape[0])
        for _ in range(iters):
            u = a @ v
            nu = np.linalg.norm(u)
            if nu == 0.0:
                break
            u /= nu
            v = a.T @ u
            nv = np.linalg.norm(v)
            if nv == 0.0:
                break
            v /= nv
        sigma = float(u @ (a @ v))
        us.append(u)
        ss.append(sigma)
        vs.append(v)
        a = a - sigma * np.outer(u, v)
    return np.column_stack(us), np.array(ss), np.column_stack(vs)


class TestTopRSvd:
    def test_matches_deflation_oracle(self):
        m = RandomStream(21).generator().standard_normal((8, 6))
        rank = 3
        u, s, v = top_r_svd(m, rank)
        uo, so, vo = _svd_by_deflation(m, rank)
        np.testing.assert_allclose(s, so, rtol=1e-9)
        err = frobenius_norm(m - (u * s) @ v.T)
        err_oracle = frobenius_norm(m - (uo * so) @ vo.T)
        assert abs(err - err_oracle) <= 1e-10 * max(1.0, err_oracle)

    def test_eckart_young(self):
        gen = RandomStream(22).generator()
        m = gen.standard_normal((10, 8))
        u, s, v = top_r_svd(m, 3)
        best = frobenius_norm(m - (u * s) @ v.T)
        for _ in range(100):
            b = gen.standard_normal((10, 3)) @ gen.standard_normal((3, 8))
            assert best <= frobenius_norm(m - b) + 1e-9

    def test_exact_for_low_rank_input(self):
        gen = RandomStream(23).generator()
        m = gen.standard_normal((9, 3)) @ gen.standard_normal((3, 7))
        u, s, v = top_r_svd(m, 3)
        np.testing.assert_allclose((u * s) @ v.T, m, atol=1e-10)

    def test_tiny_singular_values_zeroed(self):
        base = np.diag([1.0, 1e-15, 1e-16])
        _, s, _ = top_r_svd(base, 3)
        assert s[0] == pytest.approx(1.0)
        assert s[1] == 0.0 and s[2] == 0.0

    def test_factor_shapes(self):
        m = RandomStream(24).generator().standard_normal((6, 4))
        u, s, v = top_r_svd(m, 2)
        assert u.shape == (6, 2) and s.shape == (2,) and v.shape == (4, 2)

    def test_validation(self):
        m = np.eye(4)
        with pytest.raises(ValueError):
            top_r_svd(m, 0)
        with pytest.raises(ValueError):
            top_r_svd(m, 5)
        with pytest.raises(ValueError):
            top_r_svd(np.array([1.0, 2.0]), 1)
        bad = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            top_r_svd(bad, 1)


class TestWriteCsv:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [
            [1, 0.1, "x", math.nan],
            [np.int64(-2), np.float64(1.0 / 3.0), "y,z", -math.inf],
            [3, 1e300, "not_achieved", -0.0],
        ]
        write_csv(path, ["i", "f", "s", "g"], rows)
        assert path.read_bytes() == (
            b"i,f,s,g\r\n"
            b"1,0.10000000000000001,x,nan\r\n"
            b'-2,0.33333333333333331,"y,z",-inf\r\n'
            b"3,1.0000000000000001e+300,not_achieved,-0\r\n"
        )

    def test_floats_round_trip_exactly(self, tmp_path):
        path = tmp_path / "out.csv"
        values = RandomStream(50).generator().standard_normal(200) * 10.0 ** np.arange(-100, 100)
        values = np.append(values, [math.nan, math.inf, 5e-324])
        write_csv(path, ["k", "value"], enumerate(values))
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["k", "value"]
        assert [int(r[0]) for r in parsed[1:]] == list(range(values.size))
        back = np.array([float(r[1]) for r in parsed[1:]])
        np.testing.assert_array_equal(back, values)  # nan compares equal here

    def test_non_float_cells_unchanged(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[10**20, "0.1"], [np.int64(7), "1e300"]])
        assert path.read_bytes() == b"a,b\r\n100000000000000000000,0.1\r\n7,1e300\r\n"


def test_check_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        check_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        check_matrix(np.array([np.inf]).reshape(1, 1))


@pytest.mark.parametrize(
    "value, message",
    [(np.zeros(3), "x must be 2-D, got shape (3,)"),
     (np.zeros((2, 2, 1)), "x must be 2-D, got shape (2, 2, 1)"),
     (np.zeros((0, 3)), "x must be nonempty"),
     ([[1.0, np.nan]], "x contains non-finite entries"),
     ([[1.0], [-np.inf]], "x contains non-finite entries")],
)
def test_check_matrix_messages(value, message):
    with pytest.raises(ValueError) as err:
        check_matrix(value, "x")
    assert str(err.value) == message


def test_check_matrix_returns_a_float_array_without_copying_one():
    a = np.arange(6.0).reshape(2, 3)
    assert check_matrix(a) is a
    got = check_matrix([[1, 2]])
    assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.0]]


def _library_checks():
    """For every setting in RULES, a library entry point that takes it,
    called with all its other arguments valid."""
    rng = RandomStream(1)
    truth = generate_truth(4, 4, 1, 1, 0.0, rng)
    ops = [make_operator("sampling", 4, 4, 10, rng.child(1))]
    obs = observe(ops, truth, 0.1, rng.child(2))
    w = optimal_weights(1, 0.0)
    problem = LowemsProblem(obs, w, 1)
    table, _ = synthetic_ratings(6, 5, 1, 2, 0.8, 0.1, 0.1, rng)
    binned = bin_by_time(table, 2)
    split = chronological_split(table)
    folds = make_split(binned, rng, folds=2)
    sweep = dict(n1=4, n2=4, rank=1, d=1, noise_std=0.1, drift_grid=(0.0,), seed=1)

    def config(name):
        return lambda v: SweepConfig(**{**sweep, name: v})

    return {
        "seed": config("seed"),
        "max_entry": lambda v: LowemsProblem(obs, w, 1, max_entry=v),
        "p_grid": lambda v: SweepConfig(**sweep, p_grid=(v, 1.0)),
        "fill": lambda v: synthetic_ratings(6, 5, 1, 2, v, 0.1, 0.1, rng),
        "test_frac": lambda v: chronological_split(table, v),
        "n1": lambda v: generate_truth(v, 4, 1, 1, 0.0, rng),
        "n2": lambda v: make_operator("gaussian", 4, v, 10, rng, store=False),
        "rank": lambda v: generate_truth(4, 4, v, 1, 0.0, rng),
        "d": lambda v: bin_by_time(table, v),
        "m": lambda v: make_operator("sampling", 4, 4, v, rng),
        "m0": config("m0"),
        "m_total": lambda v: bound_shape(w, 0.1, 0.1, 4, 1, v),
        "trials": lambda v: estimate_rip(ops, w, 1, v, rng),
        "max_sweeps": lambda v: solve(problem, max_sweeps=v),
        "threads": config("threads"),
        "folds": lambda v: make_split(binned, rng, folds=v),
        "restarts": lambda v: evaluate_test(binned, split, 1.0, FitConfig(1), rng, v),
        "min_user_ratings": lambda v: truncate(table, v, 1),
        "min_item_ratings": lambda v: truncate(table, 1, v),
        "noise_std": lambda v: observe(ops, truth, v, rng),
        "drift_std": lambda v: generate_truth(4, 4, 1, 2, v, rng),
        "drift_grid": lambda v: SweepConfig(**{**sweep, "drift_grid": (0.0, v)}),
        "gamma": lambda v: LowemsProblem(obs, w, 1, gamma=v),
        "tol": lambda v: solve(problem, tol=v),
        "kappa": lambda v: optimal_weights(3, v),
        "kappa_grid": lambda v: cross_validate_kappa(binned, folds, [1.0, v], FitConfig(1), rng),
        "success_threshold": config("success_threshold"),
    }


# the values just outside each rule, by its text
_OUTSIDE = {
    "at least 1": [0],
    "nonnegative": [-5e-324],
    "positive": [0.0],
    "in (0, 1]": [0.0, 1.0000000000000002],
    "in [0, 1)": [-5e-324, 1.0],
    "in [0, 2**64)": [-1, 2**64],
}


@pytest.mark.parametrize("name", sorted(RULES))
def test_every_rule_is_enforced_by_the_library(name):
    # a rule that no library entry point reads would only hold on the command line
    rule, check = RULES[name], _library_checks()[name]
    for value in [*_OUTSIDE[str(rule)], math.nan]:
        message = f"{name} must be {rule}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(value)


def test_check_settings_reads_each_entry_and_skips_none():
    check_settings(m0=None, drift_grid=(0.0, 1.5), p_grid=[0.1, 1.0])
    with pytest.raises(ValueError, match=r"^p_grid must be in \(0, 1\], got 2.0$"):
        check_settings(p_grid=[0.1, 2.0])
    with pytest.raises(KeyError):
        check_settings(unknown=1)


@pytest.mark.parametrize("name", ["drift_grid", "p_grid", "kappa_grid"])
@pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
def test_check_settings_refuses_an_empty_grid_and_skips_none(name, empty):
    with pytest.raises(ValueError, match=f"^{name} must be nonempty$"):
        check_settings(**{name: empty})
    check_settings(**{name: None})
