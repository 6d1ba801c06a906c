"""Command-line front end.

Subcommands: ``generate``, ``solve``, ``sweep-error``, ``sweep-samples``,
``rip-probe``, and ``ratings {ingest,cv,eval}``.  Every option is declared
once, in argparse.  Dimension-heavy commands also accept a flat JSON config
file via ``--config``, whose values go through the same options' types and
choices; explicit flags override file values.  A numeric value outside its
option's range (a count below 1, a negative or NaN float) is a usage error.
Every randomized command requires ``--seed`` (there is no wall-clock
seeding), and every run logs its parsed options to stderr as one strict-JSON
line.  Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import zipfile

import numpy as np

from . import __version__, ratings
from .bundles import load_bundle, save_bundle
from .core import FLOAT_FORMAT, RULES, RandomStream, check_rank, write_csv
from .experiments import (
    STRATEGIES,
    SweepConfig,
    _cell_data,
    run_error_sweep,
    run_sample_sweep,
    theorem_diagnostics,
)
from .measurement import VARIANTS, estimate_rip, make_operator
from .solver import INIT_MODES, LowemsProblem, solve
from .weights import WeightVector, baseline_weights, optimal_weights


class UsageError(Exception):
    """Bad invocation (missing/invalid options): exit code 1."""


def _float_list(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
        return tuple(float(p) for p in parts)
    return tuple(float(v) for v in value)


def _str_list(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(p.strip() for p in value.split(",") if p.strip() != "")
    return tuple(str(v) for v in value)


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's exit codes and its ``--config FILE``.

    Options declared with :meth:`add_config_option` may also be set by the
    JSON object in ``--config FILE``.  The file's values are put into the
    namespace before the command line is parsed into it; argparse fills in
    a declared default only where the namespace has no value and a flag
    overwrites any value, so precedence is flag > file > default.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config_options: dict[str, argparse.Action] = {}
        self.required_options: list[argparse.Action] = []

    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def add_config_option(self, *flags, required=False, **kwargs):
        """Declare an option that ``--config`` may also set, and ``--config``
        itself before the first one.  ``required`` is checked after parsing,
        since either a flag or the file may supply the value."""
        if not self.config_options:
            self.add_argument("--config", help="JSON config file")
        action = self.add_argument(*flags, **kwargs)
        self.config_options[action.dest] = action
        if required:
            self.required_options.append(action)
        return action

    def parse_known_args(self, args=None, namespace=None):
        if self.config_options:
            path = super().parse_known_args(args)[0].config
            if path is not None:
                namespace = namespace or argparse.Namespace()
                for key, value in self._read_config(path).items():
                    setattr(namespace, key, value)
        namespace, extras = super().parse_known_args(args, namespace)
        # One pass, for flags and file values alike and before anything is
        # written: a required option must be set, and a numeric value must lie
        # in the library's rule for its destination (NaN never does).
        for action in self._actions:
            value = getattr(namespace, action.dest, None)
            if value is None and action in self.required_options:
                raise UsageError(f"missing required option {action.option_strings[0]}")
            if action.dest not in RULES or value is None:
                continue
            valid = RULES[action.dest]
            for v in value if isinstance(value, tuple) else (value,):
                if v not in valid:
                    flag = action.option_strings[0]
                    raise UsageError(f"{flag} must be {valid}, not {v}")
        return namespace, extras

    def _read_config(self, path) -> dict:
        """The file's values, each passed through its option's ``type`` and
        checked against its ``choices``.  As on the command line, a boolean
        is refused, and so is a non-integral number for an ``int`` option."""
        try:
            with open(path) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from None
        if not isinstance(values, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(values) - set(self.config_options)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in values.items():
            action = self.config_options[key]
            try:
                items = value if isinstance(value, list) else [value]
                if any(isinstance(v, bool) for v in items):
                    raise ValueError(f"booleans are not accepted, got {json.dumps(value)}")
                if action.type is int and isinstance(value, float) and not value.is_integer():
                    raise ValueError(f"{value!r} is not an integer")
                if action.type is not None:
                    value = action.type(value)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"{value!r} is not one of {list(action.choices)}")
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
            values[key] = value
        return values


def _json_value(value):
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return str(value)  # "inf" / "-inf": strict JSON has no infinity
    return value


def _log_config(args) -> None:
    """Log the parsed options under their argparse destinations as one
    strict-JSON line."""
    subcommand = ("command", "ratings_command")
    name = " ".join(getattr(args, k) for k in subcommand if getattr(args, k, None))
    skip = {"func", *subcommand}
    options = {k: _json_value(v) for k, v in vars(args).items() if k not in skip}
    print(
        f"[lowems {name}] config: "
        f"{json.dumps(options, sort_keys=True, allow_nan=False)}",
        file=sys.stderr,
    )


def _check_rank(args, n1: int, n2: int) -> None:
    """The library's rank rule for ``--rank`` against the dimensions, as a usage error."""
    try:
        check_rank(args.rank, n1, n2)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_weights(spec: str, d: int, kappa: float | None) -> WeightVector:
    if spec in ("last", "last_only", "equal"):
        return baseline_weights(d, "last_only" if spec == "last" else spec)
    if spec == "optimal":
        if kappa is None:
            raise UsageError("--weights optimal requires --kappa")
        return optimal_weights(d, kappa)
    if spec.startswith("explicit:"):
        try:
            values = _float_list(spec[len("explicit:") :])
            if len(values) != d:
                raise ValueError(f"expected {d} weights, got {len(values)}")
            return WeightVector(np.asarray(values))
        except ValueError as exc:
            raise UsageError(f"bad explicit weights: {exc}") from None
    raise UsageError(
        f"--weights must be last|equal|optimal|explicit:w1,...,wd, got {spec!r}"
    )


# ---------------------------------------------------------------- generate


def _cmd_generate(args) -> int:
    _check_rank(args, args.n1, args.n2)
    truth, obs = _cell_data(args, args.drift_std, args.m0, RandomStream(args.seed))
    save_bundle(args.out, obs)
    if args.dump_x:
        for t, x in enumerate(truth.X_seq):
            np.savetxt(f"{args.dump_x}_{t}.csv", x, delimiter=",", fmt=FLOAT_FORMAT)
    print(f"wrote bundle {args.out} (d={obs.d}, m0={args.m0}, {obs.variant})")
    return 0


# ------------------------------------------------------------------- solve


def _cmd_solve(args) -> int:
    if args.init == "random" and args.seed is None:
        raise UsageError("--init random requires --seed")
    try:
        obs = load_bundle(args.bundle)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise UsageError(f"cannot load bundle {args.bundle}: {exc}") from None
    _check_rank(args, obs.n1, obs.n2)
    weights = _parse_weights(args.weights, obs.d, args.kappa)
    problem = LowemsProblem(
        obs, weights, args.rank, gamma=args.gamma, max_entry=args.max_entry
    )
    rng = RandomStream(args.seed) if args.seed is not None else None
    solution = solve(
        problem,
        max_sweeps=args.max_sweeps,
        tol=args.tol,
        init=args.init,
        rng=rng,
    )
    np.savetxt(args.out_x, solution.X_hat, delimiter=",", fmt=FLOAT_FORMAT)
    if args.out_trace:
        write_csv(
            args.out_trace, ["step", "objective"], enumerate(solution.objective_trace)
        )
    print(
        f"solved in {solution.iterations} sweeps "
        f"(converged={solution.converged}, stop_reason={solution.stop_reason}, "
        f"fallbacks={solution.fallbacks}, "
        f"objective={FLOAT_FORMAT % solution.objective_trace[-1]})"
    )
    return 0


# ------------------------------------------------------------------ sweeps


def _sweep_config(args) -> SweepConfig:
    fields = {f.name for f in dataclasses.fields(SweepConfig)}
    try:
        return SweepConfig(**{k: v for k, v in vars(args).items() if k in fields})
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    error_sweep = args.command == "sweep-error"
    # called by its global name: perfbench's span replaces cli.run_error_sweep
    result = run_error_sweep(cfg) if error_sweep else run_sample_sweep(cfg)
    result.to_csv(args.out)
    if error_sweep and args.diagnostics_out:
        write_csv(
            args.diagnostics_out,
            ["sigma2", "strategy", "bound_value", "phi_prime", "empirical", "ratio"],
            [
                [r.drift_std, r.strategy, r.bound_value, r.phi_prime,
                 r.empirical_error, r.ratio]
                for r in theorem_diagnostics(cfg, result)
            ],
        )
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


# --------------------------------------------------------------- rip-probe


def _cmd_rip_probe(args) -> int:
    _check_rank(args, args.n1, args.n2)
    weights = _parse_weights(args.weights, args.d, args.kappa)
    root = RandomStream(args.seed)
    ops = [
        make_operator(
            args.variant, args.n1, args.n2, args.m0, root.child(0).child(t)
        )
        for t in range(args.d)
    ]
    estimate = estimate_rip(ops, weights, args.rank, args.trials, root.child(1))
    print(f"rip_estimate {FLOAT_FORMAT % estimate}")
    if args.out:
        keys = ["variant", "n1", "n2", "d", "m0", "rank", "trials"]
        row = [getattr(args, k) for k in keys] + [estimate]
        write_csv(args.out, keys + ["estimate"], [row])
    return 0


# ----------------------------------------------------------------- ratings


def _cmd_ratings_ingest(args) -> int:
    table = ratings.ingest(args.infile)
    print(
        f"ingested {table.n} ratings, {table.n_users} users, "
        f"{table.n_items} items"
    )
    if args.min_user_ratings > 1 or args.min_item_ratings > 1:
        table = ratings.truncate(
            table, args.min_user_ratings, args.min_item_ratings
        )
        print(
            f"after truncation: {table.n} ratings, {table.n_users} users, "
            f"{table.n_items} items"
        )
    if args.out:
        ratings.table_to_csv(table, args.out)
        print(f"wrote {args.out}")
    return 0


def _load_binned(args) -> tuple:
    """The binned ratings, the fit settings and the command's root stream:
    its child 0 draws the CV folds, child 1 the CV fits, child 2 the eval's."""
    table = ratings.ingest(args.infile)
    _check_rank(args, table.n_items, table.n_users)
    binned = ratings.bin_by_time(table, args.d)
    cfg = ratings.FitConfig(rank=args.rank, gamma=args.gamma)
    return binned, cfg, RandomStream(args.seed)


def _cmd_ratings_cv(args) -> int:
    if not args.kappa_grid:  # refused before the table is read
        raise UsageError("kappa_grid must be nonempty")
    binned, cfg, root = _load_binned(args)
    folds = ratings.make_split(binned, root.child(0), args.test_frac, args.folds)
    try:
        result = ratings.cross_validate_kappa(
            binned, folds, args.kappa_grid, cfg, root.child(1)
        )
    except ratings.EmptyResultError as exc:
        raise UsageError(f"--folds {args.folds}, --test-frac {args.test_frac}: {exc}") from None
    result.to_csv(args.out)
    print(f"best_kappa {FLOAT_FORMAT % result.best_kappa}")
    print(f"wrote {args.out}")
    return 0


def _cmd_ratings_eval(args) -> int:
    binned, cfg, root = _load_binned(args)
    split = ratings.chronological_split(binned.table, args.test_frac)
    try:
        result = ratings.evaluate_test(
            binned, split, args.kappa, cfg, root.child(2), restarts=args.restarts
        )
    except ratings.EmptyResultError as exc:
        raise UsageError(f"--test-frac {args.test_frac}: {exc}") from None
    result.to_csv(args.out)
    finite = result.rmse[np.isfinite(result.rmse)]  # without diverged restarts
    print(
        f"test_rmse mean {FLOAT_FORMAT % np.mean(finite)} "
        f"min {FLOAT_FORMAT % np.min(finite)} "
        f"(used={result.n_used}, excluded={result.n_excluded})"
    )
    print(f"wrote {args.out}")
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> _Parser:
    parser = _Parser(prog="lowems", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def add_seed(p, required=True):
        p.add_argument("--seed", type=int, required=required, help="master seed")

    def add_sizes(p, *keys):
        for key in keys:
            p.add_config_option(f"--{key}", type=int, required=True)

    def add_solver_settings(add):
        add("--gamma", type=float, default=0.0)
        add("--init", choices=INIT_MODES, default="spectral")
        add("--max-sweeps", type=int, default=500)
        add("--tol", type=float, default=1e-8)

    gen = sub.add_parser("generate", help="generate a synthetic observation bundle")
    add_sizes(gen, "n1", "n2", "rank", "d", "m0")
    gen.add_config_option("--noise-std", type=float, default=0.05)
    gen.add_config_option("--drift-std", type=float, default=0.0)
    gen.add_config_option("--variant", choices=VARIANTS, default="sampling")
    gen.add_argument("--out", required=True, help="output bundle (.npz)")
    gen.add_argument(
        "--dump-x", help="also write the planted matrices to PREFIX_t.csv"
    )
    add_seed(gen)
    gen.set_defaults(func=_cmd_generate)

    slv = sub.add_parser("solve", help="solve a recovery problem from a bundle")
    slv.add_argument("--bundle", required=True)
    slv.add_argument("--weights", required=True)
    slv.add_argument("--kappa", type=float)
    slv.add_argument("--rank", type=int, required=True)
    add_solver_settings(slv.add_argument)
    slv.add_argument("--max-entry", type=float)
    slv.add_argument("--out-x", required=True)
    slv.add_argument("--out-trace")
    add_seed(slv, required=False)
    slv.set_defaults(func=_cmd_solve)

    for name, what in (
        ("sweep-error", "recovery error"),
        ("sweep-samples", "minimal sampling density"),
    ):
        sw = sub.add_parser(name, help=f"{what} vs drift level, CSV output")
        add_sizes(sw, "n1", "n2", "rank", "d")
        if name == "sweep-error":
            add_sizes(sw, "m0")
        sw.add_config_option("--noise-std", type=float, default=0.05)
        sw.add_config_option("--drift-grid", type=_float_list, required=True)
        sw.add_config_option("--strategies", type=_str_list, default=STRATEGIES)
        sw.add_config_option("--trials", type=int, default=10)
        sw.add_config_option("--variant", choices=VARIANTS, default="sampling")
        add_solver_settings(sw.add_config_option)
        sw.add_argument("--threads", type=int, default=1, help="worker processes for the "
                        "cells, at most the usable CPUs; results are unchanged")
        sw.add_argument("--out", required=True)
        if name == "sweep-error":
            sw.add_argument("--diagnostics-out")
        else:
            sw.add_config_option("--p-grid", type=_float_list)
            sw.add_config_option("--success-threshold", type=float, default=0.04)
        add_seed(sw)
        sw.set_defaults(func=_cmd_sweep)

    rip = sub.add_parser("rip-probe", help="empirical restricted-isometry probe")
    add_sizes(rip, "n1", "n2", "m0")
    rip.add_config_option("--d", type=int, default=1)
    add_sizes(rip, "rank")
    rip.add_config_option("--trials", type=int, default=100)
    rip.add_config_option("--variant", choices=VARIANTS, default="gaussian")
    rip.add_argument("--weights", default="equal")
    rip.add_argument("--kappa", type=float)
    rip.add_argument("--out")
    add_seed(rip)
    rip.set_defaults(func=_cmd_rip_probe)

    rat = sub.add_parser("ratings", help="timestamped-ratings pipeline")
    rat_sub = rat.add_subparsers(dest="ratings_command")

    ing = rat_sub.add_parser("ingest", help="parse/clean a ratings CSV")
    ing.add_argument("--in", dest="infile", required=True)
    ing.add_argument("--min-user-ratings", type=int, default=1)
    ing.add_argument("--min-item-ratings", type=int, default=1)
    ing.add_argument("--out")
    ing.set_defaults(func=_cmd_ratings_ingest)

    for name, func, summary in (
        ("cv", _cmd_ratings_cv, "cross-validate the noise ratio"),
        ("eval", _cmd_ratings_eval, "held-out evaluation at a fixed kappa"),
    ):
        fit = rat_sub.add_parser(name, help=summary)
        fit.add_argument("--in", dest="infile", required=True)
        fit.add_argument("--d", type=int, required=True)
        fit.add_argument("--rank", type=int, required=True)
        fit.add_argument("--gamma", type=float, default=1.0)
        if name == "cv":
            fit.add_argument(
                "--kappa-grid", type=_float_list, default="0,0.001,0.01,0.1,1,10,100,1000"
            )
            fit.add_argument("--folds", type=int, default=5)
        else:
            fit.add_argument("--kappa", type=float, required=True)
            fit.add_argument("--restarts", type=int, default=10)
        fit.add_argument("--test-frac", type=float, default=0.10)
        fit.add_argument("--out", required=True)
        add_seed(fit)
        fit.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 1
        _log_config(args)
        return args.func(args)
    except UsageError as exc:
        print(f"lowems: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract: exit 2
        print(f"lowems: failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
