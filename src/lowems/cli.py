"""Command-line front end.

Subcommands: ``generate``, ``solve``, ``sweep-error``, ``sweep-samples``,
``rip-probe``, and ``ratings {ingest,cv,eval}``.  Dimension-heavy commands
accept a flat JSON config file via ``--config``; explicit flags override
file values.  Every randomized command requires ``--seed`` (there is no
wall-clock seeding), and every run logs its fully resolved configuration to
stderr.  Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, ratings
from .bundles import load_bundle, save_bundle
from .core import FLOAT_FORMAT, RandomStream, write_csv
from .dynamics import generate_truth
from .experiments import (
    STRATEGIES,
    SweepConfig,
    run_error_sweep,
    run_sample_sweep,
    theorem_diagnostics,
)
from .measurement import VARIANTS, estimate_rip, make_operator, observe
from .solver import LowemsProblem, solve
from .weights import WeightVector, baseline_weights, optimal_weights

_REQUIRED = object()


class UsageError(Exception):
    """Bad invocation (missing/invalid options): exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float_list(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
        return tuple(float(p) for p in parts)
    return tuple(float(v) for v in value)


def _str_list(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(p.strip() for p in value.split(",") if p.strip() != "")
    return tuple(str(v) for v in value)


_COERCE = {
    "int": int,
    "float": float,
    "str": str,
    "floats": _float_list,
    "strs": _str_list,
}


def _merge_config(args, spec: list[tuple[str, str, object]]) -> dict:
    """Resolve options from (flags > config file > defaults).

    ``spec`` rows are (key, type, default); ``_REQUIRED`` marks mandatory
    keys.  Flag attribute names use underscores for dashed keys.
    """
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        known = {key for key, _, _ in spec}
        unknown = set(file_cfg) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, typ, default in spec:
        coerce = _COERCE[typ]
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = coerce(flag_value)
        elif key in file_cfg:
            try:
                resolved[key] = coerce(file_cfg[key])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"config key {key!r}: {exc}") from None
        elif default is _REQUIRED:
            raise UsageError(f"missing required option --{key.replace('_', '-')}")
        else:
            resolved[key] = default
    return resolved


def _log_config(command: str, resolved: dict) -> None:
    printable = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in resolved.items()
    }
    print(
        f"[lowems {command}] config: {json.dumps(printable, sort_keys=True)}",
        file=sys.stderr,
    )


def _log_args(args) -> None:
    """Log a flag-only command's parsed options, keyed by flag destination."""
    subcommand = ("command", "ratings_command")
    name = " ".join(getattr(args, k) for k in subcommand if getattr(args, k, None))
    skip = {"func", *subcommand}
    _log_config(name, {k: v for k, v in vars(args).items() if k not in skip})


def _parse_weights(spec: str, d: int, kappa: float | None) -> WeightVector:
    if spec in ("last", "last_only"):
        return baseline_weights(d, "last_only")
    if spec == "equal":
        return baseline_weights(d, "equal")
    if spec == "optimal":
        if kappa is None:
            raise UsageError("--weights optimal requires --kappa")
        if kappa < 0:
            raise UsageError("--kappa must be nonnegative")
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


_GENERATE_SPEC = [
    ("n1", "int", _REQUIRED),
    ("n2", "int", _REQUIRED),
    ("rank", "int", _REQUIRED),
    ("d", "int", _REQUIRED),
    ("m0", "int", _REQUIRED),
    ("noise_std", "float", 0.05),
    ("drift_std", "float", 0.0),
    ("variant", "str", "sampling"),
]


def _cmd_generate(args) -> int:
    cfg = _merge_config(args, _GENERATE_SPEC)
    cfg["seed"] = args.seed
    _log_config("generate", cfg)
    if cfg["variant"] not in VARIANTS:
        raise UsageError(f"variant must be one of {VARIANTS}")
    root = RandomStream(args.seed)
    truth = generate_truth(
        cfg["n1"], cfg["n2"], cfg["rank"], cfg["d"], cfg["drift_std"], root.child(0)
    )
    ops = [
        make_operator(
            cfg["variant"], cfg["n1"], cfg["n2"], cfg["m0"], root.child(1).child(t)
        )
        for t in range(cfg["d"])
    ]
    obs = observe(ops, truth, cfg["noise_std"], root.child(2))
    save_bundle(args.out, obs)
    if args.dump_x:
        for t, x in enumerate(truth.X_seq):
            np.savetxt(f"{args.dump_x}_{t}.csv", x, delimiter=",", fmt=FLOAT_FORMAT)
    print(f"wrote bundle {args.out} (d={obs.d}, m0={obs.m0}, {obs.variant})")
    return 0


# ------------------------------------------------------------------- solve


def _cmd_solve(args) -> int:
    if args.init == "random" and args.seed is None:
        raise UsageError("--init random requires --seed")
    _log_args(args)
    try:
        obs = load_bundle(args.bundle)
    except (OSError, KeyError, ValueError) as exc:
        raise UsageError(f"cannot load bundle {args.bundle}: {exc}") from None
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
        f"(converged={solution.converged}, "
        f"objective={FLOAT_FORMAT % solution.objective_trace[-1]})"
    )
    return 0


# ------------------------------------------------------------------ sweeps


_SWEEP_COMMON = [
    ("n1", "int", _REQUIRED),
    ("n2", "int", _REQUIRED),
    ("rank", "int", _REQUIRED),
    ("d", "int", _REQUIRED),
    ("noise_std", "float", 0.05),
    ("drift_grid", "floats", _REQUIRED),
    ("strategies", "strs", STRATEGIES),
    ("trials", "int", 10),
    ("variant", "str", "sampling"),
    ("gamma", "float", 0.0),
    ("init", "str", "spectral"),
    ("max_sweeps", "int", 500),
    ("tol", "float", 1e-8),
]


def _sweep_config(args, extra: list[tuple[str, str, object]]) -> SweepConfig:
    cfg = _merge_config(args, _SWEEP_COMMON + extra)
    cfg["seed"] = args.seed
    cfg["threads"] = args.threads
    _log_config(args.command, cfg)
    try:
        return SweepConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _cmd_sweep_error(args) -> int:
    cfg = _sweep_config(args, [("m0", "int", _REQUIRED)])
    result = run_error_sweep(cfg)
    result.to_csv(args.out)
    if args.diagnostics_out:
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


def _cmd_sweep_samples(args) -> int:
    cfg = _sweep_config(
        args,
        [("p_grid", "floats", None), ("success_threshold", "float", 0.04)],
    )
    result = run_sample_sweep(cfg)
    result.to_csv(args.out)
    print(f"wrote {args.out} ({len(result.rows)} rows)")
    return 0


# --------------------------------------------------------------- rip-probe


_RIP_SPEC = [
    ("n1", "int", _REQUIRED),
    ("n2", "int", _REQUIRED),
    ("m0", "int", _REQUIRED),
    ("d", "int", 1),
    ("rank", "int", _REQUIRED),
    ("trials", "int", 100),
    ("variant", "str", "gaussian"),
]


def _cmd_rip_probe(args) -> int:
    cfg = _merge_config(args, _RIP_SPEC)
    cfg["seed"] = args.seed
    cfg["weights"] = args.weights
    _log_config("rip-probe", cfg)
    if cfg["variant"] not in VARIANTS:
        raise UsageError(f"variant must be one of {VARIANTS}")
    weights = _parse_weights(args.weights, cfg["d"], args.kappa)
    root = RandomStream(args.seed)
    ops = [
        make_operator(
            cfg["variant"], cfg["n1"], cfg["n2"], cfg["m0"], root.child(0).child(t)
        )
        for t in range(cfg["d"])
    ]
    estimate = estimate_rip(ops, weights, cfg["rank"], cfg["trials"], root.child(1))
    print(f"rip_estimate {FLOAT_FORMAT % estimate}")
    if args.out:
        keys = ["variant", "n1", "n2", "d", "m0", "rank", "trials"]
        row = [cfg[k] for k in keys] + [estimate]
        write_csv(args.out, keys + ["estimate"], [row])
    return 0


# ----------------------------------------------------------------- ratings


def _cmd_ratings_ingest(args) -> int:
    _log_args(args)
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


def _load_binned(args) -> ratings.BinnedRatings:
    table = ratings.ingest(args.infile)
    return ratings.bin_by_time(table, args.d)


def _cmd_ratings_cv(args) -> int:
    args.kappa_grid = _float_list(args.kappa_grid)
    _log_args(args)
    binned = _load_binned(args)
    root = RandomStream(args.seed)
    split = ratings.make_split(
        binned, root.child(0), test_frac=args.test_frac, folds=args.folds
    )
    cfg = ratings.FitConfig(rank=args.rank, gamma=args.gamma)
    result = ratings.cross_validate_kappa(
        binned, split, args.kappa_grid, cfg, root.child(1)
    )
    result.to_csv(args.out)
    print(f"best_kappa {FLOAT_FORMAT % result.best_kappa}")
    print(f"wrote {args.out}")
    return 0


def _cmd_ratings_eval(args) -> int:
    _log_args(args)
    if math.isnan(args.kappa) or args.kappa < 0:
        raise UsageError("--kappa must be nonnegative")
    binned = _load_binned(args)
    root = RandomStream(args.seed)
    split = ratings.make_split(
        binned, root.child(0), test_frac=args.test_frac, folds=1
    )
    cfg = ratings.FitConfig(rank=args.rank, gamma=args.gamma)
    result = ratings.evaluate_test(
        binned, split, args.kappa, cfg, root.child(2), restarts=args.restarts
    )
    result.to_csv(args.out)
    print(
        f"test_rmse mean {FLOAT_FORMAT % np.mean(result.rmse)} "
        f"min {FLOAT_FORMAT % np.min(result.rmse)} "
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

    gen = sub.add_parser("generate", help="generate a synthetic observation bundle")
    gen.add_argument("--config", help="JSON config file")
    for key in ("n1", "n2", "rank", "d", "m0"):
        gen.add_argument(f"--{key}", type=int)
    gen.add_argument("--noise-std", dest="noise_std", type=float)
    gen.add_argument("--drift-std", dest="drift_std", type=float)
    gen.add_argument("--variant", choices=VARIANTS)
    gen.add_argument("--out", required=True, help="output bundle (.npz)")
    gen.add_argument(
        "--dump-x",
        dest="dump_x",
        help="also write the planted matrices to PREFIX_t.csv",
    )
    add_seed(gen)
    gen.set_defaults(func=_cmd_generate)

    slv = sub.add_parser("solve", help="solve a recovery problem from a bundle")
    slv.add_argument("--bundle", required=True)
    slv.add_argument("--weights", required=True)
    slv.add_argument("--kappa", type=float)
    slv.add_argument("--rank", type=int, required=True)
    slv.add_argument("--gamma", type=float, default=0.0)
    slv.add_argument("--init", choices=("spectral", "random"), default="spectral")
    slv.add_argument("--max-sweeps", dest="max_sweeps", type=int, default=500)
    slv.add_argument("--tol", type=float, default=1e-8)
    slv.add_argument("--max-entry", dest="max_entry", type=float)
    slv.add_argument("--out-x", dest="out_x", required=True)
    slv.add_argument("--out-trace", dest="out_trace")
    add_seed(slv, required=False)
    slv.set_defaults(func=_cmd_solve)

    sweep_help = {
        "sweep-error": "recovery error vs drift level, CSV output",
        "sweep-samples": "minimal sampling density vs drift level, CSV output",
    }
    for name, func, extra in (
        ("sweep-error", _cmd_sweep_error, ("m0",)),
        ("sweep-samples", _cmd_sweep_samples, ()),
    ):
        sw = sub.add_parser(name, help=sweep_help[name])
        sw.add_argument("--config", help="JSON config file")
        for key in ("n1", "n2", "rank", "d", "trials", "max_sweeps") + extra:
            sw.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
        sw.add_argument("--noise-std", dest="noise_std", type=float)
        sw.add_argument("--drift-grid", dest="drift_grid")
        sw.add_argument("--strategies")
        sw.add_argument("--variant", choices=VARIANTS)
        sw.add_argument("--gamma", type=float)
        sw.add_argument("--init", choices=("spectral", "random"))
        sw.add_argument("--tol", type=float)
        sw.add_argument("--threads", type=int, default=1)
        sw.add_argument("--out", required=True)
        if name == "sweep-error":
            sw.add_argument("--diagnostics-out", dest="diagnostics_out")
        else:
            sw.add_argument("--p-grid", dest="p_grid")
            sw.add_argument(
                "--success-threshold", dest="success_threshold", type=float
            )
        add_seed(sw)
        sw.set_defaults(func=func)

    rip = sub.add_parser("rip-probe", help="empirical restricted-isometry probe")
    rip.add_argument("--config", help="JSON config file")
    for key in ("n1", "n2", "m0", "d", "rank", "trials"):
        rip.add_argument(f"--{key}", type=int)
    rip.add_argument("--variant", choices=VARIANTS)
    rip.add_argument("--weights", default="equal")
    rip.add_argument("--kappa", type=float)
    rip.add_argument("--out")
    add_seed(rip)
    rip.set_defaults(func=_cmd_rip_probe)

    rat = sub.add_parser("ratings", help="timestamped-ratings pipeline")
    rat_sub = rat.add_subparsers(dest="ratings_command")

    ing = rat_sub.add_parser("ingest", help="parse/clean a ratings CSV")
    ing.add_argument("--in", dest="infile", required=True)
    ing.add_argument(
        "--min-user-ratings", dest="min_user_ratings", type=int, default=1
    )
    ing.add_argument(
        "--min-item-ratings", dest="min_item_ratings", type=int, default=1
    )
    ing.add_argument("--out")
    ing.set_defaults(func=_cmd_ratings_ingest)

    cv = rat_sub.add_parser("cv", help="cross-validate the noise ratio")
    cv.add_argument("--in", dest="infile", required=True)
    cv.add_argument("--d", type=int, required=True)
    cv.add_argument("--rank", type=int, required=True)
    cv.add_argument("--gamma", type=float, default=1.0)
    cv.add_argument(
        "--kappa-grid",
        dest="kappa_grid",
        default="0,0.001,0.01,0.1,1,10,100,1000",
    )
    cv.add_argument("--folds", type=int, default=5)
    cv.add_argument("--test-frac", dest="test_frac", type=float, default=0.10)
    cv.add_argument("--out", required=True)
    add_seed(cv)
    cv.set_defaults(func=_cmd_ratings_cv)

    ev = rat_sub.add_parser("eval", help="held-out evaluation at a fixed kappa")
    ev.add_argument("--in", dest="infile", required=True)
    ev.add_argument("--d", type=int, required=True)
    ev.add_argument("--rank", type=int, required=True)
    ev.add_argument("--gamma", type=float, default=1.0)
    ev.add_argument("--kappa", type=float, required=True)
    ev.add_argument("--restarts", type=int, default=10)
    ev.add_argument("--test-frac", dest="test_frac", type=float, default=0.10)
    ev.add_argument("--out", required=True)
    add_seed(ev)
    ev.set_defaults(func=_cmd_ratings_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"lowems: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract: exit 2
        print(f"lowems: failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
