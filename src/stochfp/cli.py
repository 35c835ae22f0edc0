"""Command-line harness for the experiment runners.

Subcommands: one per run kind of experiments._KINDS (seeded experiment
matrices), fit (power-law fit of an aggregate CSV), validate-mdp (model file
linting). Exit codes: 0 success, 1 config error (a config, model or input
file that is invalid or cannot be read), 2 runtime abort, 3 a --check
condition failed, 4 internal error (a fault of the program, printed with its
traceback), 5 output error (an output file that cannot be written, such as
a directory in its place or a full disk; printed as its path and reason).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import mdp as mdp_mod
from .experiments import (
    _KINDS,
    ConfigError,
    _OutputError,
    _writing,
    fit_rate,
    load_config,
    parse_seed_spec,
    read_aggregate_csv,
    run_experiment,
)

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_ABORT = 2
_EXIT_CHECK = 3
_EXIT_INTERNAL = 4
_EXIT_OUTPUT = 5


def _parse_cli_seeds(text: str):
    if ".." in text:
        return parse_seed_spec(text)
    try:
        return parse_seed_spec([int(part) for part in text.split(",") if part != ""])
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"--seeds: expected integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochfp",
        description="Seeded fixed-point iteration experiments with CSV/JSON outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _KINDS.items():
        p = sub.add_parser(name, help=kind.help)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seeds", help="override config seeds: 'A..B' or comma list")
        p.add_argument("--jobs", type=int, default=1, help="parallel seed workers")
        p.add_argument(
            "--check",
            action="store_true",
            help="exit 3 unless the config's pass/fail conditions hold",
        )

    fit = sub.add_parser("fit", help="power-law fit on an aggregate.csv")
    fit.add_argument("--input", required=True, help="aggregate.csv produced by a run")
    fit.add_argument(
        "--window", required=True, nargs=2, type=int, metavar=("LO", "HI"),
        help="inclusive n range to fit over",
    )
    fit.add_argument(
        "--column", default="residual_mean", choices=["residual_mean", "dist_to_fp_mean"],
        help="aggregate column to fit",
    )
    fit.add_argument(
        "--noise-floor", type=float, default=1e-12,
        help="means at or below this are excluded as numerically zero",
    )
    fit.add_argument("--out", help="also write the fit JSON to this path")

    val = sub.add_parser("validate-mdp", help="validate an MDP JSON file")
    val.add_argument("path", help="MDP JSON file")
    val.add_argument(
        "--unichain", action="store_true",
        help="also enumerate policies and report the unichain property",
    )
    val.add_argument(
        "--check", action="store_true",
        help="with --unichain: exit 3 if the model is not unichain",
    )
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if cfg["kind"] != args.command:
        raise ConfigError(
            f"config.kind is {cfg['kind']!r} but the subcommand is {args.command!r}"
        )
    if args.seeds is not None:
        cfg["seeds"] = _parse_cli_seeds(args.seeds)
    if args.jobs < 1:
        raise ConfigError("--jobs: must be >= 1")
    summary = run_experiment(cfg, args.out, jobs=args.jobs)
    print(f"{args.command}: {summary['n_seeds']} seeds, "
          f"{summary['rows_aggregated']} aggregated rows -> {args.out}")
    if summary["aborted_seeds"]:
        for item in summary["aborted_seeds"]:
            print(f"aborted seed {item['seed']}: {item['reason']}", file=sys.stderr)
        return _EXIT_ABORT
    if args.check and not summary["checks"]["passed"]:
        for item in summary["checks"]["details"]:
            if not item["passed"]:
                print(f"check failed: {item['name']}", file=sys.stderr)
        return _EXIT_CHECK
    return _EXIT_OK


def _cmd_fit(args) -> int:
    agg = read_aggregate_csv(args.input)
    col = agg.get(args.column)
    if col is None:
        raise ConfigError(f"--column: {args.column} is empty in {args.input}")
    try:
        fit = fit_rate(agg["n"], col, tuple(args.window), args.noise_floor)
    except ValueError as exc:
        raise ConfigError(str(exc))
    doc = {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "n_points": fit.n_points,
        "column": args.column,
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return _EXIT_OK


def _cmd_validate_mdp(args) -> int:
    model = mdp_mod.load_mdp(args.path)
    print(f"valid: {model.num_states} states, {model.num_actions} actions, "
          f"r_max = {model.r_max:.17g}")
    if args.unichain:
        is_unichain = mdp_mod.check_unichain(model)
        print(f"unichain: {'true' if is_unichain else 'false'}")
        if args.check and not is_unichain:
            print("check failed: unichain", file=sys.stderr)
            return _EXIT_CHECK
    return _EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "validate-mdp":
            return _cmd_validate_mdp(args)
        return _cmd_run(args)
    except (ConfigError, mdp_mod.MDPValidationError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except RuntimeError as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return _EXIT_ABORT
    except _OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return _EXIT_OUTPUT
    except Exception as exc:  # a fault of the program, whatever its input
        import traceback  # only a fault reads it

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
