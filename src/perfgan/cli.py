"""Command-line front end.

Subcommands:
  compare   run every configured algorithm variant over all seeds
  run       run one algorithm once with an explicit seed
  oracle    print the exhaustive-search facts for the configured space

Exit codes: 0 success, 1 configuration error, 2 output I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .harness import (
    ALGORITHM_KINDS,
    ConfigError,
    emit_outputs,
    load_config,
    oracle_facts,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfgan",
        description="Budgeted performance-test generation against a synthetic power model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="run all configured algorithm variants")
    compare.add_argument("--config", required=True, help="JSON experiment config")
    compare.add_argument("--out", required=True, help="output directory")
    compare.add_argument("--runs", type=int, help="override the configured run count")
    compare.add_argument("--master-seed", type=int, help="override the master seed")

    single = sub.add_parser("run", help="run one algorithm once")
    single.add_argument("--algorithm", required=True, choices=ALGORITHM_KINDS)
    single.add_argument("--config", required=True, help="JSON experiment config")
    single.add_argument("--seed", required=True, type=int, help="run seed")
    single.add_argument("--out", required=True, help="output directory")

    oracle = sub.add_parser("oracle", help="print exhaustive-search facts")
    oracle.add_argument("--config", required=True, help="JSON experiment config")

    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    flags = {"runs": args.runs, "master_seed": args.master_seed}
    cfg = replace(load_config(args.config), **{k: v for k, v in flags.items() if v is not None})
    emit_outputs(Path(args.out), *run_experiment(cfg), cfg)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError("--seed: must be >= 0")
    cfg = load_config(args.config)
    matching = [v for v in cfg.algorithms if v.kind == args.algorithm]
    if not matching:
        raise ConfigError(f"algorithms: no {args.algorithm!r} entry in config")
    cfg = replace(cfg, algorithms=matching[:1], runs=1)
    emit_outputs(Path(args.out), *run_experiment(cfg, run_seeds=[args.seed]), cfg)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    facts = oracle_facts(load_config(args.config))
    print(f"cardinality: {facts['cardinality']}")
    print(f"positives: {facts['positive_count']}")
    print(f"density: {facts['density']!r}")
    print(f"gain: {facts['gain']!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"compare": _cmd_compare, "run": _cmd_run, "oracle": _cmd_oracle}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
