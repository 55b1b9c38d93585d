"""Command-line entry point for the experiment harness.

Each subcommand reads an optional key-value config file, runs one seeded
experiment, and writes a CSV plus a JSON manifest into the output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, harness
from .harness import jw_map, load_config

EXPERIMENTS = dict(harness.EXPERIMENTS)


def positive_int(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinlab",
        description="Seeded estimator and sampler experiments on small "
                    "spin systems.")
    parser.add_argument("--version", action="version",
                        version=f"spinlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, default=None,
                       help="key-value config file ('key = value' lines)")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed; every task derives its own stream")
        p.add_argument("--out", type=Path, default=Path("runs"),
                       help="output directory for CSV and manifest")
        p.add_argument("--threads", type=positive_int, default=1,
                       help="worker processes for fig2's independent "
                            "cells; the other experiments ignore it")

    jw = sub.add_parser("jw-map",
                        help="map a fermion Hamiltonian file to Pauli form")
    jw.add_argument("input", type=Path, help="fermion Hamiltonian JSON")
    jw.add_argument("--out", type=Path, required=True,
                    help="output path for the Pauli JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "jw-map":
        summary = jw_map(args.input, args.out)
        print(f"terms={summary['n_terms']} one_norm={summary['one_norm']:.6g} "
              f"groups={summary['n_groups']}")
        return 0
    config = load_config(args.config) if args.config else {}
    runner = EXPERIMENTS[args.command]
    manifest = runner(config, args.out, args.seed, threads=args.threads)
    print(f"{args.command}: wrote {manifest.outputs.get('csv', '?')} and "
          f"{manifest.experiment}_manifest.json to {args.out} "
          f"({manifest.duration_seconds:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
