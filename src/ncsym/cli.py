"""Batch command line runner for the check suites.

Usage:  ncsym SUITE [--seed N] [--tol X] [--out PATH] [--format json|csv]
        ncsym grassmann [--samples N]   (the one sampled check, the state scan)

Exit status: 0 when every check passes, 1 when any check fails, 2 for a
usage problem.  Human-readable pass/fail lines go to stdout; the canonical
report is written to --out (byte-identical across runs with equal seeds).
"""
from __future__ import annotations

import argparse
import inspect
import math
import sys
from pathlib import Path

from .suites import SUITES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncsym",
        description="numerical certification suites for noncommutative "
        "symplectic mechanics on finite dimensional algebras",
    )
    sub = parser.add_subparsers(dest="suite", required=True, metavar="SUITE")
    for name, fn in SUITES.items():
        doc = (fn.__doc__ or "").strip().splitlines()
        p = sub.add_parser(name, help=doc[0] if doc else None)
        p.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
        p.add_argument("--tol", type=float, default=None, help="override the main tolerance")
        p.add_argument("--samples", type=int, default=None, help="grassmann state scan size")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json", dest="fmt",
            help="report format for --out (default json)",
        )
        if name == "verify":
            p.add_argument(
                "--algebra", choices=("m2", "m3", "g11", "all"), default="all",
                help="restrict the battery to one algebra preset",
            )
        if name == "coupling":
            p.add_argument("--left", default=None, help="factor token, e.g. quantum:1.0")
            p.add_argument("--right", default=None, help="factor token, e.g. commutative")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fn = SUITES[args.suite]
    accepted = inspect.signature(fn).parameters
    kwargs = {"seed": args.seed}
    for flag in ("tol", "samples"):
        value = getattr(args, flag)
        if value is None:
            continue
        if flag not in accepted:
            print(f"ncsym: suite {args.suite!r} does not take --{flag}", file=sys.stderr)
            return 2
        if flag == "tol" and not (math.isfinite(value) and value > 0):
            print(f"ncsym: --tol must be finite and positive, got {value}",
                  file=sys.stderr)
            return 2
        kwargs[flag] = value
    if args.out and not Path(args.out).parent.is_dir():
        print(f"ncsym: --out directory does not exist: {Path(args.out).parent}",
              file=sys.stderr)
        return 2
    if args.out and Path(args.out).is_dir():
        print(f"ncsym: --out is a directory: {args.out}", file=sys.stderr)
        return 2
    if args.suite == "verify" and args.algebra != "all":
        kwargs["algebra"] = args.algebra
    if args.suite == "coupling" and (args.left or args.right):
        kwargs["left"] = args.left
        kwargs["right"] = args.right
    try:
        report = fn(**kwargs)
    except ValueError as exc:
        print(f"ncsym: {exc}", file=sys.stderr)
        return 2
    for line in report.summary_lines():
        print(line)
    if args.out:
        report.write(args.out, args.fmt)
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
