"""Batch command line runner for the check suites.

Usage:  ncsym SUITE [--seed N] [--out PATH] [--format json|csv]
                    [--tol X] [--algebra NAME] [--left TOKEN --right TOKEN]

One parser serves every suite, and one rule covers the suite-specific flags
--tol, --algebra, --left and --right: each is passed to the suite as the
keyword of its name, and a suite whose signature lacks it is a usage error.

Exit status: 0 when every check passes, 1 when any check fails, 2 for a
usage problem, including an --out path that cannot be written (it is opened
before the suite runs).  Human-readable pass/fail lines go to stdout; the
canonical report is written to --out (byte-identical across runs with equal
seeds).
"""
from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
from pathlib import Path

from .suites import SUITES


def build_parser() -> argparse.ArgumentParser:
    summaries = [f"  {name:<14} {fn.__doc__.strip().splitlines()[0]}"
                 for name, fn in SUITES.items()]
    parser = argparse.ArgumentParser(
        prog="ncsym",
        description="numerical certification suites for noncommutative "
        "symplectic mechanics\non finite dimensional algebras",
        epilog="suites:\n" + "\n".join(summaries),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("suite", choices=SUITES, metavar="SUITE", help="the suite to run")
    parser.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="fmt",
        help="report format for --out (default json)",
    )
    parser.add_argument("--tol", type=float, default=None, help="override the main tolerance")
    parser.add_argument(
        "--algebra", choices=("m2", "m3", "g11", "all"), default=None,
        help="verify: restrict the battery to one algebra preset",
    )
    parser.add_argument("--left", default=None, help="coupling: factor token, e.g. quantum:1.0")
    parser.add_argument("--right", default=None, help="coupling: factor token, e.g. commutative")
    return parser


def _usage_error(message: str, remove: str | None = None) -> int:
    print(f"ncsym: {message}", file=sys.stderr)
    if remove:
        os.remove(remove)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn = SUITES[args.suite]
    accepted = inspect.signature(fn).parameters
    if args.seed < 0:
        return _usage_error(f"--seed must be non-negative, got {args.seed}")
    kwargs = {"seed": args.seed}
    for flag in ("tol", "algebra", "left", "right"):
        if getattr(args, flag) is not None:
            if flag not in accepted:
                return _usage_error(f"suite {args.suite!r} does not take --{flag}")
            kwargs[flag] = getattr(args, flag)
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        return _usage_error(f"--tol must be finite and positive, got {args.tol}")
    if kwargs.get("algebra") == "all":
        del kwargs["algebra"]
    # open --out before the suite runs, without truncating a file that is
    # there; a file this makes is removed again if no report reaches it
    made = None
    if args.out:
        made = None if os.path.lexists(args.out) else args.out
        try:
            open(args.out, "ab").close()
        except FileNotFoundError:
            return _usage_error(f"--out directory does not exist: {Path(args.out).parent}")
        except IsADirectoryError:
            return _usage_error(f"--out is a directory: {args.out}")
        except OSError as exc:
            return _usage_error(f"cannot write --out {args.out}: {exc.strerror or exc}")
    try:
        report = fn(**kwargs)
    except ValueError as exc:
        return _usage_error(str(exc), made)
    for line in report.summary_lines():
        print(line)
    if args.out:
        try:
            report.write(args.out, args.fmt)
        except OSError as exc:
            return _usage_error(f"cannot write --out {args.out}: {exc.strerror or exc}", made)
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
