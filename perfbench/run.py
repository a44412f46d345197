"""The ncsym benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the ``src/`` tree is imported,
nothing is installed).  With ``--trace 0`` the named workload runs in a
fresh child process as a closed loop (one client, sequential calls) for
about S seconds, and the end-to-end metrics of BENCHMARK.json are printed.
With ``--trace 1`` all three workloads run, each in its own child, on a
fixed amount of traced work, and the per-layer metrics are printed; S is
not used there.  Every timed call is checked against an oracle.  See
METRICS.md for what each metric means.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
status is 0 when that line was printed, and nonzero on any error, including
a run that attempted nothing.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
# a run must end within 180 s; keep a margin for start-up and printing
BUDGET_S = 170.0
# one BLAS thread (at most nproc): steadier timings on a shared machine
BLAS_THREADS = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from recorder import outcome  # noqa: E402


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(workload: str, args, deadline: float) -> dict:
    cmd = [
        sys.executable, str(CHILD), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload {workload} ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload {workload} exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "ncsym" / "__init__.py").is_file():
        raise BenchError(f"no ncsym sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    attempted = failed = 0
    metrics: dict[str, float] = {}
    for workload in names if args.trace else [args.workload]:
        res = run_child(workload, args, deadline)
        attempted += res["attempted"]
        failed += res["failed"]
        for name, value in res["metrics"].items():
            metrics[name] = metrics.get(name, 0) + value
        print(f"{workload}: env {json.dumps(res['env'], sort_keys=True)}")
        for name, (value, unit, note) in res["summary"].items():
            print(f"{workload}: {name} = {value:.6g} {unit} ({note})")

    if set(metrics) != set(declared):
        raise BenchError(
            "emitted metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(metrics) - set(declared))}, "
            f"missing {sorted(set(declared) - set(metrics))}"
        )
    correct, failed_ratio = outcome(attempted, failed)
    print(f"failed_ratio = {failed_ratio:.6g} fraction ({failed} of {attempted} operations)")
    if attempted == 0:
        raise BenchError("no operation was attempted")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {declared[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]} for name in sorted(metrics)
        },
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
