"""One workload in a fresh process; started by run.py.

Prints one JSON object as its last line of standard output:
{"attempted", "failed", "metrics": {name: number}, "summary": {...}, "env": {...}}.
The clock for setup_s starts at the top of this file, before any import.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from recorder import Calibrator, Recorder  # noqa: E402
from workloads import make_workload  # noqa: E402

IMPORTS_S = time.perf_counter() - T0
# set-up is repeated and its median reported, so that work moved into
# set-up shows above the noise
SETUP_REPEATS = 5


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def commit():
    """HEAD of the checkout when it is a git repository, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_threads": blas_threads(),
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit(),
        "seed": seed,
    }


def timed(wl, seconds: float) -> dict:
    builds = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.setup()
        builds.append(time.perf_counter() - t)
    cal = Calibrator(wl.reference_kernel)
    rec = Recorder(calibrator=cal)
    passes, refs, walls = [], [], []
    deadline = time.perf_counter() + seconds
    # a pass starts only when it should end by the deadline, so the run
    # length does not jump by a whole pass from one run to the next
    while len(passes) < wl.min_passes or time.perf_counter() + walls[-1] <= deadline:
        busy, ref, wall = rec.busy_s, rec.busy_ref, time.perf_counter()
        wl.run_pass(rec, len(passes))
        passes.append(rec.busy_s - busy)
        refs.append(rec.busy_ref - ref)
        walls.append(time.perf_counter() - wall)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = wl.summary(passes)
    summary["imports_s"] = (IMPORTS_S, "s", "part of setup_s")
    summary["reference_kernel_s"] = (
        statistics.median(cal.samples), "s", f"median of {len(cal.samples)} samples",
    )
    return {
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            "setup_s": IMPORTS_S + statistics.median(builds),
            "peak_rss_mb": peak_kib / 1024,
            "pass_ref": statistics.median(refs),
        },
        "summary": summary,
    }


def traced(wl) -> dict:
    """Fixed work, so the per-layer sums and counts compare across runs.

    The memory pass with tracemalloc comes first, then an untraced pass,
    the baseline for the tracing overhead, and the traced passes on the
    same inputs.  Spans cost one list append per call, so the overhead
    ratio mostly shows the machine's pass-to-pass noise.
    """
    wl.setup()
    peaks = wl.memory_pass()
    plain = Recorder()
    n = wl.trace_passes
    untraced_s = sum(wl.run_pass(plain, i) for i in range(n))
    rec = Recorder(trace=True)
    traced_s = sum(wl.run_pass(rec, i) for i in range(n))
    metrics = rec.layer_metrics()
    if wl.overhead_metric:
        metrics[wl.overhead_metric] = traced_s / untraced_s
    metrics.update(peaks)
    return {
        "attempted": plain.attempted + rec.attempted,
        "failed": plain.failed + rec.failed,
        "metrics": metrics,
        "summary": {
            "traced_pass_s": (traced_s, "s", f"{wl.trace_passes} traced passes"),
            "untraced_pass_s": (untraced_s, "s", f"{n} untraced passes"),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        wl = make_workload(args.workload, args.seed, str(workdir))
        result = traced(wl) if args.trace else timed(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
