"""Operation timing, oracle accounting and per-layer spans.

Every timed call the benchmark makes into ncsym goes through
:meth:`Recorder.op`.  The call is timed; its oracle runs afterwards,
outside the timed interval, and decides whether the operation counts as
failed.  With tracing on, the recorder also keeps one span per call so the
per-layer metrics can be summed when the run ends.  Spans do not nest, so a
span's self time is its duration.  With a :class:`Calibrator`, each call's
time is also divided by the time of a fixed reference kernel run next to it.
"""
from __future__ import annotations

import sys
import time
import tracemalloc
import traceback
from collections import defaultdict

import numpy as np


class Calibrator:
    """Speed of the core this process runs on, from a fixed reference kernel.

    On a shared virtual machine the speed of a core swings by up to about
    2x, in states that last seconds, with the load other tenants put on
    the host.  Process CPU time swings with it, so only a ratio cancels it:
    a call's time divided by the time of a fixed kernel run on the same
    core just before and just after it.  The kernels use only Python and
    numpy, never ncsym, so no change to the library moves them.

    Kinds of work slow by different amounts in a slow state, so each
    workload names the kernel that matches its calls:

    ``small-calls``  interpreter-bound Python, small complex matrix
                     products and einsums, and a 64x64 SVD: many short
                     calls, as in bracket-stream and cli-suites;
    ``large-solve``  one 160x160 SVD: the dense LAPACK work that
                     dominates the size-ladder rungs.

    A sample is the fastest of ``REPEATS`` kernel runs, and it is reused
    while it is younger than ``MAX_AGE_S``, so short calls do not each pay
    for one.
    """

    REPEATS = 3
    MAX_AGE_S = 0.05

    def __init__(self, kernel: str) -> None:
        rng = np.random.default_rng(12345)
        self._small = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        self._tensor = rng.normal(size=(16, 16, 16))
        self._square = rng.normal(size=(64, 64))
        self._large = rng.normal(size=(160, 160))
        self._kernel = {"small-calls": self._small_calls, "large-solve": self._large_solve}[kernel]
        self.samples: list[float] = []
        self._taken_at = 0.0
        self._kernel()

    def _small_calls(self) -> None:
        table: dict[int, int] = {}
        acc = 0
        for i in range(3000):
            table[i % 97] = acc
            acc += i * i % 7
        x = self._small
        for _ in range(20):
            y = x @ self._small
            x = y / np.abs(y).max()
            np.einsum("ij,ijk->k", x.real, self._tensor)
        np.linalg.svd(self._square)

    def _large_solve(self) -> None:
        np.linalg.svd(self._large)

    def current(self) -> float:
        """Seconds of one kernel run now, resampled when the last is stale."""
        if not self.samples or time.perf_counter() - self._taken_at > self.MAX_AGE_S:
            best = float("inf")
            for _ in range(self.REPEATS):
                t0 = time.perf_counter()
                self._kernel()
                best = min(best, time.perf_counter() - t0)
            self.samples.append(best)
            self._taken_at = time.perf_counter()
        return self.samples[-1]


class OpFailed(Exception):
    """An operation raised.  It is already counted as failed; the caller
    skips the rest of the unit of work that depended on its result."""


class Recorder:
    def __init__(self, trace: bool = False, calibrator: Calibrator | None = None) -> None:
        self.trace = trace
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        # busy time in reference-kernel units; stays 0 without a calibrator
        self.busy_ref = 0.0
        # (metric name, layers, seconds, passed), kept only when tracing
        self.spans: list[tuple[str, tuple[str, ...], float, bool]] = []

    def op(self, layers, name: str, fn, oracle):
        """Time ``fn()``, then check its result with ``oracle(result)``.

        ``layers`` names the ncsym modules the call reaches (a string or a
        tuple); ``name`` is the per-layer metric the span adds to.
        """
        if tracemalloc.is_tracing():
            raise RuntimeError("tracemalloc must be off during timed spans")
        layers = (layers,) if isinstance(layers, str) else tuple(layers)
        before = self.calibrator.current() if self.calibrator else 0.0
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            seconds = time.perf_counter() - t0
            self._calibrate(seconds, before)
            self._record(name, layers, seconds, False)
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(name) from exc
        seconds = time.perf_counter() - t0
        self._calibrate(seconds, before)
        try:
            ok = bool(oracle(out))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        self._record(name, layers, seconds, ok)
        return out

    def _calibrate(self, seconds: float, before: float) -> None:
        """Add the call's time over the mean kernel time around it."""
        if self.calibrator:
            after = self.calibrator.current()
            self.busy_ref += 2 * seconds / (before + after)

    def _record(self, name, layers, seconds, ok) -> None:
        self.attempted += 1
        self.busy_s += seconds
        if not ok:
            self.failed += 1
            print(f"perfbench: operation failed: {name}", file=sys.stderr)
        if self.trace:
            self.spans.append((name, layers, seconds, ok))

    def layer_metrics(self) -> dict[str, float]:
        """Busy seconds per span name, and calls and passed calls per layer."""
        out: dict[str, float] = defaultdict(float)
        for name, layers, seconds, ok in self.spans:
            out[name] += seconds
            for layer in layers:
                out[f"{layer}.calls"] += 1
                out[f"{layer}.passed"] += int(ok)
        return dict(out)


def traced_peak_mb(fn) -> float:
    """tracemalloc peak of one call, in MiB.  Used only by the memory pass,
    never inside a timed span, because tracemalloc slows numpy-heavy code
    several times over."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def outcome(attempted: int, failed: int) -> tuple[bool, float]:
    """(correct, failed_ratio).  Zero attempted operations is a failure:
    a run that checked nothing must not read as a pass."""
    if attempted <= 0:
        return False, 1.0
    return failed == 0, failed / attempted
