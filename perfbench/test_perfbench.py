"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench -q

The full traced run in ``test_full_runs_emit_exactly_the_declared_metrics``
takes about a minute and a half; the rest take seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from ncsym.algebra import Element  # noqa: E402
from ncsym.symplectic import SymplecticStructure  # noqa: E402
from recorder import Calibrator, Recorder, outcome  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}


def _smoke(wl, passes: int = 2) -> Recorder:
    wl.setup()
    rec = Recorder(trace=True)
    for i in range(passes):
        wl.run_pass(rec, i)
    return rec


def _small_ladder(seed=3):
    return workloads.SizeLadder(seed, rungs=("M2", "M1-1", "G3"))


def _small_stream(seed=3):
    return workloads.BracketStream(seed, brackets=2, grid=3)


def test_smoke_cli_suites(tmp_path):
    wl = workloads.CliSuites(3, str(tmp_path), suites=("gns", "stern-gerlach"))
    rec = _smoke(wl)
    assert (rec.attempted, rec.failed) == (8, 0)
    assert wl.repeats == 2
    assert set(rec.layer_metrics()) <= PER_LAYER


def test_smoke_size_ladder():
    wl = _small_ladder()
    rec = _smoke(wl)
    assert rec.attempted > 0 and rec.failed == 0
    assert set(rec.layer_metrics()) | set(wl.memory_pass()) <= PER_LAYER


def test_smoke_bracket_stream():
    wl = _small_stream()
    rec = _smoke(wl)
    assert rec.attempted == 2 * (2 * 2 * 2 + 2 + 3)
    assert rec.failed == 0
    assert set(rec.layer_metrics()) <= PER_LAYER
    assert wl.bracket_calls == 2 * 10 and wl.evolve_points == 2 * 9


def test_injected_wrong_bracket_is_counted_as_failed():
    real = SymplecticStructure.poisson

    def off_by_a_little(self, a, b):
        out = real(self, a, b)
        return Element(out.algebra, out.coeffs + 1e-6)

    wl = _small_stream()
    wl.setup()
    rec = Recorder()
    with mock.patch.object(SymplecticStructure, "poisson", off_by_a_little):
        wl.run_pass(rec, 0)
    # two structures times two poisson calls each; nothing else is touched
    assert rec.failed == 4
    correct, ratio = outcome(rec.attempted, rec.failed)
    assert not correct and ratio > 0


def test_raising_call_is_counted_and_the_rung_skipped():
    wl = _small_ladder()
    wl.setup()
    rec = Recorder()
    with mock.patch.object(workloads, "wedge", side_effect=RuntimeError("injected")):
        wl.run_pass(rec, 0)
    # M2 and M1-1 each fail at wedge; G3 does not call it
    assert rec.failed == 2
    assert outcome(rec.attempted, rec.failed)[1] > 0


def test_zero_attempted_operations_is_a_failure():
    wl = workloads.SizeLadder(3, rungs=())
    rec = Recorder()
    wl.run_pass(rec, 0)
    assert rec.attempted == 0
    assert outcome(rec.attempted, rec.failed) == (False, 1.0)


@pytest.mark.parametrize("kernel", ["small-calls", "large-solve"])
def test_reference_units_divide_by_the_kernel_sample(kernel):
    cal = Calibrator(kernel)
    cal.MAX_AGE_S = float("inf")
    rec = Recorder(calibrator=cal)
    for _ in range(3):
        rec.op("algebra", "algebra.calls", lambda: sum(range(10_000)), workloads._completed)
    # one sample, taken before the first call and reused for the rest
    assert len(cal.samples) == 1
    assert rec.busy_ref == pytest.approx(rec.busy_s / cal.samples[0])


def test_stale_kernel_sample_is_retaken_around_each_call():
    cal = Calibrator("small-calls")
    cal.MAX_AGE_S = 0.0
    rec = Recorder(calibrator=cal)
    rec.op("algebra", "algebra.calls", lambda: None, workloads._completed)
    rec.op("algebra", "algebra.calls", lambda: None, workloads._completed)
    assert len(cal.samples) == 4
    assert rec.busy_ref > 0
    assert Recorder().busy_ref == 0.0


def test_wedge_reference_matches_on_graded_algebra():
    from ncsym.algebra import matrix_algebra
    from ncsym.calculus import DerivationFamily, random_cochain, wedge

    fam = DerivationFamily.inner_family(matrix_algebra(3, (2, 1)))
    rng = np.random.default_rng(0)
    for pa in (0, 1):
        for pb in (0, 1):
            a, b = random_cochain(fam, 1, pa, rng), random_cochain(fam, 1, pb, rng)
            ref = workloads._wedge_reference(a, b)
            assert np.max(np.abs(wedge(a, b).tensor - ref)) < 1e-12


def _run(cwd: Path, workload: str, trace: int, seconds: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_full_runs_emit_exactly_the_declared_metrics(trace):
    proc = _run(ROOT, "bracket-stream", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and metric["unit"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "bracket-stream", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
