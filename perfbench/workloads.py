"""The three benchmark workloads.

``cli-suites``      passes of all eight CLI suites at default arguments;
                    what a user runs.
``size-ladder``     the construction-side layers on a ladder of algebra
                    sizes, fresh objects on every rung; sets peak memory.
``bracket-stream``  a seeded stream of bracket and evolution calls on three
                    structures built once in set-up; the per-call path.

Each workload has ``setup()`` (one-time construction and one warm-up call
per distinct operation), ``run_pass(rec, index)`` (one unit of timed work,
returning its busy seconds), ``summary(passes)`` (the workload's own
figures for the human-readable lines) and ``memory_pass()`` (tracemalloc
peaks, for traced runs).  Every timed call goes through
:meth:`Recorder.op` with an oracle.  The oracle tolerances are pinned here
rather than imported from ncsym, so a change to the library cannot loosen
them.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from unittest import mock

import numpy as np
from scipy.linalg import expm

from ncsym import cli
from ncsym.algebra import grassmann_algebra, matrix_algebra
from ncsym.calculus import (
    DerivationFamily,
    exterior_derivative,
    random_cochain,
    superderivation_dims,
    wedge,
)
from ncsym.coupling import (
    ProductStructure,
    coupled_evolution,
    grassmann_classical_factor,
    quantum_factor,
)
from ncsym.report import Report
from ncsym.suites import SUITES
from ncsym.symplectic import HamiltonianSystem, quantum_form

from recorder import OpFailed, Recorder, traced_peak_mb

HBAR = 0.7
TMAX = 2.0

CLOSED_GATE = 1e-10      # SymplecticStructure.closed_residual
DD_TOL = 1e-10           # |d(d w)| relative to |w|
WEDGE_TOL = 1e-10
BRACKET_TOL = 1e-9       # against (i/hbar) * supercommutator
PRODUCT_TOL = 1e-12      # against the Kronecker commutator, as coupling_suite
EVOLVE_TOL = 1e-8        # against matrix conjugation, as evolve_suite
LAMBDA_TOL = 1e-9


def _completed(_result) -> bool:
    """Oracle for calls that signal failure only by raising."""
    return True


def _rel_gap(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))


def _bracket_matrix(alg, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(i/hbar) [A, B] on the matrix realization, summed over parity parts."""
    out = 0
    for pa in (0, 1):
        ra = alg.realize(a * (alg.parity == pa))
        for pb in (0, 1):
            rb = alg.realize(b * (alg.parity == pb))
            out = out + ra @ rb - (-1) ** (pa * pb) * (rb @ ra)
    return (1j / HBAR) * out


def _operator_matches(alg, h: np.ndarray, lmat: np.ndarray) -> bool:
    """Column j of the Poisson operator of H must realize (i/hbar)[H, e_j]."""
    want = np.stack([_bracket_matrix(alg, h, e) for e in np.eye(alg.dim)])
    return _rel_gap(alg.realize(lmat.T), want) <= BRACKET_TOL


def _conjugation_route(alg, h: np.ndarray, a: np.ndarray, times) -> np.ndarray:
    """A(t) = U(t)^+ A U(t) with U(t) = exp(-i t H / hbar), per time."""
    hm, am = alg.realize(h), alg.realize(a)
    out = []
    for t in times:
        u = expm(-1j * t * hm / HBAR)
        out.append(u.conj().T @ am @ u)
    return np.array(out)


def _wedge_reference(alpha, beta) -> np.ndarray:
    """alpha ^ beta for two 1-forms, from the convention of
    ncsym.calculus.wedge: the identity slot order carries the Koszul sign
    of beta past X_i, the swapped order adds the graded transposition sign
    and the Koszul sign of beta past X_j."""
    fam = alpha.family
    fp = fam.parities
    prod = np.einsum(
        "ia,jb,abk->ijk", alpha.tensor, beta.tensor, fam.algebra.structure,
        optimize=True,
    )
    koszul = (-1.0) ** (beta.parity * fp)
    keep = koszul[:, None, None]
    swap = (-((-1.0) ** np.outer(fp, fp)) * koszul[None, :])[:, :, None]
    return keep * prod + swap * prod.transpose(1, 0, 2)


def _heisenberg_grid(structure, h, a, times) -> np.ndarray:
    system = HamiltonianSystem(structure, h)
    return np.array([system.evolve_heisenberg(a, t).coeffs for t in times])


# -- cli-suites -----------------------------------------------------------------

# modules reached only through a suite; their .calls count those suite calls
SUITE_LAYERS = {
    "gns": ("states",),
    "grassmann": ("superclassical",),
    "moyal-limit": ("moyal",),
    "stern-gerlach": ("measurement",),
    "decoherence": ("measurement",),
}


class CliSuites:
    name = "cli-suites"
    # passes 2k and 2k+1 share their seeds, so every run repeats each
    # (suite, seed) and compares the report bytes
    min_passes = 2
    overhead_metric = "trace.overhead.battery"
    trace_passes = 1
    reference_kernel = "small-calls"

    def __init__(self, seed: int, out_dir: str, suites=tuple(SUITES)) -> None:
        self.out_dir = out_dir
        self.suites = tuple(suites)
        self._seed_rng = np.random.default_rng(seed)
        self._pair_seeds: list[list[int]] = []
        self.reports: dict[tuple[str, int], bytes] = {}
        self.repeats = 0

    def _seeds(self, pair: int) -> list[int]:
        while len(self._pair_seeds) <= pair:
            draw = self._seed_rng.integers(0, 2**31 - 1, len(self.suites))
            self._pair_seeds.append([int(s) for s in draw])
        return self._pair_seeds[pair]

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        self.run_pass(Recorder(), 0)
        self.reports.clear()
        self.repeats = 0

    def run_pass(self, rec: Recorder, index: int) -> float:
        start = rec.busy_s
        for suite, seed in zip(self.suites, self._seeds(index // 2)):
            try:
                self._suite(rec, suite, seed)
            except OpFailed:
                pass
        return rec.busy_s - start

    def _suite(self, rec: Recorder, suite: str, seed: int) -> None:
        path = os.path.join(self.out_dir, f"{suite}.json")
        argv = [suite, "--seed", str(seed), "--out", path]
        pending = []
        # cli.main writes the report itself.  Deferring that write lets the
        # suite call and the report write be timed as two spans that do not
        # nest and add up to the same work.
        with contextlib.redirect_stdout(io.StringIO()), mock.patch.object(
            Report, "write", lambda report, p, fmt="json": pending.append((report, p, fmt))
        ):
            rec.op(
                ("suites",) + SUITE_LAYERS.get(suite, ()),
                f"suites.{suite}_s",
                lambda: cli.main(argv),
                lambda rc: rc == 0 and len(pending) == 1,
            )
        if pending:
            report, p, fmt = pending[0]
            rec.op(
                "report", "report.write_s", lambda: report.write(p, fmt),
                lambda _: self._report_ok(suite, seed, p),
            )

    def _report_ok(self, suite: str, seed: int, path: str) -> bool:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
        if (suite, seed) in self.reports:
            self.repeats += 1
        first = self.reports.setdefault((suite, seed), data)
        return (
            doc["seed"] == seed
            and doc["passed"] is True
            and len(doc["checks"]) > 0
            and first == data
        )

    def summary(self, passes: list[float]) -> dict:
        return {
            "battery_s": (float(np.median(passes)), "s", f"median of {len(passes)} passes"),
            "determinism_checks": (self.repeats, "count", "repeated (suite, seed) reports compared"),
        }

    def memory_pass(self) -> dict[str, float]:
        return {}


# -- size-ladder ------------------------------------------------------------------

# rung -> (kind, argument); M(p|q) rungs are named Mp-q
RUNGS = {
    "M2": ("matrix", (2, None)),
    "M3": ("matrix", (3, None)),
    "M4": ("matrix", (4, None)),
    "M5": ("matrix", (5, None)),
    "M1-1": ("matrix", (2, (1, 1))),
    "M2-1": ("matrix", (3, (2, 1))),
    "G3": ("grassmann", 3),
    "G4": ("grassmann", 4),
    "G5": ("grassmann", 5),
    "M2xM3": ("product", (2, 3)),
}
# superderivation_dims on G5 and up does not fit a run today
GRASSMANN_SDER_MAX = 4
HAMILTONIAN_SAMPLES = 4
# M4 is in the warm-up because the first pass that allocates its
# mid-sized arrays ran 30-40% slower on them than later passes did; warming
# it keeps the first timed pass like the rest
WARMUP_RUNGS = {
    "M2": RUNGS["M2"],
    "M4": RUNGS["M4"],
    "M1-1": RUNGS["M1-1"],
    "G3": RUNGS["G3"],
    "M2xM2": ("product", (2, 2)),
}


def _sder_expected(n: int, grading) -> tuple[int, int]:
    if grading is None:
        return n * n - 1, 0
    p, q = grading
    return p * p + q * q - 1, 2 * p * q


class SizeLadder:
    name = "size-ladder"
    # a pass is long; at least two per run, so the median does not rest on
    # a single pass
    min_passes = 2
    overhead_metric = "trace.overhead.ladder"
    trace_passes = 1
    # its seconds slowed about half as much as small-calls did when the
    # host got slower, and about as much as one large SVD did
    reference_kernel = "large-solve"

    def __init__(self, seed: int, rungs=tuple(RUNGS)) -> None:
        self.seed = seed
        self.rungs = tuple(rungs)

    def setup(self) -> None:
        # warm-up inputs: a stream no pass index reaches
        rng = np.random.default_rng([self.seed, 2**32])
        warm = Recorder()
        for rung, spec in WARMUP_RUNGS.items():
            self._rung(warm, rung, spec, rng)

    def run_pass(self, rec: Recorder, index: int) -> float:
        rng = np.random.default_rng([self.seed, index])
        start = rec.busy_s
        for rung in self.rungs:
            try:
                self._rung(rec, rung, RUNGS[rung], rng)
            except OpFailed:
                pass
        return rec.busy_s - start

    def _rung(self, rec, rung, spec, rng) -> None:
        kind, arg = spec
        if kind == "matrix":
            self._matrix_rung(rec, rung, *arg, rng)
        elif kind == "grassmann":
            self._grassmann_rung(rec, rung, arg)
        else:
            self._product_rung(rec, rung, *arg)

    def _matrix_rung(self, rec, rung, n, grading, rng) -> None:
        dim = n * n
        alg = rec.op(
            "algebra", f"algebra.construct_s.{rung}",
            lambda: matrix_algebra(n, grading), lambda a: a.dim == dim,
        )
        rec.op("algebra", f"algebra.validate_s.{rung}", alg.validate, _completed)
        want = _sder_expected(n, grading)
        rec.op(
            "calculus", f"calculus.superderivation_dims_s.{rung}",
            lambda: superderivation_dims(alg),
            lambda d: (d["even"], d["odd"]) == want,
        )
        rec.op(
            "calculus", f"calculus.inner_family_s.{rung}",
            lambda: DerivationFamily.inner_family(alg), lambda f: len(f) == dim - 1,
        )
        ss = rec.op(
            "symplectic", f"symplectic.quantum_form_s.{rung}",
            lambda: quantum_form(alg, HBAR),
            lambda s: s.closed_residual <= CLOSED_GATE,
        )
        fam = ss.family
        # odd 1-forms vanish on a trivially graded algebra, so they are used
        # only where the grading is nontrivial
        odd = int(alg.parity.any())

        w = random_cochain(fam, 1, 0, rng)
        scale = max(1.0, w.norm())
        dw = rec.op(
            "calculus", f"calculus.exterior_derivative_s.{rung}.deg1",
            lambda: exterior_derivative(w),
            lambda c: c.degree == 2 and c.symmetry_residual() <= DD_TOL,
        )
        rec.op(
            "calculus", f"calculus.exterior_derivative_s.{rung}.deg2",
            lambda: exterior_derivative(dw), lambda c: c.norm() <= DD_TOL * scale,
        )

        alpha = random_cochain(fam, 1, 0, rng)
        beta = random_cochain(fam, 1, odd, rng)
        want_wedge = _wedge_reference(alpha, beta)
        rec.op(
            "calculus", f"calculus.wedge_s.{rung}", lambda: wedge(alpha, beta),
            lambda c: _rel_gap(c.tensor, want_wedge) <= WEDGE_TOL,
        )

        for k in range(HAMILTONIAN_SAMPLES):
            par = k % 2 if odd else 0
            a = alg.sample_element(rng, parity=par)
            b = alg.sample_element(rng)
            want_pb = _bracket_matrix(alg, a.coeffs, b.coeffs)
            rec.op(
                "symplectic", f"symplectic.hamiltonian_coeffs_s.{rung}",
                lambda: ss.hamiltonian_coeffs(a),
                lambda y: _rel_gap(
                    alg.realize(fam.combination(y, par).matrix @ b.coeffs), want_pb
                ) <= BRACKET_TOL,
            )

    def _grassmann_rung(self, rec, rung, k) -> None:
        alg = rec.op(
            "algebra", f"algebra.construct_s.{rung}",
            lambda: grassmann_algebra(k), lambda a: a.dim == 1 << k,
        )
        rec.op("algebra", f"algebra.validate_s.{rung}", alg.validate, _completed)
        if k <= GRASSMANN_SDER_MAX:
            half = k << (k - 1)
            rec.op(
                "calculus", f"calculus.superderivation_dims_s.{rung}",
                lambda: superderivation_dims(alg),
                lambda d: (d["even"], d["odd"]) == (half, half),
            )
        rec.op(
            "coupling", f"coupling.grassmann_classical_factor_s.{rung}",
            lambda: grassmann_classical_factor(k),
            lambda f: f.commutative and f.lam == 0,
        )

    def _product_rung(self, rec, rung, n1, n2) -> None:
        factors = []
        for n in (n1, n2):
            alg = matrix_algebra(n)
            factors.append(rec.op(
                "coupling", f"coupling.quantum_factor_s.M{n}",
                lambda: quantum_factor(alg, HBAR),
                lambda f: abs(f.lam - 1j * HBAR) <= LAMBDA_TOL,
            ))
        prod = rec.op(
            "coupling", f"coupling.product_structure_s.{rung}",
            lambda: ProductStructure(*factors),
            lambda p: p.algebra.dim == (n1 * n2) ** 2
            and abs(p.lam - 1j * HBAR) <= LAMBDA_TOL,
        )
        rec.op("algebra", f"algebra.validate_s.{rung}", prod.algebra.validate, _completed)

    def summary(self, passes: list[float]) -> dict:
        return {"ladder_s": (float(np.median(passes)), "s", f"median of {len(passes)} passes")}

    def memory_pass(self) -> dict[str, float]:
        """tracemalloc peaks of the memory-heavy calls, on fresh objects."""
        out = {}
        for rung in self.rungs:
            kind, arg = RUNGS[rung]
            if kind == "matrix":
                alg = matrix_algebra(*arg)
                out[f"calculus.superderivation_dims.peak_mb.{rung}"] = traced_peak_mb(
                    lambda: superderivation_dims(alg)
                )
                fresh = matrix_algebra(*arg)
                out[f"symplectic.quantum_form.peak_mb.{rung}"] = traced_peak_mb(
                    lambda: quantum_form(fresh, HBAR)
                )
            elif kind == "grassmann" and arg <= GRASSMANN_SDER_MAX:
                alg = grassmann_algebra(arg)
                out[f"calculus.superderivation_dims.peak_mb.{rung}"] = traced_peak_mb(
                    lambda: superderivation_dims(alg)
                )
            elif kind == "product":
                factors = [quantum_factor(matrix_algebra(n), HBAR) for n in arg]
                out[f"coupling.product_structure.peak_mb.{rung}"] = traced_peak_mb(
                    lambda: ProductStructure(*factors)
                )
        return out


# -- bracket-stream ---------------------------------------------------------------


class BracketStream:
    name = "bracket-stream"
    min_passes = 1
    overhead_metric = None
    trace_passes = 20
    reference_kernel = "small-calls"

    def __init__(self, seed: int, brackets: int = 25, grid: int = 21) -> None:
        self.seed = seed
        self.brackets = brackets
        self.times = np.linspace(0.0, TMAX, grid)
        self.structures: dict = {}
        self.product = None
        self._reset_rates()

    def _reset_rates(self) -> None:
        self.bracket_calls = 0
        self.bracket_s = 0.0
        self.evolve_points = 0
        self.evolve_s = 0.0

    def setup(self) -> None:
        self.structures = {
            "M4": quantum_form(matrix_algebra(4), HBAR),
            "M2-1": quantum_form(matrix_algebra(3, (2, 1)), HBAR),
        }
        self.product = ProductStructure(
            quantum_factor(matrix_algebra(2), HBAR),
            quantum_factor(matrix_algebra(3), HBAR),
        )
        self.run_pass(Recorder(), 0)
        self._reset_rates()

    def run_pass(self, rec: Recorder, index: int) -> float:
        rng = np.random.default_rng([self.seed, index])
        start = rec.busy_s
        try:
            self._brackets(rec, rng)
        except OpFailed:
            pass
        middle = rec.busy_s
        try:
            self._evolutions(rec, rng)
        except OpFailed:
            pass
        self.bracket_s += middle - start
        self.evolve_s += rec.busy_s - middle
        return rec.busy_s - start

    def _brackets(self, rec, rng) -> None:
        for rung, ss in self.structures.items():
            alg = ss.algebra
            for _ in range(self.brackets):
                a, b = alg.sample_element(rng), alg.sample_element(rng)
                want = _bracket_matrix(alg, a.coeffs, b.coeffs)
                rec.op(
                    "symplectic", f"symplectic.poisson_s.{rung}",
                    lambda: ss.poisson(a, b),
                    lambda c: _rel_gap(alg.realize(c.coeffs), want) <= BRACKET_TOL,
                )
                rec.op(
                    "symplectic", f"symplectic.poisson_operator_s.{rung}",
                    lambda: ss.poisson_operator(a),
                    lambda m: _operator_matches(alg, a.coeffs, m),
                )
                self.bracket_calls += 2
        palg = self.product.algebra
        for _ in range(self.brackets):
            x, y = (
                palg.element(rng.normal(size=palg.dim) + 1j * rng.normal(size=palg.dim))
                for _ in range(2)
            )
            xm, ym = palg.realize(x.coeffs), palg.realize(y.coeffs)
            want = (1j / HBAR) * (xm @ ym - ym @ xm)
            rec.op(
                "coupling", "coupling.product_poisson_s.M2xM3",
                lambda: self.product.poisson(x, y),
                lambda c: _rel_gap(palg.realize(c.coeffs), want) <= PRODUCT_TOL,
            )
            self.bracket_calls += 1

    def _evolutions(self, rec, rng) -> None:
        times = self.times
        for rung, ss in self.structures.items():
            alg = ss.algebra
            h = alg.sample_element(rng, parity=0, hermitian=True)
            a = alg.sample_element(rng)
            want = _conjugation_route(alg, h.coeffs, a.coeffs, times)
            rec.op(
                "symplectic", f"symplectic.evolve_heisenberg_s.{rung}",
                lambda: _heisenberg_grid(ss, h, a, times),
                lambda rows: _rel_gap(alg.realize(rows), want) <= EVOLVE_TOL,
            )
            self.evolve_points += times.size
        palg = self.product.algebra
        h = palg.sample_element(rng, hermitian=True)
        obs = palg.sample_element(rng)
        want = _conjugation_route(palg, h.coeffs, obs.coeffs, times)
        rec.op(
            "coupling", "coupling.coupled_evolution_s.M2xM3",
            lambda: coupled_evolution(self.product, h, obs, times),
            lambda rows: _rel_gap(palg.realize(rows), want) <= EVOLVE_TOL,
        )
        self.evolve_points += times.size

    def summary(self, passes: list[float]) -> dict:
        return {
            "brackets_per_s": (
                self.bracket_calls / self.bracket_s, "1/s",
                f"{self.bracket_calls} bracket and poisson_operator calls",
            ),
            "evolve_points_per_s": (
                self.evolve_points / self.evolve_s, "1/s",
                f"{self.evolve_points} time-grid points",
            ),
            "block_s": (float(np.median(passes)), "s", f"median of {len(passes)} blocks"),
        }

    def memory_pass(self) -> dict[str, float]:
        return {}


def make_workload(name: str, seed: int, workdir: str):
    if name == CliSuites.name:
        return CliSuites(seed, workdir)
    return {w.name: w for w in (SizeLadder, BracketStream)}[name](seed)
