"""Symplectic forms, Poisson brackets, Hamiltonian flows: pinned oracles."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from ncsym import _linalg, leibniz, suites, symplectic
from ncsym._linalg import expi_hermitian, max_abs, rk4_trajectory
from ncsym.algebra import Coo, kron_element, matrix_algebra
from ncsym.calculus import (
    AlgebraIsomorphism,
    CalculusError,
    Cochain,
    DerivationFamily,
    differential_chunks,
    exterior_derivative,
    interior,
    lie_derivative,
    pullback,
    random_cochain,
)
from ncsym.coupling import (
    ProductStructure,
    coupled_evolution,
    grassmann_classical_factor,
    quantum_factor,
)
from ncsym.symplectic import (
    HamiltonianSystem,
    SymplecticError,
    SymplecticStructure,
    quantum_form,
)
from test_calculus import inner_derivation
from test_coupling import product_form

M2 = matrix_algebra(2)
M3 = matrix_algebra(3)
M11 = matrix_algebra(2, grading=(1, 1))

SX = M2.element([0, 1, 1, 0])
SY = M2.element([0, -1j, 1j, 0])
SZ = M2.element([1, 0, 0, -1])

HBAR = 0.8
WQ2 = quantum_form(M2, HBAR)
# the commutator form omega_c(D_A, D_B) = [A, B] = (i/hbar) omega_q
WC2 = SymplecticStructure(
    (1j / HBAR) * WQ2.omega, {"kind": "custom", "hbar": None, "reality": "imaginary"}
)


def hamiltonian_derivation(ss, a):
    """Y_A as a derivation, from the family coefficients of the solve."""
    return ss.family.combination(ss.hamiltonian_coeffs(a), a.parity)


def test_closedness_and_reality_gates_scale_with_the_form():
    # at hbar = 1e6 the round-off in d omega and omega* - omega exceeds the
    # absolute 1e-10 but not 1e-10 |omega|
    for n in (2, 3, 4):
        ss = quantum_form(matrix_algebra(n), 1e6)
        assert ss.omega.norm() == pytest.approx(1e6)
        assert ss.closed_residual <= 1e-10 * ss.omega.norm()
    assert ss.closed_residual > 1e-10
    # a defect of 1e-9 |omega| in d omega still fails
    rng = np.random.default_rng(50)
    bump = random_cochain(ss.family, 2, 0, rng)
    bump = (1e-9 * ss.omega.norm() / exterior_derivative(bump).norm()) * bump
    with pytest.raises(SymplecticError, match="not closed"):
        SymplecticStructure(ss.omega + bump, ss.kind)


CLOSED_FORMS = {
    **{f"M{n}": (lambda n=n: quantum_form(matrix_algebra(n), 0.7).omega) for n in range(2, 7)},
    "M1-1": lambda: quantum_form(M11, 0.7).omega,
    "M2-1": lambda: quantum_form(matrix_algebra(3, grading=(2, 1)), 0.7).omega,
    "M2xM3": lambda: product_form(
        ProductStructure(quantum_factor(M2, 0.7), quantum_factor(M3, 0.7))
    )[1],
}


@pytest.mark.parametrize("name", list(CLOSED_FORMS))
def test_streamed_closed_residual_is_the_norm_of_d_omega(name):
    omega = CLOSED_FORMS[name]()
    ss = SymplecticStructure(omega)
    assert ss.closed_residual == exterior_derivative(omega).norm()
    assert ss.closed_residual <= 1e-10 * max(1.0, omega.norm())
    if name == "M6":
        # its products with the 35 members exceed 2**19 / 35 entries per
        # value component: more than one block
        assert len(list(differential_chunks(omega))) > 1


def test_a_defect_in_the_last_slice_of_m7_is_not_closed():
    ss = quantum_form(matrix_algebra(7), 0.7)
    fam, omega = ss.family, ss.omega
    m, dim = len(fam), fam.algebra.dim
    # the value components of the last block of d omega
    blocks = list(differential_chunks(omega))
    last = blocks[-1].shape[-1]
    assert len(blocks) > 1
    # an alternating 2-cochain valued in those components only
    rng = np.random.default_rng(51)
    t = np.zeros((m, m, dim), dtype=complex)
    a = rng.standard_normal((m, m, last))
    t[..., dim - last :] = a - a.transpose(1, 0, 2)
    bump = Cochain(fam, 2, 0, t)
    parts = [max_abs(part) for part in differential_chunks(bump)]
    # its action terms carry d(bump) into other blocks, but its largest
    # entries lie in the last one, so at 1.05 times the gate only the last
    # block fails it
    assert parts[-1] > 1.1 * max(parts[:-1])
    gate = symplectic.CLOSED_TOL * max(1.0, omega.norm())
    for size in (1e-9 * omega.norm(), 1.05 * gate):
        with pytest.raises(SymplecticError, match="not closed"):
            SymplecticStructure(omega + (size / parts[-1]) * bump, ss.kind)


def test_quantum_form_of_m7_peaks_below_60_mb():
    # d omega (48**3 * 49 entries, 87 MB) is streamed block by block, never
    # held whole
    tracemalloc.start()
    try:
        ss = quantum_form(matrix_algebra(7), 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ss.closed_residual <= 1e-10
    assert peak <= 60 * 2**20


@pytest.mark.parametrize("where", [0, -1])
def test_a_nan_in_d_omega_fails_the_closedness_gate(where, monkeypatch):
    # NaN must not drop out of the running maximum, wherever it comes
    def slices(omega):
        parts = [np.zeros((1, 3, 3, 4)), np.zeros((2, 3, 3, 4))]
        parts[where][0, 0, 0, 0] = np.nan
        yield from parts

    monkeypatch.setattr(symplectic, "differential_chunks", slices)
    with pytest.raises(SymplecticError, match="not closed"):
        SymplecticStructure(WQ2.omega, WQ2.kind)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_form_is_rejected_before_the_gates(bad):
    t = WQ2.omega.tensor.copy()
    t[0, 1, 0], t[1, 0, 0] = bad, -bad
    with pytest.raises(CalculusError, match="finite"):
        SymplecticStructure(Cochain(WQ2.family, 2, 0, t), WQ2.kind)


def test_reality_tags():
    assert WC2.reality_residuals["imaginary"] < 1e-10
    assert WQ2.reality_residuals["real"] < 1e-10
    assert WC2.closed_residual < 1e-10
    assert WQ2.closed_residual < 1e-10


def test_canonical_form_rejects_non_special():
    # the commutator form under quantum_form needs a special algebra
    from ncsym.algebra import grassmann_algebra

    with pytest.raises(SymplecticError, match="not special"):
        quantum_form(grassmann_algebra(2), 1.0)


def test_quantum_form_reuses_the_inner_family_is_special_built(monkeypatch):
    build = DerivationFamily.inner_family.__func__
    calls = []

    def counted(cls, alg):
        calls.append(alg)
        return build(cls, alg)

    monkeypatch.setattr(DerivationFamily, "inner_family", classmethod(counted))
    alg = matrix_algebra(3, grading=(2, 1))
    ss = quantum_form(alg, HBAR)
    assert len(calls) == 1
    ref = build(DerivationFamily, alg)
    assert np.array_equal(ss.family.matrices, ref.matrices)
    assert list(ss.family.parities) == list(ref.parities)


QUANTUM_ALGEBRAS = {
    **{f"M{n}": (n, None) for n in range(2, 6)},
    "M1-1": (2, (1, 1)),
    "M2-1": (3, (2, 1)),
}


@pytest.mark.parametrize("label", list(QUANTUM_ALGEBRAS))
def test_commutator_cochain_and_pb_tensor_equal_the_dense_constructions(label):
    # omega_c from the family matrices, against the sources contracted with
    # the dense commutator cube; pb_tensor by one matrix product, against
    # the einsum over the family members
    alg = matrix_algebra(*QUANTUM_ALGEBRAS[label])
    omega = symplectic._commutator_cochain(alg)
    sources = np.array([x.source.coeffs for x in omega.family.members])
    cube = alg.commutator_constants.dense()
    t = np.tensordot(np.tensordot(sources, cube, axes=(1, 0)), sources, axes=(1, 1))
    assert np.array_equal(omega.tensor, t.transpose(0, 2, 1))
    ss = quantum_form(alg, 0.7)
    want = np.einsum("il,lkj->ijk", ss.hamiltonian_basis, ss.family.matrices, order="C")
    assert np.array_equal(ss.pb_tensor, want)
    assert ss.pb_tensor.flags.c_contiguous


def test_quantum_form_factors_each_matrix_once(monkeypatch):
    # np.linalg.pinv calls the svd of numpy's own module, so both names are
    # counted; the dense commutator cube and einsum are blocked outright
    calls = []
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    def blocked(*args, **kwargs):
        raise AssertionError("dense cube or einsum in the construction")

    m5, m11 = matrix_algebra(5), matrix_algebra(2, grading=(1, 1))
    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr("numpy.linalg._linalg.svd", counted)
    monkeypatch.setattr(Coo, "dense", blocked)
    monkeypatch.setattr(np, "einsum", blocked)
    # the inner family: one SVD for its rank and pseudo-inverse; M5's form
    # adds one for its single-parity pairing; M(1|1)'s graded pairing keeps
    # a rank SVD and one pseudo-inverse per parity block; a one-column
    # component of the superderivation solve takes its norm, not an SVD
    for build, want in (
        (lambda: DerivationFamily.inner_family(matrix_algebra(5)), 1),
        (lambda: quantum_form(m5, 0.7), 5),
        (lambda: quantum_form(m11, 0.7), 8),
    ):
        calls.clear()
        build()
        assert len(calls) == want


def test_only_the_superderivation_solve_assembles_the_leibniz_system(monkeypatch):
    # the Leibniz check of a family reads the operators' nonzeros and the
    # structure constants directly; the solve assembles one system per
    # parity that has candidates (M5 has no odd ones)
    calls = []
    real = leibniz.leibniz_system

    def counted(alg, parity):
        calls.append(parity)
        return real(alg, parity)

    monkeypatch.setattr(leibniz, "leibniz_system", counted)
    m5, m11 = matrix_algebra(5), matrix_algebra(2, grading=(1, 1))
    for build, want in (
        (lambda: DerivationFamily.inner_family(m5), []),
        (lambda: quantum_form(m5, 0.7), [0]),
        (lambda: quantum_form(m11, 0.7), [0, 1]),
    ):
        calls.clear()
        build()
        assert calls == want


def test_hamiltonian_derivation_under_commutator_form():
    # i_{Y_A} omega_c = -dA has the solution Y_A = D_A
    rng = np.random.default_rng(41)
    for _ in range(5):
        a = M2.sample_element(rng)
        lhs = hamiltonian_derivation(WC2, a)
        rhs = inner_derivation(M2, a)
        np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-9)


def test_quantum_bracket_is_scaled_commutator():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = M2.sample_element(rng)
        b = M2.sample_element(rng)
        pb = WQ2.poisson(a, b)
        oracle = (1j / HBAR) * (a * b - b * a)  # M2 is even
        np.testing.assert_allclose(pb.coeffs, oracle.coeffs, atol=1e-9)


def test_bracket_identities_random():
    # graded Leibniz, reality, super-Jacobi, and Y_{A,B} = [Y_A, Y_B] on M11
    wq = quantum_form(M11, 1.0)
    alg = M11
    rng = np.random.default_rng(43)
    for _ in range(25):
        pa, pb, pc = rng.integers(0, 2, size=3)
        a = alg.sample_element(rng, parity=int(pa))
        b = alg.sample_element(rng, parity=int(pb))
        c = alg.sample_element(rng, parity=int(pc))
        eta_ab = -1.0 if (pa and pb) else 1.0
        # {A, BC} = {A, B} C + eta {B, {A, C} -> B {A, C}} (graded Leibniz)
        lhs = wq.poisson(a, b * c)
        rhs = wq.poisson(a, b) * c + eta_ab * (b * wq.poisson(a, c))
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-9)
        # {A, B}* = -eta {B*, A*}
        lhs = wq.poisson(a, b).star()
        rhs = -eta_ab * wq.poisson(b.star(), a.star())
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-9)
        # graded Jacobi
        eta_ca = -1.0 if (pc and pa) else 1.0
        eta_a_bc = -1.0 if (pa and (pb ^ pc)) else 1.0
        eta_c_ab = -1.0 if (pc and (pa ^ pb)) else 1.0
        jac = (
            wq.poisson(a, wq.poisson(b, c)).coeffs
            + eta_a_bc * wq.poisson(b, wq.poisson(c, a)).coeffs
            + eta_c_ab * wq.poisson(c, wq.poisson(a, b)).coeffs
        )
        np.testing.assert_allclose(jac, np.zeros(alg.dim), atol=1e-9)
        # [Y_A, Y_B] = Y_{A,B}
        ya = hamiltonian_derivation(wq, a).matrix
        yb = hamiltonian_derivation(wq, b).matrix
        pb_el = wq.poisson(a, b)
        lhs_m = ya @ yb - (-1) ** (pa * pb) * (yb @ ya)
        rhs_m = wq.poisson_operator(pb_el)
        np.testing.assert_allclose(lhs_m, rhs_m, atol=1e-9)


@pytest.mark.parametrize(
    "alg", [M3, matrix_algebra(3, grading=(2, 1))], ids=["M3", "M2-1"]
)
def test_bracket_tensor_solves_the_hamiltonian_system(alg):
    # Y_A comes from the per-basis solve; interior and d check the defining
    # equation i_{Y_A} omega = -dA independently, one parity part at a time
    ss = quantum_form(alg, HBAR)
    rng = np.random.default_rng(50)
    for _ in range(5):
        a = alg.sample_element(rng)
        b = alg.sample_element(rng)
        via_parts = np.zeros(alg.dim, dtype=complex)
        for t in (0, 1):
            part = alg.element(a.coeffs * (alg.parity == t))
            if max_abs(part.coeffs) == 0.0:
                continue
            y = hamiltonian_derivation(ss, part)
            d_part = exterior_derivative(Cochain(ss.family, 0, part.parity, part.coeffs))
            defect = interior(y, ss.omega) + d_part
            assert defect.norm() <= 1e-9
            via_parts += y.matrix @ b.coeffs
        np.testing.assert_allclose(ss.poisson(a, b).coeffs, via_parts, atol=1e-9)


def _product_form_structures():
    prod = ProductStructure(quantum_factor(M2, 1.0), quantum_factor(M2, 1.0))
    ss = SymplecticStructure(
        product_form(prod)[1], {"kind": "quantum", "hbar": 1.0, "reality": "real"}
    )
    return prod, ss


def test_product_form_brackets_factor_elements():
    # no basis element of M2 (x) M2 is Hamiltonian for the product form, but
    # a (x) 1 is, and its bracket is the product bracket
    prod, ss = _product_form_structures()
    rng = np.random.default_rng(51)
    a = kron_element(prod.algebra, M2.sample_element(rng), M2.unit)
    b = prod.algebra.sample_element(rng)
    np.testing.assert_allclose(
        ss.poisson(a, b).coeffs, prod.poisson(a, b).coeffs, atol=1e-9
    )


def test_solve_gate_rejects_non_hamiltonian_elements():
    prod, ss = _product_form_structures()
    e11 = M2.basis_element(0)
    a = kron_element(prod.algebra, e11, e11)
    with pytest.raises(SymplecticError, match="hamiltonian solve failed"):
        ss.hamiltonian_coeffs(a)
    with pytest.raises(SymplecticError, match="hamiltonian solve failed"):
        ss.poisson(a, a)
    with pytest.raises(SymplecticError, match="hamiltonian solve failed"):
        ss.poisson_operator(a)


def test_the_solve_gate_judges_each_parity_part(monkeypatch):
    # a structure rebuilt from an odd-block solve that is off by a relative
    # 1e-6 fails every input with an odd part, and leaves an even input's
    # zero odd part at 0
    alg = matrix_algebra(3, grading=(2, 1))
    ref = quantum_form(alg, HBAR)
    odd_block = ref._pairing[ref.family.parities == 1].T
    pinv, perturbed = np.linalg.pinv, []

    def off_pinv(m):
        if np.array_equal(m, odd_block):
            perturbed.append(True)
            return pinv(m) * (1 + 1e-6)
        return pinv(m)

    monkeypatch.setattr(symplectic.np.linalg, "pinv", off_pinv)
    ss = quantum_form(alg, HBAR)
    monkeypatch.undo()
    assert len(perturbed) == 1
    odd = alg.parity == 1
    assert np.array_equal(ss.solve_residual[~odd], ref.solve_residual[~odd])
    assert np.abs(ss.solve_residual[odd]).max(axis=1).min() > 1e-7
    # the residual rows cannot be edited behind the gate's back
    assert not ss.solve_residual.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ss.solve_residual[0, 0] = 0.0
    first = int(np.flatnonzero(odd)[0])
    rng = np.random.default_rng(55)
    even = alg.sample_element(rng, parity=0)
    for a in (alg.basis_element(first), alg.sample_element(rng, parity=1), even + alg.basis_element(first)):
        with pytest.raises(SymplecticError, match="hamiltonian solve failed"):
            ss.poisson(a, even)
        with pytest.raises(SymplecticError, match="hamiltonian solve failed"):
            ss.poisson_operator(a)
    ss.poisson(even, even)
    ss.poisson_operator(even)


def even_only_structure():
    """D_E11 and D_E33 on M(2|1) commute and are self-adjoint, so 1 (X ^ Y)
    is a closed, nondegenerate form on them with only even directions."""
    alg = matrix_algebra(3, grading=(2, 1))
    fam = DerivationFamily(alg, [inner_derivation(alg, alg.basis_element(k)) for k in (0, 8)])
    t = np.zeros((2, 2, alg.dim), dtype=complex)
    t[0, 1], t[1, 0] = alg.unit_coeffs, -alg.unit_coeffs
    return SymplecticStructure(Cochain(fam, 2, 0, t))


def test_a_family_without_odd_directions_cannot_solve_for_an_odd_element():
    ss = even_only_structure()
    alg = ss.algebra
    e13 = alg.basis_element(2)
    assert e13.parity == 1
    with pytest.raises(SymplecticError, match="no family directions of the required parity"):
        ss.poisson(e13, e13)
    with pytest.raises(SymplecticError, match="no family directions of the required parity"):
        ss.poisson_operator(e13)
    # the diagonal units are hamiltonian: D_E11 and D_E33 kill them
    ss.poisson_operator(alg.basis_element(0) + alg.basis_element(8))


def parity_masks(ss):
    return np.array([ss.algebra.parity == 0, ss.algebra.parity == 1], dtype=float)


def exact_solve_residual(ss, coeffs):
    """The gate's exact rule: the largest solve residual of either parity
    part, each part's residual row being its coefficients against R."""
    return np.abs((coeffs * parity_masks(ss)) @ ss.solve_residual).max()


def solve_bound(ss, coeffs):
    """The larger parity part's sum_i |a_i| max_j |R_ij|, without the
    rounding factor, so at most the gate's bound."""
    return (parity_masks(ss) @ (np.abs(coeffs) * np.abs(ss.solve_residual).max(axis=1))).max()


GATE_STRUCTURES = {
    "M4": lambda: structure("M4"),
    "M2-1": lambda: structure("M2-1"),
    "even-only": even_only_structure,
}


@pytest.mark.parametrize("name", list(GATE_STRUCTURES))
def test_the_solve_gate_verdict_is_the_exact_rule(name):
    ss = GATE_STRUCTURES[name]()
    alg = ss.algebra
    rng = np.random.default_rng(59)
    samples = [alg.basis_element(k).coeffs for k in range(alg.dim)]
    samples += [alg.sample_element(rng, parity=p).coeffs for p in (0, 1, None) for _ in range(3)]
    tol = symplectic.HAMILTONIAN_SOLVE_TOL
    # (the bound passes, the exact residual passes) for every input
    regions = set()
    for scale in (1.0, 1e2, 1e4, 1e5, 3e5, 1e6, 3e6):
        for coeffs in samples:
            a = alg.element(scale * coeffs)
            closes = exact_solve_residual(ss, a.coeffs) <= tol
            regions.add((solve_bound(ss, a.coeffs) <= tol, closes))
            if closes:
                ss.poisson_operator(a)
                ss.poisson(a, a)
            else:
                with pytest.raises(SymplecticError):
                    ss.poisson_operator(a)
                with pytest.raises(SymplecticError):
                    ss.poisson(a, a)
    # both verdicts, and on the matrix algebras the band where only the
    # exact residual passes
    band = set() if name == "even-only" else {(False, True)}
    assert regions == {(True, True), (False, False)} | band


def test_an_element_past_the_bound_is_judged_by_the_exact_residual():
    # the band where the bound fails but the exact residual passes
    ss = structure("M4")
    a = 3e5 * ss.algebra.sample_element(np.random.default_rng(3))
    assert solve_bound(ss, a.coeffs) > symplectic.HAMILTONIAN_SOLVE_TOL
    assert exact_solve_residual(ss, a.coeffs) <= symplectic.HAMILTONIAN_SOLVE_TOL
    ss.poisson(a, a)
    ss.poisson_operator(a)


@pytest.mark.parametrize("name", list(GATE_STRUCTURES))
def test_a_nan_coefficient_fails_the_solve_gate(name):
    ss = GATE_STRUCTURES[name]()
    coeffs = ss.algebra.unit_coeffs.astype(complex)
    coeffs[-1] = np.nan
    a = ss.algebra.element(coeffs)
    with pytest.raises(SymplecticError):
        ss.poisson(a, a)
    with pytest.raises(SymplecticError):
        ss.poisson_operator(a)


def test_no_canonical_pairs_in_m2():
    # the trace obstruction forbids {A, B} = 1 in a matrix algebra
    rng = np.random.default_rng(44)
    for _ in range(10):
        a = M2.sample_element(rng)
        b = M2.sample_element(rng)
        assert max_abs(WQ2.poisson(a, b).coeffs - M2.unit_coeffs) > 1e-9


def test_precession_oracle():
    # H = sigma_z with hbar = 1: sigma_x(t) = cos(2t) sx - sin(2t) sy
    hs = HamiltonianSystem(quantum_form(M2, 1.0), SZ)
    t = 0.31
    evolved = hs.evolve_heisenberg(SX, t)
    oracle = np.cos(2 * t) * SX.coeffs - np.sin(2 * t) * SY.coeffs
    np.testing.assert_allclose(evolved.coeffs, oracle, atol=1e-10)


def test_evolution_matches_unitary_conjugation():
    rng = np.random.default_rng(45)
    h = M3.sample_element(rng, hermitian=True)
    hs = HamiltonianSystem(quantum_form(M3, HBAR), h)
    a = M3.sample_element(rng)
    t = 0.7
    evolved = hs.evolve_heisenberg(a, t)
    u = expm(1j * h.realize() * t / HBAR)
    oracle = u @ a.realize() @ u.conj().T
    np.testing.assert_allclose(evolved.realize(), oracle, atol=1e-9)


def test_rk4_matches_closed_form():
    rng = np.random.default_rng(46)
    h = M2.sample_element(rng, hermitian=True)
    hs = HamiltonianSystem(quantum_form(M2, 1.0), h)
    a = M2.sample_element(rng)
    t = 2.0
    closed = hs.evolve_heisenberg(a, t)
    stepped = rk4_trajectory(hs.liouville, a.coeffs, [t], 1e3)[0]
    np.testing.assert_allclose(stepped, closed.coeffs, atol=1e-8)


def test_rk4_trajectory_visits_unsorted_times_in_order():
    rng = np.random.default_rng(49)
    h = M2.sample_element(rng, hermitian=True)
    hs = HamiltonianSystem(quantum_form(M2, 1.0), h)
    a = M2.sample_element(rng)
    times = np.array([1.5, -0.4, 0.0, 0.7, -1.1])
    order = np.argsort(times)
    shuffled = rk4_trajectory(hs.liouville, a.coeffs, times, 100)
    ordered = rk4_trajectory(hs.liouville, a.coeffs, times[order], 100)
    np.testing.assert_array_equal(shuffled[order], ordered)
    closed = np.array([hs.evolve_heisenberg(a, t).coeffs for t in times])
    np.testing.assert_allclose(shuffled, closed, atol=1e-6)


def _random_generator(seed):
    rng = np.random.default_rng(seed)
    lmat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    y0 = rng.normal(size=6) + 1j * rng.normal(size=6)
    return lmat, y0


def test_rk4_step_is_the_four_stage_step():
    lmat, y0 = _random_generator(50)
    dt = 0.1
    k1 = lmat @ y0
    k2 = lmat @ (y0 + 0.5 * dt * k1)
    k3 = lmat @ (y0 + 0.5 * dt * k2)
    k4 = lmat @ (y0 + dt * k3)
    expected = y0 + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    stepped = rk4_trajectory(lmat, y0, [dt], 1.0)[0]
    assert np.linalg.norm(stepped - expected) <= 1e-13 * np.linalg.norm(expected)


def test_rk4_error_falls_as_the_fourth_power_of_the_step():
    # an RK4 and not the exponential: halving the step cuts the error 16-fold
    lmat, y0 = _random_generator(50)
    exact = expm(lmat) @ y0
    errors = [
        np.linalg.norm(rk4_trajectory(lmat, y0, [1.0], n)[0] - exact) for n in (50, 100, 200)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def _evolve_rk4_call(monkeypatch):
    # the generator, start vector, times and rate that evolve at seed 0
    # hands to RK4
    calls = []
    monkeypatch.setattr(
        suites, "rk4_trajectory", lambda *args: calls.append(args) or rk4_trajectory(*args)
    )
    suites.evolve_suite(seed=0)
    (call,) = calls
    return call


def _stepwise(lmat, y0, times, rate):
    # the RK4 of rk4_trajectory one step at a time: each stretch between
    # sorted times takes max(1, ceil(|dt| rate)) applications of P(dt L)
    y = np.asarray(y0, dtype=complex)
    out = np.zeros((len(times), y.size), dtype=complex)
    t_now = 0.0
    for r in np.argsort(times):
        n = max(1, math.ceil(abs(times[r] - t_now) * rate))
        step = _linalg.taylor_polynomial((times[r] - t_now) / n * lmat, 4)
        for _ in range(n):
            y = step @ y
        t_now = times[r]
        out[r] = y
    return out


def _assert_rows_close(got, expected, rtol):
    gap = np.linalg.norm(got - expected, axis=1)
    assert np.all(gap <= rtol * np.linalg.norm(expected, axis=1)), gap


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 8, 200, 4000])
def test_rk4_powers_equal_the_stepwise_loop_on_the_evolve_generator(steps, monkeypatch):
    lmat, y0, _, _ = _evolve_rk4_call(monkeypatch)
    powered = rk4_trajectory(lmat, y0, [1.0], steps)
    _assert_rows_close(powered, _stepwise(lmat, y0, [1.0], steps), 1e-13)


def test_rk4_powers_equal_the_stepwise_loop_on_evolve_s_grid(monkeypatch):
    lmat, y0, times, rate = _evolve_rk4_call(monkeypatch)
    _assert_rows_close(rk4_trajectory(lmat, y0, times, rate), _stepwise(lmat, y0, times, rate),
                       1e-13)


def test_rk4_powers_equal_the_stepwise_loop_on_unsorted_and_negative_times(monkeypatch):
    lmat, y0, _, _ = _evolve_rk4_call(monkeypatch)
    times = np.array([2.5, 0.75, -1.3, 4.0, 0.0])
    _assert_rows_close(rk4_trajectory(lmat, y0, times, 400.0),
                       _stepwise(lmat, y0, times, 400.0), 1e-13)


@pytest.mark.parametrize(
    "rate, times, name",
    [
        (0.0, [10.0], "steps_per_unit"),
        (-5.0, [10.0], "steps_per_unit"),
        (float("nan"), [10.0], "steps_per_unit"),
        (float("inf"), [10.0], "steps_per_unit"),
        (100.0, [1.0, float("nan")], "times"),
    ],
    ids=["zero", "negative", "nan", "inf", "nan-time"],
)
def test_rk4_trajectory_rejects_bad_rates_and_times(rate, times, name):
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match=name):
        rk4_trajectory(rotation, [1.0, 0.0], times, rate)


def test_functional_duality():
    # phi_t(A_0) = phi_0(A_t) with the density-matrix route as the oracle
    rng = np.random.default_rng(47)
    h = M2.sample_element(rng, hermitian=True)
    hs = HamiltonianSystem(quantum_form(M2, HBAR), h)
    rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    # functional phi(e_k) = Tr(rho rep_k)
    f = np.array([np.trace(rho @ M2.rep_basis[k]) for k in range(4)])
    a = M2.sample_element(rng)
    t = 1.3
    lhs = hs.evolve_functional(f, t) @ a.coeffs
    # Schroedinger oracle: rho(t) = exp(-iHt/hbar) rho exp(+iHt/hbar)
    u = expm(-1j * h.realize() * t / HBAR)
    rho_t = u @ rho @ u.conj().T
    rhs = np.trace(rho_t @ a.realize())
    assert abs(lhs - rhs) < 1e-9


def test_hamiltonian_must_be_hermitian_and_even():
    with pytest.raises(SymplecticError):
        HamiltonianSystem(WQ2, M2.element([0, 1j, 1, 0]))  # not hermitian
    wq11 = quantum_form(M11, 1.0)
    odd = M11.basis_element(1) + M11.basis_element(1).star()
    with pytest.raises(SymplecticError):
        HamiltonianSystem(wq11, odd)


TIMES = np.linspace(0.0, 2.0, 21)


def structure(label):
    if label == "M2-1":
        return quantum_form(matrix_algebra(3, grading=(2, 1)), HBAR)
    if "x" not in label:
        return quantum_form(matrix_algebra(int(label[1:])), HBAR)
    right = matrix_algebra(int(label[-1]))
    return ProductStructure(quantum_factor(M2, HBAR), quantum_factor(right, HBAR))


class NoEig(Exception):
    pass


def block_eig(monkeypatch):
    def no_eig(a):
        raise NoEig

    monkeypatch.setattr(symplectic.np.linalg, "eig", no_eig)


@pytest.mark.parametrize("label", ["M2", "M3", "M4", "M2-1", "M2xM3", "M2xM2"])
def test_heisenberg_matrix_matches_expm_on_the_grid(label, monkeypatch):
    ss = structure(label)
    # every quantum L_H is skew-adjoint, so the general eig is never called
    block_eig(monkeypatch)
    rng = np.random.default_rng(51)
    h = ss.algebra.sample_element(rng, parity=0, hermitian=True)
    hs = HamiltonianSystem(ss, h)
    assert hs.eigen is not None
    assert hs.eig_residual <= 1e-12 and hs.eig_cond <= 1e4
    a = ss.algebra.sample_element(rng)
    phi = rng.normal(size=ss.algebra.dim) + 1j * rng.normal(size=ss.algebra.dim)
    for t in TIMES:
        m = hs.heisenberg_matrix(t)
        np.testing.assert_allclose(m, expm(t * hs.liouville), rtol=0, atol=1e-12)
        # the flows apply the same propagator to vectors
        np.testing.assert_allclose(hs.evolve_heisenberg(a, t).coeffs, m @ a.coeffs, rtol=0, atol=1e-13)
        np.testing.assert_allclose(hs.evolve_functional(phi, t), m.T @ phi, rtol=0, atol=1e-13)


@pytest.mark.parametrize("label", ["M2xM3", "M2xM2"])
def test_a_coupled_grid_is_the_flow_at_each_time(label):
    prod = structure(label)
    rng = np.random.default_rng(57)
    h = prod.algebra.sample_element(rng, hermitian=True)
    obs = prod.algebra.sample_element(rng)
    hs = HamiltonianSystem(prod, h)
    per_time = np.array([hs.evolve_heisenberg(obs, t).coeffs for t in TIMES])
    np.testing.assert_allclose(coupled_evolution(prod, h, obs, TIMES), per_time, rtol=0, atol=1e-13)


class JordanBracket:
    """A bracket holder on M2 whose Poisson operator is one Jordan block
    with eigenvalue ``ev``."""

    algebra = M2

    def __init__(self, ev):
        self.ev = ev

    def poisson_operator(self, h):
        return self.ev * np.eye(M2.dim) + np.eye(M2.dim, k=1, dtype=complex)


def test_a_nilpotent_flow_is_exponentiated_by_expm():
    hs = HamiltonianSystem(JordanBracket(0.0), M2.unit)
    assert hs.eigen is None and hs.eig_cond > 1e4
    for t in TIMES:
        # L^4 = 0, so exp(tL) is the finite series sum_{k <= 3} (tL)^k / k!
        tl = t * hs.liouville
        exact = sum(np.linalg.matrix_power(tl, k) / math.factorial(k) for k in range(4))
        np.testing.assert_allclose(hs.heisenberg_matrix(t), exact, rtol=1e-15, atol=1e-15)


# t up to 50 brings the 1-norm of t L near 100, so expm squares 7 times
LONG_TIMES = np.linspace(0.0, 50.0, 26)


def fallback_error(hs, times):
    """Largest error of ``heisenberg_matrix`` against scipy's expm on the
    times, relative to the largest entry of the exponential."""
    worst = 0.0
    for t in times:
        want = expm(t * hs.liouville)
        worst = max(worst, max_abs(hs.heisenberg_matrix(t) - want) / max_abs(want))
    return worst


def test_the_expm_fallback_matches_scipy_on_a_jordan_block():
    # eigenvalue i: exp(tL) = exp(it) (I + tN + ...) turns and grows as t^3
    hs = HamiltonianSystem(JordanBracket(1j), M2.unit)
    assert hs.eigen is None
    assert fallback_error(hs, LONG_TIMES) <= 1e-13


def test_the_expm_fallback_fails_at_a_lower_taylor_degree(monkeypatch):
    # the degree-8 polynomial misses about 1e-6 of exp at 1-norm 1.09, so
    # the check above must see a Taylor degree that is too low
    monkeypatch.setattr(_linalg, "EXPM_DEGREE", 8)
    hs = HamiltonianSystem(JordanBracket(1j), M2.unit)
    assert fallback_error(hs, LONG_TIMES) > 1e-13


def grassmann_pair():
    # the odd canonical bracket of G2 x G2 gives a non-normal L_H (skew
    # defect 0.39) whose eigenvectors are degenerate (cond 1.2e15)
    g2 = grassmann_classical_factor(2)
    prod = ProductStructure(g2, g2)
    h = prod.algebra.sample_element(np.random.default_rng(3), parity=0, hermitian=True)
    return HamiltonianSystem(prod, h)


FALLBACK_SYSTEMS = {
    "jordan": lambda: HamiltonianSystem(JordanBracket(1j), M2.unit),
    "G2xG2": grassmann_pair,
}


@pytest.mark.parametrize("name", list(FALLBACK_SYSTEMS))
def test_the_expm_fallback_applies_expm_to_vectors(name):
    hs = FALLBACK_SYSTEMS[name]()
    assert hs.eigen is None
    rng = np.random.default_rng(58)
    dim = hs.algebra.dim
    a = hs.algebra.element(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for t in TIMES:
        want = expm(t * hs.liouville)
        scale = max_abs(want) * max(max_abs(a.coeffs), max_abs(phi))
        assert max_abs(hs.evolve_heisenberg(a, t).coeffs - want @ a.coeffs) <= 1e-13 * scale
        assert max_abs(hs.evolve_functional(phi, t) - want.T @ phi) <= 1e-13 * scale


@pytest.mark.parametrize("n", [4, 5])
def test_a_central_hamiltonian_takes_the_eigen_path(n):
    # L_H of the unit is round-off, not exactly 0, but skew-adjoint, so
    # its eigenvectors are unitary
    ss = quantum_form(matrix_algebra(n), 0.7)
    hs = HamiltonianSystem(ss, ss.algebra.unit)
    assert hs.eigen is not None
    assert hs.eig_cond <= 1.0 + 1e-12 and hs.eig_residual <= 1e-12
    # up to t = 1, t |L_H| is below 1e-15, so the exact flow moves no
    # element by more than that either
    for a in np.eye(ss.algebra.dim):
        assert max_abs(hs.flow(a, np.linspace(0.0, 1.0, 11)) - a) <= 1e-15


class NoSvd(Exception):
    pass


def test_the_eigh_branch_bounds_cond_without_an_svd(monkeypatch):
    # structures first: their solves take pseudo-inverses by SVD
    pairs = []
    for label in ("M2", "M4", "M2-1", "M2xM3"):
        ss = structure(label)
        pairs.append((ss, ss.algebra.sample_element(np.random.default_rng(61), parity=0, hermitian=True)))
    for n in (4, 5):
        ss = quantum_form(matrix_algebra(n), 0.7)
        pairs.append((ss, ss.algebra.unit))

    def no_svd(*args, **kwargs):
        raise NoSvd

    monkeypatch.setattr(symplectic.np.linalg, "cond", no_svd)
    monkeypatch.setattr(symplectic.np.linalg, "svd", no_svd)
    systems = [HamiltonianSystem(ss, h) for ss, h in pairs]
    # a Liouvillian that is not skew-adjoint is not factored at all
    nilpotent = HamiltonianSystem(JordanBracket(0.0), M2.unit)
    monkeypatch.undo()
    for hs in systems:
        assert hs.eigen is not None
        assert np.linalg.cond(hs.eigen[0]) <= hs.eig_cond <= 1.0 + 1e-12
    assert nilpotent.eigen is None
    assert nilpotent.eig_cond == nilpotent.eig_residual == math.inf


def test_a_non_normal_liouvillian_falls_back_to_expm(monkeypatch):
    # only a skew-adjoint L_H is factored: the G2 x G2 one is built with
    # the general eig blocked, and its flow is exponentiated by expm
    block_eig(monkeypatch)
    hs = grassmann_pair()
    assert hs.eigen is None
    assert hs.eig_cond == hs.eig_residual == math.inf


@pytest.mark.parametrize("label", ["M4", "M2-1", "M2xM3"])
def test_the_bracket_tensor_unfolds_without_a_copy(label):
    t = structure(label).pb_tensor
    assert t.flags.c_contiguous
    assert np.shares_memory(t.reshape(t.shape[0], -1), t)


def test_expi_hermitian_matches_scipy():
    rng = np.random.default_rng(53)
    for n in (1, 2, 4, 6):
        for _ in range(5):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = 3.0 * (a + a.conj().T)
            # unitary: every entry is at most 1, so atol is relative
            np.testing.assert_allclose(expi_hermitian(h), expm(1j * h), rtol=0, atol=1e-13)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1e300])
@pytest.mark.parametrize("route", ["heisenberg", "functional", "coupled"])
def test_a_time_the_flow_cannot_reach_is_rejected(route, t):
    hs = HamiltonianSystem(WQ2, SZ)
    prod = structure("M2xM2")
    h = prod.algebra.sample_element(np.random.default_rng(52), hermitian=True)
    calls = {
        "heisenberg": lambda: hs.evolve_heisenberg(SX, t),
        "functional": lambda: hs.evolve_functional(SX.coeffs, t),
        "coupled": lambda: coupled_evolution(prod, h, prod.algebra.unit, [0.5, t]),
    }
    with pytest.raises(SymplecticError, match="cannot evolve to time"):
        calls[route]()


def test_a_central_hamiltonian_evolves_at_any_finite_time():
    hs = HamiltonianSystem(WQ2, M2.unit)
    np.testing.assert_array_equal(hs.heisenberg_matrix(1e300), np.eye(M2.dim))


def test_hamiltonian_flow_preserves_form():
    rng = np.random.default_rng(48)
    g = M2.sample_element(rng, hermitian=True)
    yg = hamiltonian_derivation(WQ2, g)
    phi = AlgebraIsomorphism(M2, M2, expm(0.9 * yg.matrix))
    assert (pullback(phi, WQ2.omega) - WQ2.omega).norm() < 1e-9


def test_flow_pullback_first_order_slope():
    # for a generic self-conjugate derivation Y and closed form w:
    # pullback(exp(eps Y)) w = w - eps L_Y w + O(eps^2); the remainder
    # must shrink at slope ~2 in eps
    fam = WQ2.family
    rng = np.random.default_rng(49)
    omega = WQ2.omega + exterior_derivative(random_cochain(fam, 1, 0, rng))
    h = M2.sample_element(rng, hermitian=True)
    y = inner_derivation(M2, M2.element(1j * h.coeffs))
    lie = lie_derivative(y, omega)
    assert lie.norm() > 1e-3  # generic: the form is not invariant
    eps_list = [1e-2, 5e-3, 2.5e-3]
    rem = []
    for eps in eps_list:
        phi = AlgebraIsomorphism(M2, M2, expm(eps * y.matrix))
        r = (pullback(phi, omega) - omega + eps * lie).norm()
        rem.append(r)
    slopes = np.diff(np.log(rem)) / np.diff(np.log(eps_list))
    assert np.all(slopes > 1.9) and np.all(slopes < 2.1)
