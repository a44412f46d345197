import numpy as np
import pytest
from scipy.linalg import expm

from ncsym._linalg import bilinear, rk4_trajectory
from ncsym.algebra import grassmann_algebra, grassmann_derivative_matrices
from ncsym.algebra import kron_element, matrix_algebra
from ncsym.calculus import (
    Cochain,
    Derivation,
    DerivationFamily,
    exterior_derivative,
    superderivation_residuals,
)
from ncsym.coupling import (
    CouplingError,
    ProductStructure,
    _structure_factor,
    coupled_evolution,
    grassmann_classical_factor,
    product_symplectic,
    quantum_factor,
)
from ncsym.symplectic import (
    HamiltonianSystem,
    SymplecticError,
    SymplecticStructure,
    quantum_form,
)

M2 = matrix_algebra(2)
M3 = matrix_algebra(3)
M11 = matrix_algebra(2, grading=(1, 1))
SX = M2.element([0, 1, 1, 0])
SY = M2.element([0, -1j, 1j, 0])
SZ = M2.element([1, 0, 0, -1])


def koszul_sign(parity_a, parity_b):
    """The sign (-1)**(parity_a * parity_b)."""
    return -1 if parity_a & parity_b & 1 else 1


QM2 = quantum_factor(M2, 1.0)
GCL2 = grassmann_classical_factor(2)


def _factor_form(f):
    """The derivation family and 2-form behind a factor's bracket: those of
    its symplectic structure, or for a Grassmann classical factor the left
    derivatives d_a with omega(d_a, d_b) = -delta_ab."""
    if f.structure is not None:
        return f.structure.family, f.structure.omega
    alg = f.algebra
    dl, _ = grassmann_derivative_matrices(alg)
    family = DerivationFamily(alg, [Derivation(alg, m, 1) for m in dl])
    w = np.zeros((len(dl), len(dl), alg.dim), dtype=complex)
    for a in range(len(dl)):
        w[a, a] = -alg.unit_coeffs
    return family, Cochain(family, 2, 0, w)


def product_form(prod):
    """The product 2-form on prod.algebra: the family is X (x) 1 for each
    factor-1 member X and S_Y (x) Y for each factor-2 member Y, with S_Y the
    Koszul sign of Y past the first factor; omega is w1 (x) 1 on factor-1
    pairs, 1 (x) w2 on factor-2 pairs and zero on mixed pairs."""
    a1, a2 = prod.f1.algebra, prod.f2.algebra
    fam1, w1 = _factor_form(prod.f1)
    fam2, w2 = _factor_form(prod.f2)
    members = [
        Derivation(prod.algebra, np.kron(x.matrix, np.eye(a2.dim)), x.parity)
        for x in fam1.members
    ]
    for y in fam2.members:
        signs = np.where(a1.parity.astype(bool), -1.0, 1.0) if y.parity else np.ones(a1.dim)
        members.append(Derivation(prod.algebra, np.kron(np.diag(signs), y.matrix), y.parity))
    family = DerivationFamily(prod.algebra, members)
    m1, m2 = len(fam1), len(fam2)
    w = np.zeros((m1 + m2, m1 + m2, prod.algebra.dim), dtype=complex)
    for i in range(m1):
        for j in range(m1):
            w[i, j] = np.kron(w1.tensor[i, j], a2.unit_coeffs)
    for i in range(m2):
        for j in range(m2):
            w[m1 + i, m1 + j] = np.kron(a1.unit_coeffs, w2.tensor[i, j])
    return family, Cochain(family, 2, 0, w)


def test_factor_lambda_values():
    assert abs(quantum_factor(M2, 0.5).lam - 0.5j) < 1e-12
    # the commutator form omega_c = (i/hbar) omega_q has {A, B} = [A, B]
    commutator = SymplecticStructure((1j / 0.5) * quantum_form(M2, 0.5).omega)
    canonical = _structure_factor(commutator, "canonical")
    assert abs(canonical.lam - (-1.0)) < 1e-12
    assert abs(GCL2.lam) < 1e-12
    assert GCL2.commutative and not QM2.commutative
    assert QM2.fit_residual < 1e-12


def test_grassmann_bracket_tensor_matches_pairwise_reference():
    # {e_i, e_j} = -sum_a (right d_a e_i)(left d_a e_j), one pair at a time;
    # every entry is a small integer, so the batched tensor is exact
    f = grassmann_classical_factor(3)
    alg = f.algebra
    dl, dr = grassmann_derivative_matrices(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            want = np.zeros(alg.dim, dtype=complex)
            for right, left in zip(dr, dl):
                want -= alg.mul_coeffs(right[:, i], left[:, j])
            np.testing.assert_array_equal(f.pb_tensor[i, j], want)


@pytest.mark.parametrize(
    "alg", [matrix_algebra(2, grading=(1, 1)), grassmann_algebra(2)], ids=["M1-1", "G2"]
)
def test_swapped_structure_gives_basis_supercommutators(alg):
    assert alg.commutator_constants is alg.commutator_constants  # one table
    comm = alg.commutator_constants.dense()
    for i in range(alg.dim):
        for j in range(alg.dim):
            e_i, e_j = alg.basis_element(i), alg.basis_element(j)
            want = e_i * e_j - koszul_sign(e_i.parity, e_j.parity) * (e_j * e_i)
            np.testing.assert_array_equal(comm[i, j], want.coeffs)


def test_grassmann_factor_bracket_axioms():
    alg = GCL2.algebra

    def bracket(x, y):
        return alg.element(bilinear(GCL2.pb_tensor, x.coeffs, y.coeffs))

    rng = np.random.default_rng(7)
    for _ in range(20):
        pa, pb, pc = rng.integers(0, 2, size=3)
        a = alg.sample_element(rng, parity=int(pa))
        b = alg.sample_element(rng, parity=int(pb))
        c = alg.sample_element(rng, parity=int(pc))
        # graded antisymmetry
        anti = bracket(a, b).coeffs + koszul_sign(pa, pb) * bracket(b, a).coeffs
        assert np.abs(anti).max() < 1e-10
        # Leibniz in the second slot
        lhs = bracket(a, b * c).coeffs
        rhs = (bracket(a, b) * c).coeffs + koszul_sign(pa, pb) * (
            b * bracket(a, c)
        ).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10
        # graded Jacobi
        jac = (
            koszul_sign(pa, pc) * bracket(a, bracket(b, c)).coeffs
            + koszul_sign(pb, pa) * bracket(b, bracket(c, a)).coeffs
            + koszul_sign(pc, pb) * bracket(c, bracket(a, b)).coeffs
        )
        assert np.abs(jac).max() < 1e-10


def test_verdict_matrix():
    g1 = grassmann_classical_factor(2)
    g2 = grassmann_classical_factor(2)
    q_half = quantum_factor(M2, 0.5)
    q3_half = quantum_factor(M3, 0.5)
    q_other = quantum_factor(M2, 0.7)

    r = product_symplectic(g1, g2)
    assert r.verdict == "ExistsCommutative" and r.lam == 0

    r = product_symplectic(g1, q_half)
    assert r.verdict == "NoneExistsMixed" and r.lam is None
    assert product_symplectic(q_half, g1).verdict == "NoneExistsMixed"

    r = product_symplectic(q_half, q3_half)
    assert r.verdict == "ExistsQuantum"
    assert abs(r.lam - 0.5j) < 1e-12

    r = product_symplectic(q_half, q_other)
    assert r.verdict == "MismatchedParameters"
    assert abs(r.evidence["lambdaGap"] - 0.2) < 1e-12


def test_mixed_product_construction_rejected():
    with pytest.raises(CouplingError):
        ProductStructure(GCL2, QM2)


def test_product_poisson_equals_kron_commutator():
    prod = ProductStructure(QM2, QM2)
    alg = prod.algebra
    rng = np.random.default_rng(20250825)
    hbar = 1.0
    for _ in range(100):
        e = alg.sample_element(rng)
        f = alg.sample_element(rng)
        lhs = prod.poisson(e, f).coeffs
        rhs = (1j / hbar) * (e * f - f * e).coeffs  # M2 (x) M2 is even
        assert np.abs(lhs - rhs).max() < 1e-12


def test_three_term_operator_route():
    prod = ProductStructure(QM2, QM2)
    alg = prod.algebra
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = M2.sample_element(rng)
        b = M2.sample_element(rng)
        yop = prod.hamiltonian_operator(a, b)
        h = kron_element(alg, a, b)
        e = alg.sample_element(rng)
        lhs = yop @ e.coeffs
        rhs = prod.poisson(h, e).coeffs
        assert np.abs(lhs - rhs).max() < 1e-12


def test_operator_is_derivation_and_perturbed_lambda_fails():
    prod = ProductStructure(QM2, QM2)
    yop = prod.hamiltonian_operator(SX, SY)
    assert superderivation_residuals(prod.algebra, [yop], 0)[0] < 1e-10
    ya = QM2.structure.poisson_operator(SX)
    yb = QM2.structure.poisson_operator(SY)
    la = M2.left_mult_matrix(SX.coeffs)
    lb = M2.left_mult_matrix(SY.coeffs)
    bad = np.kron(ya, lb) + np.kron(la, yb) + (prod.lam + 0.1) * np.kron(ya, yb)
    assert superderivation_residuals(prod.algebra, [bad], 0)[0] > 1e-3


def test_product_form_is_symplectic():
    prod = ProductStructure(QM2, quantum_factor(M2, 1.0))
    _, omega = product_form(prod)
    # wrap: this enforces closedness, reality and family nondegeneracy
    ss = SymplecticStructure(omega, {"kind": "quantum", "hbar": 1.0, "reality": "real"})
    assert ss.closed_residual < 1e-10
    # mixed blocks vanish: factor-1 and factor-2 directions never pair
    m1 = len(QM2.structure.family)
    assert np.abs(omega.tensor[:m1, m1:]).max() == 0.0


def test_commutative_product_bracket_axioms():
    prod = ProductStructure(GCL2, grassmann_classical_factor(2))
    alg = prod.algebra
    assert exterior_derivative(product_form(prod)[1]).norm() < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(20):
        pa, pb, pc = rng.integers(0, 2, size=3)
        a = alg.sample_element(rng, parity=int(pa))
        b = alg.sample_element(rng, parity=int(pb))
        c = alg.sample_element(rng, parity=int(pc))
        anti = prod.poisson(a, b).coeffs + koszul_sign(pa, pb) * prod.poisson(b, a).coeffs
        assert np.abs(anti).max() < 1e-10
        lhs = prod.poisson(a, b * c).coeffs
        rhs = (prod.poisson(a, b) * c).coeffs + koszul_sign(pa, pb) * (
            b * prod.poisson(a, c)
        ).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10
        jac = (
            koszul_sign(pa, pc) * prod.poisson(a, prod.poisson(b, c)).coeffs
            + koszul_sign(pb, pa) * prod.poisson(b, prod.poisson(c, a)).coeffs
            + koszul_sign(pc, pb) * prod.poisson(c, prod.poisson(a, b)).coeffs
        )
        assert np.abs(jac).max() < 1e-10


def test_coupled_oscillation_closed_form():
    hbar, g = 0.7, 0.3
    q = quantum_factor(M2, hbar)
    prod = ProductStructure(q, quantum_factor(M2, hbar))
    alg = prod.algebra
    h = g * kron_element(alg, SZ, SZ)
    e0 = kron_element(alg, SX, M2.unit)
    times = np.linspace(0.0, 5.0, 7)
    traj = coupled_evolution(prod, h, e0, times)
    sxi = kron_element(alg, SX, M2.unit).coeffs
    syz = kron_element(alg, SY, SZ).coeffs
    for row, t in zip(traj, times):
        w = 2.0 * g / hbar
        expected = np.cos(w * t) * sxi - np.sin(w * t) * syz
        assert np.abs(row - expected).max() < 1e-9
    lmat = prod.poisson_operator(h)
    rk = rk4_trajectory(lmat, e0.coeffs, times, 400 / 5.0)
    assert np.abs(rk - traj).max() < 1e-6


def test_coupled_oscillation_matches_matrix_conjugation():
    hbar, g = 0.7, 0.3
    prod = ProductStructure(quantum_factor(M2, hbar), quantum_factor(M2, hbar))
    alg = prod.algebra
    h = g * kron_element(alg, SZ, SZ)
    e0 = kron_element(alg, SX, M2.unit)
    hmat = alg.realize(h.coeffs)
    for t in (0.4, 1.3):
        row = coupled_evolution(prod, h, e0, [t])[0]
        u = expm(-1j * t * hmat / hbar)
        oracle = u.conj().T @ alg.realize(e0.coeffs) @ u
        assert np.abs(alg.realize(row) - oracle).max() < 1e-9


def test_functional_evolution_duality():
    hbar, g = 0.7, 0.3
    prod = ProductStructure(quantum_factor(M2, hbar), quantum_factor(M2, hbar))
    alg = prod.algebra
    h = g * kron_element(alg, SZ, SZ)
    rng = np.random.default_rng(3)
    e = alg.sample_element(rng)
    # a product state built from a density matrix on the 4x4 realization
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    phi = np.array([np.trace(rho @ alg.rep_basis[k]) for k in range(alg.dim)])
    t = 0.9
    lhs = HamiltonianSystem(prod, h).evolve_functional(phi, t) @ e.coeffs
    rhs = phi @ coupled_evolution(prod, h, e, [t])[0]
    assert abs(lhs - rhs) < 1e-10
    # Schroedinger picture oracle on the density matrix
    hmat = alg.realize(h.coeffs)
    u = expm(-1j * t * hmat / hbar)
    rho_t = u @ rho @ u.conj().T
    oracle = np.trace(rho_t @ alg.realize(e.coeffs))
    assert abs(lhs - oracle) < 1e-9


def _graded_product_hamiltonian(kind):
    prod = ProductStructure(quantum_factor(M11, 1.0), QM2)
    alg = prod.algebra
    odd = M11.basis_element(1) + M11.basis_element(1).star()
    h = {
        "even": kron_element(alg, M11.unit, SZ),
        "odd": kron_element(alg, odd, M2.unit),
        "nonHermitian": kron_element(alg, M11.unit, M2.element([0, 1j, 1, 0])),
        # |H* - H| = 6e-10, above the 1e-10 gate
        "nearlyHermitian": kron_element(alg, M11.unit, SZ + 3e-10j * M2.unit),
    }[kind]
    return prod, h, kron_element(alg, M11.basis_element(0), M2.unit)


@pytest.mark.parametrize("kind", ["odd", "nonHermitian", "nearlyHermitian"])
def test_coupled_flow_needs_an_even_hermitian_hamiltonian(kind):
    prod, h, e = _graded_product_hamiltonian(kind)
    with pytest.raises(SymplecticError):
        HamiltonianSystem(prod, h)
    with pytest.raises(SymplecticError):
        coupled_evolution(prod, h, e, [0.5])


def test_coupled_evolution_on_an_empty_time_grid():
    prod, h, e = _graded_product_hamiltonian("even")
    assert coupled_evolution(prod, h, e, []).shape == (0, prod.algebra.dim)
