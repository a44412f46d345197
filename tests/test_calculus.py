"""Derivations, cochain calculus, flows: sign conventions pinned by hand."""
from __future__ import annotations

import tracemalloc
from functools import partial
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import numpy as np
import pytest

from ncsym import _linalg, calculus, leibniz
from ncsym._linalg import RANK_RTOL, greedy_independent, left_action, max_abs
from ncsym.algebra import (
    Coo,
    Superalgebra,
    grassmann_algebra,
    matrix_algebra,
    tensor_algebra,
)
from ncsym.calculus import (
    AlgebraIsomorphism,
    CalculusError,
    Cochain,
    Derivation,
    DerivationFamily,
    exterior_derivative,
    graded_permutation_sign,
    inner_derivation,
    interior,
    lie_derivative,
    parity_sector,
    pullback,
    random_cochain,
    superderivation_dims,
    superderivation_residuals,
    wedge,
)
from ncsym.leibniz import leibniz_system
from ncsym.symplectic import SymplecticError, SymplecticStructure, quantum_form

TOL = 1e-10

M2 = matrix_algebra(2)
M11 = matrix_algebra(2, grading=(1, 1))
FAM2 = DerivationFamily.inner_family(M2)
FAM11 = DerivationFamily.inner_family(M11)

SX = M2.element([0, 1, 1, 0])
SY = M2.element([0, -1j, 1j, 0])
SZ = M2.element([1, 0, 0, -1])


def koszul_sign(parity_a, parity_b):
    """The sign (-1)**(parity_a * parity_b)."""
    return -1 if parity_a & parity_b & 1 else 1


def supercommutator(a, b):
    """[A, B] = AB - (-1)**(e_A e_B) BA for homogeneous A and B, from the
    products."""
    return a * b - koszul_sign(a.parity, b.parity) * (b * a)


def lie_bracket(x, y):
    """The graded commutator [X, Y] = X Y - (-1)**(e_X e_Y) Y X of two
    derivations, from their dense matrices."""
    mat = x.matrix @ y.matrix - koszul_sign(x.parity, y.parity) * (y.matrix @ x.matrix)
    return Derivation(x.algebra, mat, x.parity + y.parity)


def commutator_form(alg, fam):
    """omega(D_A, D_B) = [A, B] on the inner family (sources are stored)."""
    m = len(fam)
    t = np.zeros((m, m, alg.dim), dtype=complex)
    for i, j in product(range(m), repeat=2):
        x, y = fam.members[i], fam.members[j]
        t[i, j] = supercommutator(x.source, y.source).coeffs
    return Cochain(fam, 2, 0, t)


def leibniz_defect(alg, xs, parity, j):
    """Block j of the graded Leibniz defect, X L_j - (-1)**(r e_j) L_j X -
    L(X e_j) with L_j left multiplication by e_j, for each X in the stack
    ``xs`` (q, dim, dim) of operators of parity r: the dense reference for
    the sparse Leibniz system."""
    lj = alg.structure[j].T
    sign = koszul_sign(parity, int(alg.parity[j]))
    return (xs @ lj - sign * (lj @ xs)) - left_action(alg.structure, xs[:, :, j])


def differential(fam, a):
    """dA as a 1-cochain, (dA)(X) = (-1)**(e_X e_A) X(A)."""
    return exterior_derivative(Cochain(fam, 0, a.parity, a.coeffs))


def derivation_star(x):
    """The conjugate derivation A -> [X(A*)]*."""
    m = x.algebra.involution_matrix
    return Derivation(x.algebra, m @ np.conj(x.matrix) @ np.conj(m), x.parity)


def pushforward(iso, x):
    """(phi_* X)(B) = phi(X(phi^{-1}(B)))."""
    return Derivation(iso.target, iso.matrix @ x.matrix @ iso.inverse_matrix, x.parity)


def test_inner_derivation_oracle():
    d = inner_derivation(M2, SZ)
    # [sigma_z, sigma_x] = 2i sigma_y
    np.testing.assert_allclose(d.matrix @ SX.coeffs, 2j * SY.coeffs, atol=TOL)
    assert superderivation_residuals(M2, [d.matrix], 0)[0] < TOL


def test_transpose_map_is_not_a_derivation():
    # coefficient action of matrix transpose on M2: swap E12 <-> E21
    t = np.zeros((4, 4))
    t[0, 0] = t[3, 3] = 1.0
    t[1, 2] = t[2, 1] = 1.0
    assert superderivation_residuals(M2, [t], 0)[0] > 0.5


def test_superderivation_dimensions():
    assert superderivation_dims(M2) == {"even": 3, "odd": 0}
    dims = superderivation_dims(M11)
    assert dims["even"] == 1 and dims["odd"] == 2
    # Grassmann(2): even span {theta_a d_b}, odd span {d_a, top*d_a}
    g2 = grassmann_algebra(2)
    dims = superderivation_dims(g2)
    assert dims["even"] == 4 and dims["odd"] == 4
    # closed forms: Der(M_n) = inner has dimension n**2 - 1; on M(p|q) the
    # even part is p**2 + q**2 - 1 and the odd part 2pq; on G_k both parts
    # are k 2**(k-1)
    for n in (3, 4, 5):
        assert superderivation_dims(matrix_algebra(n)) == {"even": n * n - 1, "odd": 0}
    for p, q in ((2, 1), (2, 2)):
        dims = superderivation_dims(matrix_algebra(p + q, grading=(p, q)))
        assert dims == {"even": p * p + q * q - 1, "odd": 2 * p * q}
    for n in (7, 8):
        assert superderivation_dims(matrix_algebra(n)) == {"even": n * n - 1, "odd": 0}
    for k in (3, 4, 5, 6):
        half = k * 2 ** (k - 1)
        assert superderivation_dims(grassmann_algebra(k)) == {"even": half, "odd": half}
    m2m3 = tensor_algebra(matrix_algebra(2), matrix_algebra(3))
    assert superderivation_dims(m2m3) == {"even": 35, "odd": 0}


def test_superderivations_of_m6_are_inner():
    # Der(M_n) = inner (Dubois-Violette, Kerner & Madore 1990), solved for
    # rather than assumed at dim 36
    assert superderivation_dims(matrix_algebra(6)) == {"even": 35, "odd": 0}


def dense_basis(alg, seed):
    """``alg`` in a random basis e'_i = sum_a P[a, i] e_a: the same algebra,
    with every structure constant nonzero."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((alg.dim,) * 2) + 1j * rng.standard_normal((alg.dim,) * 2)
    pinv = np.linalg.inv(p)
    c = np.einsum("ai,bj,abk,lk->ijl", p, p, alg.structure, pinv)
    star = pinv @ alg.involution_matrix @ np.conj(p)
    return Superalgebra(Coo.of_dense(c), alg.parity, pinv @ alg.unit_coeffs, star)


DENSE_M3 = dense_basis(matrix_algebra(3), 0)
SOLVE_ALGEBRAS = {
    "M3": matrix_algebra(3),
    "M2-1": matrix_algebra(3, grading=(2, 1)),
    "G3": grassmann_algebra(3),
    "denseM3": DENSE_M3,
}


@pytest.mark.parametrize("alg", list(SOLVE_ALGEBRAS.values()), ids=list(SOLVE_ALGEBRAS))
def test_sparse_leibniz_system_equals_the_dense_defect_stack(alg):
    # every unit candidate E_ab is a column, off the parity sector too
    n = alg.dim
    xs = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    for r in (0, 1):
        dense = np.concatenate([
            leibniz_defect(alg, xs, r, j).reshape(n * n, n * n).T for j in range(n)
        ])
        i, j, v = (np.concatenate(x) for x in zip(*leibniz_system(alg, r)))
        assert np.all(v != 0) and np.all(np.diff(i * n * n + j) > 0)
        sparse = np.zeros((n**3, n * n), dtype=complex)
        sparse[i, j] = v
        assert np.array_equal(sparse, dense)


def dense_superderivation_residuals(alg, xs, parity):
    """The dense reference for superderivation_residuals: the worst entry of
    every block of leibniz_defect, and the grading defect, per operator."""
    xs = np.asarray(xs, dtype=complex)
    worst = np.max(
        [np.abs(leibniz_defect(alg, xs, parity, j)).max(axis=(1, 2)) for j in range(alg.dim)],
        axis=0,
    )
    bad = alg.parity[:, None] != (alg.parity[None, :] + parity) % 2
    return np.maximum(worst, np.abs(np.where(bad, xs, 0.0)).max(axis=(1, 2)))


@pytest.mark.parametrize("alg", list(SOLVE_ALGEBRAS.values()), ids=list(SOLVE_ALGEBRAS))
def test_sparse_leibniz_residuals_match_the_dense_reference(alg, monkeypatch):
    # each defect entry sums 3 dim products of a structure constant and an
    # operator entry, so the two orders of summation agree within
    # dim eps times 3 dim |c| |X|
    n = alg.dim
    rng = np.random.default_rng(70)
    cmax = np.abs(alg.constants.v).max()
    for r in (0, 1):
        sector = alg.parity[:, None] == (alg.parity[None, :] + r) % 2
        noise = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        stacks = [
            np.array([inner_derivation(alg, alg.basis_element(i)).matrix for i in range(n)
                      if alg.parity[i] == r]).reshape(-1, n, n),
            noise,
            np.where(sector, 0.0, noise),  # off the sector only
            np.where(sector, noise, 0.0) + 1e-3 * np.where(sector, 0.0, noise),
        ]
        for xs in stacks:
            got = superderivation_residuals(alg, xs, r)
            want = dense_superderivation_residuals(alg, xs, r)
            scale = 3 * n * cmax * max_abs(xs)
            assert got.shape == (len(xs),)
            assert np.all(np.abs(got - want) <= n * np.finfo(float).eps * scale)
            # row blocks of a few dozen entries, assembled one block j at a
            # time: the same sums in the same order
            monkeypatch.setattr(_linalg, "GATHER_ENTRIES", 256)
            monkeypatch.setattr(leibniz, "_ASSEMBLY_ENTRIES", 1)
            assert np.array_equal(superderivation_residuals(alg, xs, r), got)
            monkeypatch.undo()


def test_a_member_with_one_off_sector_entry_of_1e6_is_rejected():
    alg = matrix_algebra(3, grading=(2, 1))
    fam = DerivationFamily.inner_family(alg)
    x = fam.members[0]
    off = np.argwhere(alg.parity[:, None] != (alg.parity[None, :] + x.parity) % 2)
    bad = x.matrix.copy()
    bad[tuple(off[0])] += 1e-6
    assert superderivation_residuals(alg, [bad], x.parity)[0] >= 1e-6
    members = [Derivation(alg, bad, x.parity)] + fam.members[1:]
    with pytest.raises(CalculusError, match="derivation condition"):
        DerivationFamily(alg, members)


def test_dense_basis_superderivations_are_inner():
    assert np.count_nonzero(DENSE_M3.structure) == 9**3
    assert superderivation_dims(DENSE_M3) == {"even": 8, "odd": 0}


@pytest.mark.parametrize("alg", list(SOLVE_ALGEBRAS.values()), ids=list(SOLVE_ALGEBRAS))
def test_chunked_reduction_keeps_the_dimensions(alg, monkeypatch):
    # a tiny block budget folds every component's rows into a triangular
    # factor, chunk by chunk, before its SVD; the system is assembled one
    # block j at a time
    want = superderivation_dims(alg)
    monkeypatch.setattr(leibniz, "_BLOCK_ENTRIES", 8)
    monkeypatch.setattr(leibniz, "_ASSEMBLY_ENTRIES", 1)
    assert superderivation_dims(alg) == want


def test_superderivation_solve_memory_is_bounded():
    # assembled sparsely and solved component by component, no block
    # larger than _BLOCK_ENTRIES
    for alg, bound_mb in ((matrix_algebra(5), 8), (grassmann_algebra(6), 32), (DENSE_M3, 8)):
        _, peak = _traced_peak(lambda: superderivation_dims(alg))
        assert peak <= bound_mb * 2**20


def test_family_bracket_memory_is_bounded():
    # one member's commutators at a time, never the (m, m, dim, dim) products
    fam = DerivationFamily.inner_family(matrix_algebra(5))
    f, peak = _traced_peak(lambda: fam.bracket)
    assert f.shape == (24, 24, 24)
    assert peak <= 5 * 2**20


def test_is_special():
    def evidence(alg):
        return calculus._special_evidence(alg)[0]

    assert evidence(M2)["special"]
    assert evidence(matrix_algebra(3))["special"]
    info = evidence(M11)
    assert info["special"] and info["inner_dim"] == 3
    assert not evidence(grassmann_algebra(2))["special"]


def test_inner_family_sizes_and_parities():
    assert len(FAM2) == 3
    assert list(FAM2.parities) == [0, 0, 0]
    assert len(FAM11) == 3
    assert sorted(FAM11.parities) == [0, 1, 1]


def svd_greedy_independent(vectors, zero_tol):
    """Reference scan: keep a vector when the smallest singular value of the
    kept ones stacked with it exceeds RANK_RTOL times the largest."""
    kept = []
    for idx, v in enumerate(vectors):
        if max_abs(v) < zero_tol:
            continue
        s = np.linalg.svd(np.array([vectors[k] for k in kept] + [v]), compute_uv=False)
        if s[-1] > RANK_RTOL * s[0]:
            kept.append(idx)
    return kept


LADDER = {
    **{f"M{n}": (n, None) for n in range(2, 8)},
    "M1-1": (2, (1, 1)),
    "M2-1": (3, (2, 1)),
}


@pytest.mark.parametrize("label", list(LADDER) + ["G3", "G4", "G5"])
def test_greedy_independent_keeps_the_members_the_svd_scan_keeps(label):
    # inner derivations of the basis, then (where cheap) left and right
    # multiplications, which are dependent on them and on each other in part;
    # a Grassmann algebra has no nonzero inner derivation
    alg = grassmann_algebra(int(label[1])) if label[0] == "G" else matrix_algebra(*LADDER[label])
    basis = [alg.basis_element(i) for i in range(alg.dim)]
    vectors = [inner_derivation(alg, e).matrix.reshape(-1) for e in basis]
    if alg.dim <= 32:
        vectors += [alg.left_mult_matrix(e.coeffs).reshape(-1) for e in basis]
        vectors += [alg.right_mult_matrix(e.coeffs).reshape(-1) for e in basis]
    kept = greedy_independent(vectors, 1e-14)
    assert kept == svd_greedy_independent(vectors, 1e-14)
    assert kept


def test_inner_family_rejects_an_inner_derivation_moved_by_1e6(monkeypatch):
    alg = matrix_algebra(3)
    assert len(DerivationFamily.inner_family(alg)) == 8
    build = calculus.inner_derivation

    def moved(alg_, a):
        x = build(alg_, a)
        if a.coeffs[1] == 1:
            matrix = x.matrix.copy()
            matrix[2, 5] += 1e-6
            x = Derivation(alg_, matrix, x.parity, x.source)
        return x

    monkeypatch.setattr(calculus, "inner_derivation", moved)
    with pytest.raises(CalculusError, match=r"fails the derivation condition \(1\.0"):
        DerivationFamily.inner_family(alg)


def test_family_expand_and_bracket_closure():
    d = inner_derivation(M2, SX)
    rebuilt = FAM2.combination(FAM2._expand_all_strict(d.matrix[None])[0], 0)
    np.testing.assert_allclose(rebuilt.matrix, d.matrix, atol=TOL)
    f = FAM2.bracket  # raises if not closed
    assert f.shape == (3, 3, 3)


def test_family_bracket_and_star_match_pairwise_loop():
    for alg in (matrix_algebra(3), matrix_algebra(3, grading=(2, 1))):
        fam = DerivationFamily.inner_family(alg)
        frame = np.array([x.matrix.reshape(-1) for x in fam.members]).T

        def coeffs(x):
            return np.linalg.lstsq(frame, x.matrix.reshape(-1), rcond=None)[0]

        f = np.array([[coeffs(lie_bracket(x, y)) for y in fam.members] for x in fam.members])
        s = np.array([coeffs(derivation_star(x)) for x in fam.members]).T
        np.testing.assert_allclose(fam.bracket, f, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fam.star_matrix, s, rtol=0, atol=1e-12)


def test_wrong_parity_sector_entry_is_rejected():
    # an even 1-cochain sends the even member to the even sector only
    even = int(np.flatnonzero(FAM11.parities == 0)[0])
    odd_basis = int(np.flatnonzero(M11.parity == 1)[0])
    t = np.zeros((len(FAM11), M11.dim), dtype=complex)
    t[even, odd_basis] = 1.0
    with pytest.raises(CalculusError, match="parity bookkeeping"):
        Cochain(FAM11, 1, 0, t)
    t[even, odd_basis] = 0.0
    Cochain(FAM11, 1, 0, t)


def test_derivation_star_of_inner():
    # (D_A)* = -D_(A*)
    rng = np.random.default_rng(11)
    for alg in (M2, M11):
        for par in (0, 1):
            a = alg.sample_element(rng, parity=par)
            if max_abs(a.coeffs) < 1e-12:
                continue
            lhs = derivation_star(inner_derivation(alg, a))
            rhs = -inner_derivation(alg, a.star()).matrix
            np.testing.assert_allclose(lhs.matrix, rhs, atol=1e-10)


def test_wedge_sign_tables_are_built_once_per_degrees_and_parity(monkeypatch):
    calls = []
    sign = calculus.graded_permutation_sign
    monkeypatch.setattr(
        calculus, "graded_permutation_sign", lambda *a: calls.append(a) or sign(*a)
    )
    calculus._wedge_sign_tables.cache_clear()
    rng = np.random.default_rng(5)
    for _ in range(3):
        wedge(random_cochain(FAM11, 1, 0, rng), random_cochain(FAM11, 1, 1, rng))
    # 2 shuffles times 2**2 parity patterns, for the first wedge only
    assert len(calls) == 8


def test_graded_permutation_sign():
    assert graded_permutation_sign((0, 1), [0, 0]) == 1
    assert graded_permutation_sign((1, 0), [0, 0]) == -1
    assert graded_permutation_sign((1, 0), [1, 1]) == 1  # odd-odd swap symmetric
    assert graded_permutation_sign((1, 0), [0, 1]) == -1
    # 3-cycle of evens: two swaps
    assert graded_permutation_sign((1, 2, 0), [0, 0, 0]) == 1
    # reversal of three odds: three swaps, each +1
    assert graded_permutation_sign((2, 1, 0), [1, 1, 1]) == 1


def test_commutator_form_is_alternating_and_imaginary():
    omega = commutator_form(M2, FAM2)
    assert omega.symmetry_residual() < TOL
    # omega* = -omega: [A, B]* = -[B*, A*] = -[A, B] for the commutator form
    res = omega.reality_residuals()
    assert res["imaginary"] < TOL
    assert res["real"] > 0.1


def test_zero_form_rule_signs():
    # (dA)(X) = (-1)**(e_X e_A) X(A): odd/odd pair flips the sign on M11
    e12 = M11.basis_element(1)
    x = inner_derivation(M11, M11.basis_element(2))  # odd derivation D_E21
    da = differential(FAM11, e12)
    coeffs = FAM11._expand_all_strict(x.matrix[None])[0]  # X over the family
    lhs = np.tensordot(coeffs, da.tensor, axes=1)  # (dA)(X)
    rhs = -(x.matrix @ e12.coeffs)
    np.testing.assert_allclose(lhs, rhs, atol=TOL)
    # even element: no sign
    h = M11.basis_element(0)
    dh = differential(FAM11, h)
    np.testing.assert_allclose(np.tensordot(coeffs, dh.tensor, axes=1), x.matrix @ h.coeffs, atol=TOL)


def _homogeneous_members(fam):
    return list(fam.members)


def test_d_squared_zero():
    rng = np.random.default_rng(21)
    for fam in (FAM2, FAM11):
        for par in (0, 1):
            alpha = random_cochain(fam, 1, par, rng)
            np.testing.assert_array_less(
                exterior_derivative(exterior_derivative(alpha)).norm(), TOL
            )
            a0 = random_cochain(fam, 0, par, rng)
            np.testing.assert_array_less(
                exterior_derivative(exterior_derivative(a0)).norm(), TOL
            )


def test_cartan_formula():
    rng = np.random.default_rng(22)
    for fam in (FAM2, FAM11):
        for deg in (1, 2):
            for spar in (0, 1):
                omega = random_cochain(fam, deg, spar, rng)
                for x in _homogeneous_members(fam):
                    lhs = interior(x, exterior_derivative(omega)) + exterior_derivative(
                        interior(x, omega)
                    )
                    eta = -1.0 if (x.parity and omega.parity) else 1.0
                    rhs = eta * lie_derivative(x, omega)
                    assert (lhs - rhs).norm() < 1e-9


def test_lie_interior_interplay():
    # (L_Y i_X - i_X L_Y) w = (-1)**(e_Y e_w) i_[Y,X] w
    rng = np.random.default_rng(23)
    for fam in (FAM2, FAM11):
        for spar in (0, 1):
            omega = random_cochain(fam, 2, spar, rng)
            for x in fam.members:
                for y in fam.members:
                    lhs = lie_derivative(y, interior(x, omega)) - interior(
                        x, lie_derivative(y, omega)
                    )
                    eta = -1.0 if (y.parity and omega.parity) else 1.0
                    rhs = eta * interior(lie_bracket(y, x), omega)
                    assert (lhs - rhs).norm() < 1e-9


def test_interior_anticommutation():
    rng = np.random.default_rng(24)
    for fam in (FAM2, FAM11):
        omega = random_cochain(fam, 2, 0, rng)
        for x in fam.members:
            for y in fam.members:
                eta = -1.0 if (x.parity and y.parity) else 1.0
                lhs = interior(x, interior(y, omega)) + eta * interior(
                    y, interior(x, omega)
                )
                assert lhs.norm() < TOL


def test_interior_wedge_rule():
    # i_X(a ^ b) = (-1)**(e_X e_b) (i_X a) ^ b + (-1)**p a ^ (i_X b)
    rng = np.random.default_rng(25)
    for fam in (FAM2, FAM11):
        for pa in (0, 1):
            for pb in (0, 1):
                a = random_cochain(fam, 1, pa, rng)
                b = random_cochain(fam, 1, pb, rng)
                w = wedge(a, b)
                for x in fam.members:
                    etaxb = -1.0 if (x.parity and b.parity) else 1.0
                    lhs = interior(x, w)
                    rhs = etaxb * wedge(interior(x, a), b) - wedge(
                        a, interior(x, b)
                    )
                    assert (lhs - rhs).norm() < 1e-9


def test_lie_derivative_wedge_leibniz():
    rng = np.random.default_rng(26)
    for fam in (FAM2, FAM11):
        for pa in (0, 1):
            a = random_cochain(fam, 1, pa, rng)
            b = random_cochain(fam, 1, 1 - pa, rng)
            for y in fam.members:
                lhs = lie_derivative(y, wedge(a, b))
                eta = -1.0 if (y.parity and a.parity) else 1.0
                rhs = wedge(lie_derivative(y, a), b) + eta * wedge(
                    a, lie_derivative(y, b)
                )
                assert (lhs - rhs).norm() < 1e-9


def test_d_wedge_leibniz():
    rng = np.random.default_rng(27)
    for fam in (FAM2, FAM11):
        for pa in (0, 1):
            a = random_cochain(fam, 1, pa, rng)
            b = random_cochain(fam, 1, 1 - pa, rng)
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b) - wedge(a, exterior_derivative(b))
            assert (lhs - rhs).norm() < 1e-9


def test_lie_commutator_is_lie_of_bracket():
    rng = np.random.default_rng(28)
    for fam in (FAM2, FAM11):
        omega = random_cochain(fam, 2, 0, rng)
        for x in fam.members:
            for y in fam.members:
                sign = -1.0 if (x.parity and y.parity) else 1.0
                lhs = lie_derivative(x, lie_derivative(y, omega)) - sign * (
                    lie_derivative(y, lie_derivative(x, omega))
                )
                rhs = lie_derivative(lie_bracket(x, y), omega)
                assert (lhs - rhs).norm() < 1e-9


def test_d_commutes_with_lie_derivative():
    rng = np.random.default_rng(29)
    for fam in (FAM2, FAM11):
        omega = random_cochain(fam, 1, 0, rng)
        for y in fam.members:
            lhs = exterior_derivative(lie_derivative(y, omega))
            rhs = lie_derivative(y, exterior_derivative(omega))
            assert (lhs - rhs).norm() < 1e-9


def test_flow_is_conjugation():
    # D_iH with hermitian H is self-conjugate, its flow conjugates by exp(itH)
    d = inner_derivation(M2, M2.element(1j * SZ.coeffs))
    t = 0.37
    from scipy.linalg import expm

    flow = AlgebraIsomorphism(M2, M2, expm(t * d.matrix))

    u = expm(1j * t * SZ.realize())
    conj = AlgebraIsomorphism.unitary_conjugation(M2, u)
    np.testing.assert_allclose(flow.matrix, conj.matrix, atol=1e-9)


def test_flow_of_non_selfconjugate_generator_rejected():
    # D_H with hermitian H conjugates by a non-unitary matrix; the star
    # compatibility check refuses it
    from scipy.linalg import expm

    with pytest.raises(CalculusError):
        AlgebraIsomorphism(M2, M2, expm(0.5 * inner_derivation(M2, SZ).matrix))


def test_pushforward_of_inner_derivation():
    # phi_* D_A = D_phi(A)
    rng = np.random.default_rng(30)
    h = M2.sample_element(rng, hermitian=True)
    from scipy.linalg import expm

    u = expm(1j * h.realize())
    phi = AlgebraIsomorphism.unitary_conjugation(M2, u)
    a = M2.sample_element(rng)
    lhs = pushforward(phi, inner_derivation(M2, a))
    rhs = inner_derivation(M2, phi(a))
    np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-9)


def test_pushforward_pullback_composition_laws():
    rng = np.random.default_rng(31)
    from scipy.linalg import expm

    u1 = expm(1j * M2.sample_element(rng, hermitian=True).realize())
    u2 = expm(1j * M2.sample_element(rng, hermitian=True).realize())
    phi = AlgebraIsomorphism.unitary_conjugation(M2, u1)
    psi = AlgebraIsomorphism.unitary_conjugation(M2, u2)
    both = AlgebraIsomorphism(M2, M2, psi.matrix @ phi.matrix)
    x = inner_derivation(M2, M2.sample_element(rng))
    lhs = pushforward(both, x)
    rhs = pushforward(psi, pushforward(phi, x))
    np.testing.assert_allclose(lhs.matrix, rhs.matrix, atol=1e-9)
    omega = random_cochain(FAM2, 2, 0, rng)
    lhs_c = pullback(both, omega)
    rhs_c = pullback(phi, pullback(psi, omega))
    assert (lhs_c - rhs_c).norm() < 1e-8


def test_pullback_preserves_commutator_form():
    # inner automorphisms leave the commutator 2-form invariant
    rng = np.random.default_rng(32)
    from scipy.linalg import expm

    omega = commutator_form(M2, FAM2)
    u = expm(1j * M2.sample_element(rng, hermitian=True).realize())
    phi = AlgebraIsomorphism.unitary_conjugation(M2, u)
    assert (pullback(phi, omega) - omega).norm() < 1e-9


def test_pullback_of_differential_is_differential_of_pullback():
    # phi*(dA) = d(phi^{-1}(A)) for automorphisms
    rng = np.random.default_rng(33)
    from scipy.linalg import expm

    u = expm(1j * M2.sample_element(rng, hermitian=True).realize())
    phi = AlgebraIsomorphism.unitary_conjugation(M2, u)
    a = M2.sample_element(rng, parity=0)
    lhs = pullback(phi, differential(FAM2, a))
    rhs = differential(FAM2, M2.element(phi.inverse_matrix @ a.coeffs))
    assert (lhs - rhs).norm() < 1e-9


# -- reference oracles: the tuple-by-tuple loops the kernels replaced ----------


def loop_exterior_derivative(omega):
    fam = omega.family
    alg = fam.algebra
    m = len(fam)
    p = omega.degree
    fp = fam.parities
    f = fam.bracket if p >= 1 else None
    mats = [x.matrix for x in fam.members]
    t = np.zeros((m,) * (p + 1) + (alg.dim,), dtype=complex)
    for idx in product(range(m), repeat=p + 1):
        pars = [int(fp[i]) for i in idx]
        val = np.zeros(alg.dim, dtype=complex)
        for a in range(p + 1):
            rest = idx[:a] + idx[a + 1:]
            ai = pars[a] * ((omega.parity + sum(pars[:a])) % 2)
            sign = (-1) ** (a + ai)
            val = val + sign * (mats[idx[a]] @ omega.tensor[rest])
        for a in range(p + 1):
            for bpos in range(a + 1, p + 1):
                bij = pars[bpos] * (sum(pars[a + 1: bpos]) % 2)
                sign = (-1) ** (bpos + bij)
                slot = idx[:a] + (slice(None),) + idx[a + 1: bpos] + idx[bpos + 1:]
                val = val + sign * (f[idx[a], idx[bpos]] @ omega.tensor[slot])
        t[idx] = val
    return t


def loop_wedge(alpha, beta):
    fam = alpha.family
    alg = fam.algebra
    p, q = alpha.degree, beta.degree
    m = len(fam)
    fp = fam.parities
    t = np.zeros((m,) * (p + q) + (alg.dim,), dtype=complex)
    norm = factorial(p) * factorial(q)
    for idx in product(range(m), repeat=p + q):
        pars = [int(fp[i]) for i in idx]
        acc = np.zeros(alg.dim, dtype=complex)
        for sigma in permutations(range(p + q)):
            sign = graded_permutation_sign(sigma, pars)
            if beta.parity % 2:
                carry = sum(pars[sigma[j]] for j in range(p)) % 2
                if carry:
                    sign = -sign
            aval = alpha.tensor[tuple(idx[sigma[j]] for j in range(p))]
            bval = beta.tensor[tuple(idx[sigma[j]] for j in range(p, p + q))]
            acc = acc + sign * alg.mul_coeffs(aval, bval)
        t[idx] = acc / norm
    return t


ORACLE_ALGEBRAS = {
    "M3": matrix_algebra(3),
    "M1-1": M11,
    "M2-1": matrix_algebra(3, grading=(2, 1)),
}
ORACLE_FAMILIES = {
    name: DerivationFamily.inner_family(alg) for name, alg in ORACLE_ALGEBRAS.items()
}


def _parities(name):
    return (0, 1) if np.any(ORACLE_ALGEBRAS[name].parity) else (0,)


def _rel_gap(got, want):
    scale = np.max(np.abs(want))
    assert scale > 0.0, "the oracle value is zero, so the comparison checks nothing"
    return np.max(np.abs(got - want)) / scale


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(ORACLE_ALGEBRAS))
def test_exterior_derivative_matches_loop(name, degree):
    fam = ORACLE_FAMILIES[name]
    rng = np.random.default_rng(40 + degree)
    for parity in _parities(name):
        omega = random_cochain(fam, degree, parity, rng)
        got = exterior_derivative(omega)
        assert (got.degree, got.parity) == (degree + 1, parity)
        assert _rel_gap(got.tensor, loop_exterior_derivative(omega)) <= 1e-12


@pytest.mark.parametrize("name", list(ORACLE_ALGEBRAS))
def test_sliced_differential_matches_loop(name, monkeypatch):
    # one value component of d per block, at every sorted argument tuple
    monkeypatch.setattr(calculus, "_CHUNK_ENTRIES", 1)
    fam = ORACLE_FAMILIES[name]
    rng = np.random.default_rng(45)
    for degree in (0, 1, 2, 3):
        rows = len(calculus._argument_tuples(tuple(fam.parities), degree + 1)[0])
        for parity in _parities(name):
            omega = random_cochain(fam, degree, parity, rng)
            blocks = list(calculus.differential_chunks(omega))
            assert [t.shape for t in blocks] == [(rows, 1)] * fam.algebra.dim
            got = exterior_derivative(omega)
            assert _rel_gap(got.tensor, loop_exterior_derivative(omega)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_cochain_is_rejected(bad):
    t = commutator_form(M2, FAM2).tensor.copy()
    t[0, 1, 0], t[1, 0, 0] = bad, -bad
    with pytest.raises(CalculusError, match="finite"):
        Cochain(FAM2, 2, 0, t)


@pytest.mark.parametrize(
    "name, p, q",
    [(name, p, q) for name in ORACLE_ALGEBRAS for p, q in ((0, 1), (1, 1), (1, 2), (2, 1))]
    + [("M1-1", 2, 2)],
)
def test_wedge_matches_loop(name, p, q):
    fam = ORACLE_FAMILIES[name]
    rng = np.random.default_rng(50 + 3 * p + q)
    for pa in _parities(name):
        for pb in _parities(name):
            alpha = random_cochain(fam, p, pa, rng)
            beta = random_cochain(fam, q, pb, rng)
            got = wedge(alpha, beta)
            assert (got.degree, got.parity) == (p + q, (pa + pb) % 2)
            assert _rel_gap(got.tensor, loop_wedge(alpha, beta)) <= 1e-12


@pytest.mark.parametrize("p, q", [(2, 1), (1, 2), (2, 2)])
def test_the_shuffle_wedge_equals_the_sum_over_all_permutations(p, q):
    # wedge sums the (p + q)! / (p! q!) shuffles; loop_wedge sums all (p + q)!
    # permutations and divides by p! q!, which agrees for alternating factors
    rng = np.random.default_rng(70 + 3 * p + q)
    for pa, pb in product((0, 1), repeat=2):
        alpha, beta = random_cochain(FAM11, p, pa, rng), random_cochain(FAM11, q, pb, rng)
        assert _rel_gap(wedge(alpha, beta).tensor, loop_wedge(alpha, beta)) <= 1e-13


@pytest.mark.parametrize("name", ["M3", "M1-1", "M2-1"])
def test_quantum_form_is_scaled_commutator_table(name):
    alg = ORACLE_ALGEBRAS[name]
    hbar = 0.7
    want = (-1j * hbar) * commutator_form(alg, ORACLE_FAMILIES[name]).tensor
    assert np.array_equal(quantum_form(alg, hbar).omega.tensor, want)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_cochain_kernels_memory_is_a_small_multiple_of_the_output():
    # d holds the output, the shared action contraction and one signed copy
    # of it; wedge holds the output, the product tensor and one signed,
    # permuted copy of it.  So each peaks near 3x the output; 4x leaves room
    # for the inputs and the sign tensors, which are 1/(2 dim) of it.
    fam = DerivationFamily.inner_family(matrix_algebra(5))
    rng = np.random.default_rng(60)
    omega = random_cochain(fam, 2, 0, rng)
    alpha = random_cochain(fam, 1, 0, rng)
    beta = random_cochain(fam, 2, 0, rng)
    fam.bracket  # cached before tracing: part of the family, not of d
    for fn in (lambda: exterior_derivative(omega), lambda: wedge(alpha, beta)):
        out, peak = _traced_peak(fn)
        assert out.tensor.shape == (24, 24, 24, 25)
        assert peak <= 4 * out.tensor.nbytes


# -- stacks: one call on a stack is its members' calls, one by one -------------

STACK_FAMILIES = {"M2": FAM2, **ORACLE_FAMILIES}


def _stacked(cochains):
    """The cochains, of one degree and parity, along a new last stack axis;
    the stacked tensor passes the alternation and parity gates."""
    first = cochains[0]
    t = np.stack([c.tensor for c in cochains], axis=-2)
    return Cochain(first.family, first.degree, first.parity, t)


def _stack_kernels(fam, iso):
    """d, the pullback, the involution, and the interior product and Lie
    derivative along an even member and (on a graded algebra) an odd one."""
    kernels = {"d": exterior_derivative, "pullback": partial(pullback, iso), "star": Cochain.star}
    for parity in np.unique(fam.parities):
        x = next(x for x in fam.members if x.parity == parity)
        kernels[f"interior{parity}"] = partial(interior, x)
        kernels[f"lie{parity}"] = partial(lie_derivative, x)
    return kernels


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("name", list(STACK_FAMILIES))
def test_a_stack_equals_its_members_one_by_one(name, degree):
    fam = STACK_FAMILIES[name]
    alg = fam.algebra
    rng = np.random.default_rng(70 + degree)
    gen = alg.sample_element(rng, parity=0, hermitian=True)
    iso = AlgebraIsomorphism.unitary_conjugation(alg, _linalg.expi_hermitian(gen.realize()))
    for parity in (0, 1) if np.any(alg.parity) else (0,):
        lone = [random_cochain(fam, degree, parity, rng) for _ in range(5)]
        stack = _stacked(lone)
        assert stack.stack == (5,)
        assert all(np.array_equal(stack.member(k).tensor, w.tensor) for k, w in enumerate(lone))
        for kernel, run in _stack_kernels(fam, iso).items():
            got = run(stack)
            want = np.stack([run(w).tensor for w in lone], axis=-2)
            assert got.stack == (5,), kernel
            assert got.tensor.shape == want.shape, kernel
            if kernel in ("pullback", "star"):
                # their tensordots may take another BLAS path on a stack
                assert _rel_gap(got.tensor, want) <= 1e-15
            else:
                assert np.array_equal(got.tensor, want), kernel


M21 = DerivationFamily.inner_family(matrix_algebra(3, (2, 1)))


def _member_stack_cases():
    """Every basis stack of matrix2 and graded11, and eight basis cochains
    of each degree and parity (the first four and the last four) of the
    mixed-parity family of M(2|1)."""
    for name, fam in (("M2", FAM2), ("M11", FAM11), ("M21", M21)):
        for degree, parity in product((0, 1, 2), (0, 1)):
            basis = Cochain.basis(fam, degree, parity)
            (size,) = basis.stack
            if name == "M21" and size > 8:
                basis = basis.member(np.r_[:4, size - 4 : size])
            if basis.stack[0]:
                yield f"{name}-{degree}-{parity}", basis


MEMBER_STACK_CASES = dict(_member_stack_cases())


def _lie_reference(fam, ys, t, degree, parity):
    """L_Y w for each derivation Y of ``ys`` by the module docstring's
    formula, one index tuple at a time, with Y as a new first stack axis:
    Y acts on each value w(X_1..X_p) by its dense matrix, and [Y, X_i], a
    dense commutator, is expanded over the family by least squares.  ``t``
    is the tensor of w and ``parity`` its parity, an int or one per stack
    entry (broadcast over the stack)."""
    m, fp = len(fam), fam.parities
    frame = fam.matrices.reshape(m, -1).T
    par = np.asarray(parity)
    out = np.zeros(t.shape[:degree] + (len(ys),) + t.shape[degree:], dtype=complex)
    for a, y in enumerate(ys):
        comm = np.array([lie_bracket(y, x).matrix.reshape(-1) for x in fam.members])
        # brackets[i, c]: the coefficient of X_c in [Y, X_i]
        brackets = np.linalg.lstsq(frame, comm.T, rcond=None)[0].T
        for idx in np.ndindex(*(m,) * degree):
            value = t[idx] @ y.matrix.T
            before = 0  # the parities of the arguments before slot j
            for j, i in enumerate(idx):
                rest = (slice(None),) + idx[:j] + idx[j + 1 :]
                swapped = np.tensordot(brackets[i], np.moveaxis(t, j, 0)[rest], axes=1)
                sign = (-1.0) ** (y.parity * (par + before))
                value = value - sign[..., None] * swapped
                before += fp[i]
            out[idx + (a,)] = value
    return out


@pytest.mark.parametrize("name", list(MEMBER_STACK_CASES))
def test_lie_along_a_member_stack_equals_each_member_bit_for_bit(name):
    # L_Xa w for every member a in one call, and L_Xa L_Xb w for every a, b
    # in a second call on that output (entry b of parity e_w + e_b),
    # against the module docstring's formula; along the family, each
    # basis cochain alone gives its entry of the stack's call bit for bit
    basis = MEMBER_STACK_CASES[name]
    fam, p = basis.family, basis.degree
    lw = lie_derivative(fam, basis)
    assert _rel_gap(lw, _lie_reference(fam, fam.members, basis.tensor, p, basis.parity)) <= 1e-12
    parity = (basis.parity + fam.parities)[:, None]
    llw = lie_derivative(fam, Cochain(fam, p, basis.parity, lw, check=False), parity=parity)
    assert _rel_gap(llw, _lie_reference(fam, fam.members, lw, p, parity)) <= 1e-12
    for k in range(basis.stack[0]):
        assert np.array_equal(lie_derivative(fam, basis.member(k)), lw[..., k, :]), k


@pytest.mark.parametrize("name", ["M2", "M11", "M21"])
def test_lie_and_interior_along_one_derivation_are_the_formula(name):
    # Y a random combination of the members of one parity: L_Y by the
    # module docstring's formula, and i_Y w = w(Y, ..) from Y's least
    # squares coefficients over the family
    fam = {"M2": FAM2, "M11": FAM11, "M21": M21}[name]
    rng = np.random.default_rng(90)
    frame = fam.matrices.reshape(len(fam), -1).T
    for parity in np.unique(fam.parities):
        on = fam.parities == parity
        c = np.where(on, rng.standard_normal(len(fam)), 0.0)
        y = Derivation(fam.algebra, np.tensordot(c, fam.matrices, axes=1), parity)
        coeffs = np.linalg.lstsq(frame, y.matrix.reshape(-1), rcond=None)[0]
        # an odd cochain with an even Y where the algebra has an odd part
        wp = (1 - parity) if fam.algebra.parity.any() else 0
        for degree in (0, 1, 2):
            w = random_cochain(fam, degree, wp, rng)
            lie = lie_derivative(y, w)
            assert (lie.degree, lie.parity) == (degree, (wp + parity) % 2)
            want = _lie_reference(fam, [y], w.tensor, degree, w.parity)[(slice(None),) * degree + (0,)]
            assert _rel_gap(lie.tensor, want) <= 1e-12
            inner = interior(y, w)
            assert (inner.degree, inner.parity) == (max(degree - 1, 0), (wp + parity) % 2)
            if degree:
                want = np.tensordot(coeffs, w.tensor, axes=1)
                assert _rel_gap(inner.tensor, want) <= 1e-12
            else:
                assert not inner.tensor.any()
        if fam.algebra.parity.any():
            # an even and an odd 1-cochain as one stack, with a parity per entry
            pair = [random_cochain(fam, 1, t, rng) for t in (0, 1)]
            both = Cochain(fam, 1, 0, np.stack([v.tensor for v in pair], axis=-2), check=False)
            got = lie_derivative(y, both, parity=np.array([0, 1]))
            for k, v in enumerate(pair):
                assert _rel_gap(got.tensor[..., k, :], lie_derivative(y, v).tensor) <= 1e-14


def test_lie_and_interior_along_a_stack_reject_another_algebra():
    # a derivation of M(1|1), or its whole family, on a cochain of M2
    w = commutator_form(M2, FAM2)
    for kernel in (lie_derivative, interior):
        with pytest.raises(CalculusError, match="different algebras"):
            kernel(FAM11.members[0], w)
        with pytest.raises(CalculusError, match="along the family of the cochain"):
            kernel(FAM11, w)


def test_lie_and_interior_reject_another_family_and_a_derivation_outside_the_span():
    # a second inner family of the same algebra is another frame; one
    # member of the family is a closed family whose span misses the others
    w = commutator_form(M2, FAM2)
    one = DerivationFamily(M2, FAM2.members[:1])
    v = Cochain.basis(one, 1, 0)
    for kernel in (lie_derivative, interior):
        with pytest.raises(CalculusError, match="along the family of the cochain"):
            kernel(DerivationFamily.inner_family(M2), w)
        with pytest.raises(CalculusError, match="along the family of the cochain"):
            kernel(FAM2, v)
        with pytest.raises(CalculusError, match="outside the family"):
            kernel(FAM2.members[1], v)


def test_a_stack_with_a_bad_shape_is_rejected():
    t = commutator_form(M2, FAM2).tensor
    with pytest.raises(CalculusError, match="wrong shape"):
        Cochain(FAM2, 2, 0, np.stack([t, t], axis=-1))
    with pytest.raises(CalculusError, match="no stack members"):
        Cochain(FAM2, 2, 0, t).member(0)


def test_symplectic_forms_reject_a_stack():
    form = quantum_form(M2, 1.0).omega
    with pytest.raises(SymplecticError, match="not a stack"):
        SymplecticStructure(_stacked([form, form]))


@pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("name", list(STACK_FAMILIES))
def test_a_wedge_of_stacks_equals_its_members_one_by_one(name, p, q):
    # every member of the left stack with every member of the right one;
    # a lone factor adds no stack axis
    fam = STACK_FAMILIES[name]
    rng = np.random.default_rng(80 + 3 * p + q)
    parities = (0, 1) if np.any(fam.algebra.parity) else (0,)
    for pa, pb in product(parities, repeat=2):
        alphas = [random_cochain(fam, p, pa, rng) for _ in range(3)]
        betas = [random_cochain(fam, q, pb, rng) for _ in range(4)]
        lone = [[wedge(alpha, beta).tensor for beta in betas] for alpha in alphas]
        got = wedge(_stacked(alphas), _stacked(betas))
        assert got.stack == (3, 4)
        assert (got.degree, got.parity) == (p + q, (pa + pb) % 2)
        for i, j in product(range(3), range(4)):
            assert _rel_gap(got.tensor[..., i, j, :], lone[i][j]) <= 1e-15
        left, right = wedge(alphas[1], _stacked(betas)), wedge(_stacked(alphas), betas[2])
        assert (left.stack, right.stack) == ((4,), (3,))
        for j in range(4):
            assert _rel_gap(left.member(j).tensor, lone[1][j]) <= 1e-15
        for i in range(3):
            assert _rel_gap(right.member(i).tensor, lone[i][2]) <= 1e-15


def test_a_wedge_of_cochains_on_two_families_is_rejected():
    rng = np.random.default_rng(75)
    other = DerivationFamily.inner_family(matrix_algebra(2))
    alpha, beta = random_cochain(FAM2, 1, 0, rng), random_cochain(other, 1, 0, rng)
    for a, b in ((alpha, beta), (beta, alpha)):
        with pytest.raises(CalculusError, match="common derivation family"):
            wedge(a, b)


def _graded_alternating_dimension(fam, degree, parity):
    """The rank of the graded antisymmetrizer on the cochain tensors of the
    parity sector, built entry by entry from the symmetry rule."""
    m, dim = len(fam), fam.algebra.dim
    sector = calculus.parity_sector(fam, degree, parity).reshape(-1)
    shape = (m,) * degree + (dim,)
    proj = np.zeros((sector.size, sector.size))
    for flat in np.flatnonzero(sector):
        *idx, k = np.unravel_index(flat, shape)
        pars = [fam.parities[i] for i in idx]
        for perm in permutations(range(degree)):
            moved = tuple(idx[s] for s in perm) + (k,)
            proj[np.ravel_multi_index(moved, shape), flat] += (
                graded_permutation_sign(perm, pars) / factorial(degree)
            )
    return np.linalg.matrix_rank(proj)


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("name", list(STACK_FAMILIES))
def test_a_basis_stack_spans_its_graded_alternating_sector(name, degree):
    fam = STACK_FAMILIES[name]
    for parity in (0, 1):
        basis = Cochain.basis(fam, degree, parity)
        (size,) = basis.stack
        assert size == _graded_alternating_dimension(fam, degree, parity)
        flat = np.moveaxis(basis.tensor, degree, 0).reshape(size, -1 if size else 0)
        assert np.linalg.matrix_rank(flat) == size


def _loop_basis(fam, degree, parity):
    """The basis stack unit by unit: e_k on each sorted index tuple (an index
    repeating only when its member is odd) and on every permutation of it,
    with its graded sign."""
    fp, m, dim = fam.parities, len(fam), fam.algebra.dim
    sector = parity_sector(fam, degree, parity)
    units = [
        (idx, k)
        for idx in combinations_with_replacement(range(m), degree)
        if all(i < j or fp[i] for i, j in zip(idx, idx[1:]))
        for k in np.flatnonzero(sector[idx])
    ]
    t = np.zeros((m,) * degree + (len(units), dim), dtype=complex)
    for u, (idx, k) in enumerate(units):
        for perm in permutations(range(degree)):
            t[tuple(idx[s] for s in perm) + (u, k)] = graded_permutation_sign(perm, fp[list(idx)])
    return t


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
@pytest.mark.parametrize("name", list(STACK_FAMILIES))
def test_the_basis_stack_is_the_permutation_loop_in_its_order(name, degree):
    # report rows name their worst input by its place in the stack
    fam = STACK_FAMILIES[name]
    for parity in (0, 1):
        got = Cochain.basis(fam, degree, parity).tensor
        assert np.array_equal(got, _loop_basis(fam, degree, parity))


def _entrywise_sample(fam, degree, parity, rng):
    """The 0- and 1-cochain sampler as an algebra element, or entry by entry
    with the entries off the parity sector zeroed."""
    alg = fam.algebra
    if degree == 0:
        return alg.sample_element(rng, parity=parity).coeffs
    shape = (len(fam), alg.dim)
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t[~parity_sector(fam, 1, parity)] = 0.0
    return t


@pytest.mark.parametrize("name", ["M2", "M1-1", "M2-1", "M5"])
def test_random_low_degree_cochains_keep_their_draws(name):
    # the benchmark's 1-cochains and every 0-cochain input stay the same
    fam = DerivationFamily.inner_family(matrix_algebra(5)) if name == "M5" else STACK_FAMILIES[name]
    for degree, parity in product((0, 1), (0, 1)):
        got, want = np.random.default_rng(60), np.random.default_rng(60)
        for _ in range(3):
            sample = random_cochain(fam, degree, parity, got)
            assert np.array_equal(sample.tensor, _entrywise_sample(fam, degree, parity, want))
        assert got.standard_normal() == want.standard_normal()


@pytest.mark.parametrize("name", list(STACK_FAMILIES))
def test_random_2_cochains_span_the_basis_units(name):
    # as many samples as units are independent: standard complex normals on
    # the sorted tuples of the sector, one per unit
    fam = STACK_FAMILIES[name]
    rng = np.random.default_rng(61)
    for parity in (0, 1) if fam.parities.any() else (0,):
        (units,) = Cochain.basis(fam, 2, parity).stack
        samples = [random_cochain(fam, 2, parity, rng) for _ in range(units)]
        assert max(s.symmetry_residual() for s in samples) == 0.0
        assert np.linalg.matrix_rank(np.array([s.tensor.ravel() for s in samples])) == units


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("name", ["M1-1", "M2-1"])
def test_argument_tuple_signs_are_the_graded_permutation_signs(name, degree):
    fam = ORACLE_FAMILIES[name]
    m, fp = len(fam), fam.parities
    tuples, at, row, sign = calculus._argument_tuples(tuple(fp), degree)
    assert np.array_equal(at, [np.ravel_multi_index(t, (m,) * degree) for t in tuples])
    seen = np.zeros(m**degree, dtype=bool)
    for u, idx in enumerate(tuples):
        for perm in permutations(range(degree)):
            flat = np.ravel_multi_index([idx[s] for s in perm], (m,) * degree)
            assert (row[flat], sign[flat]) == (u, graded_permutation_sign(perm, fp[idx]))
            seen[flat] = True
    # every other tuple repeats an even member, and has sign 0
    assert not sign[~seen].any()
    for flat in np.flatnonzero(~seen):
        idx = list(np.unravel_index(flat, (m,) * degree))
        assert any(idx.count(i) > 1 and not fp[i] for i in idx)
