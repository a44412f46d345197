"""Structure-constant layer: products, grading, involution, center."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncsym import algebra
from ncsym._linalg import bilinear, max_abs, nullspace
from ncsym.algebra import (
    STRUCTURE_TOL,
    AlgebraError,
    Coo,
    Superalgebra,
    grassmann_algebra,
    kron_element,
    matrix_algebra,
    tensor_algebra,
)
from ncsym.calculus import multiplicativity_defect

TOL = 1e-12

M2 = matrix_algebra(2)
M3 = matrix_algebra(3)
M11 = matrix_algebra(2, grading=(1, 1))
G2 = grassmann_algebra(2)
G3 = grassmann_algebra(3)


def _block_sum(a, b):
    """The direct sum a (+) b, assembled from zero off-diagonal blocks."""
    da, dim = a.dim, a.dim + b.dim
    ca, cb = a.constants, b.constants
    structure = Coo(
        dim, *(np.concatenate([x, y + da]) for x, y in zip((ca.i, ca.j, ca.k), (cb.i, cb.j, cb.k))),
        np.concatenate([ca.v, cb.v]),
    )
    involution = np.zeros((dim, dim), dtype=complex)
    involution[:da, :da] = a.involution_matrix
    involution[da:, da:] = b.involution_matrix
    return Superalgebra(
        structure,
        np.concatenate([a.parity, b.parity]),
        np.concatenate([a.unit_coeffs, b.unit_coeffs]),
        involution,
    )


# Pauli matrices in the (E11, E12, E21, E22) coefficient basis.
def commutator(alg, a, b):
    """[A, B] from the algebra's supercommutator table, bilinear over the
    parity parts of A and B."""
    return alg.element(alg.commutator_constants.left_mult(a.coeffs) @ b.coeffs)


SX = M2.element([0, 1, 1, 0])
SY = M2.element([0, -1j, 1j, 0])
SZ = M2.element([1, 0, 0, -1])


def test_pauli_products():
    # sigma_x sigma_y = i sigma_z, hand oracle
    prod = SX * SY
    np.testing.assert_allclose(prod.coeffs, 1j * SZ.coeffs, atol=TOL)
    comm = commutator(M2, SX, SY)
    np.testing.assert_allclose(comm.coeffs, 2j * SZ.coeffs, atol=TOL)
    # squares are the identity
    np.testing.assert_allclose((SX * SX).coeffs, M2.unit_coeffs, atol=TOL)
    np.testing.assert_allclose((SY * SY).coeffs, M2.unit_coeffs, atol=TOL)


def test_matrix_realization_matches_products():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = M3.sample_element(rng)
        b = M3.sample_element(rng)
        lhs = (a * b).realize()
        rhs = a.realize() @ b.realize()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize(
    "alg",
    [M3, matrix_algebra(3, grading=(2, 1)), grassmann_algebra(4),
     tensor_algebra(M2, M3)],
    ids=["M3", "M2-1", "G4", "M2xM3"],
)
def test_multiplication_matrices_match_the_dense_cube(alg):
    # L[k, j] = sum_i a_i c[i, j, k] and R[k, i] = sum_j a_j c[i, j, k],
    # on every basis vector and on random vectors
    cube = alg.constants.dense()
    rng = np.random.default_rng(6)
    vectors = list(np.eye(alg.dim)) + [
        rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim) for _ in range(3)
    ]
    for a in vectors:
        np.testing.assert_allclose(
            alg.left_mult_matrix(a), np.einsum("i,ijk->kj", a, cube), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            alg.right_mult_matrix(a), np.einsum("j,ijk->ki", a, cube), rtol=0, atol=1e-12
        )
    # a stack of vectors gives the stack of their matrices
    for shape in [(3,), (2, 2)]:
        stack = rng.standard_normal(shape + (alg.dim,)) + 1j * rng.standard_normal(
            shape + (alg.dim,)
        )
        left, right = alg.left_mult_matrix(stack), alg.right_mult_matrix(stack)
        assert left.shape == right.shape == shape + (alg.dim, alg.dim)
        for at in np.ndindex(*shape):
            a = stack[at]
            np.testing.assert_allclose(
                left[at], np.einsum("i,ijk->kj", a, cube), rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                right[at], np.einsum("j,ijk->ki", a, cube), rtol=0, atol=1e-12
            )
    a, b = vectors[-2:]
    np.testing.assert_allclose(
        alg.mul_coeffs(a, b), np.einsum("i,j,ijk->k", a, b, cube), rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        alg.right_mult_matrix(a) @ b, alg.mul_coeffs(b, a), atol=1e-12
    )


def test_ungraded_star_is_conjugate_transpose():
    rng = np.random.default_rng(4)
    a = M2.sample_element(rng)
    np.testing.assert_allclose(a.star().realize(), a.realize().conj().T, atol=TOL)


def test_grassmann_products():
    # basis order by bitmask: 1, t1, t2, t1t2
    t1 = G2.basis_element(1)
    t2 = G2.basis_element(2)
    t12 = t1 * t2
    np.testing.assert_allclose(t12.coeffs, [0, 0, 0, 1], atol=TOL)
    np.testing.assert_allclose((t2 * t1).coeffs, [0, 0, 0, -1], atol=TOL)
    assert max_abs((t1 * t1).coeffs) <= TOL
    # involution fixes monomials: (t1 t2)* = t1 t2
    np.testing.assert_allclose(t12.star().coeffs, t12.coeffs, atol=TOL)
    assert G2.is_supercommutative
    assert not M2.is_supercommutative


def test_grassmann_three_generators_top_monomial():
    t1, t2, t3 = (G3.basis_element(1 << i) for i in range(3))
    top = t3 * (t2 * t1)
    idx = G3.labels.index("t1t2t3")
    expect = np.zeros(8)
    expect[idx] = -1.0  # two inversions from t3 t2 t1 ... wait, three
    # t3 t2 t1 -> sort: (t3,t2),(t3,t1),(t2,t1) inversions = 3, sign -1
    np.testing.assert_allclose(top.coeffs, expect, atol=TOL)


def test_graded_matrix_algebra_parity_and_star():
    assert list(M11.parity) == [0, 1, 1, 0]
    e12 = M11.basis_element(1)
    e21 = M11.basis_element(2)
    # graded involution: E12* = i E21 (so that (AB)* = (-1)^(eA eB) B* A*)
    np.testing.assert_allclose(e12.star().coeffs, 1j * e21.coeffs, atol=TOL)
    # involutive
    np.testing.assert_allclose(e12.star().star().coeffs, e12.coeffs, atol=TOL)
    # odd hermitian element exists
    h = e12 + e12.star()
    np.testing.assert_allclose(h.star().coeffs, h.coeffs, atol=TOL)
    assert h.parity == 1
    # anticommutator of the odd units is the identity
    comm = commutator(M11, e12, e21)
    np.testing.assert_allclose(comm.coeffs, M11.unit_coeffs, atol=TOL)


def test_graded_center():
    z0, z1 = M2.graded_center()
    assert len(z0) == 1 and len(z1) == 0
    z0, z1 = M11.graded_center()
    assert len(z0) == 1 and len(z1) == 0
    # the central direction is the unit, up to scale
    v = z0[0].coeffs
    v = v / v[0]
    np.testing.assert_allclose(v, M11.unit_coeffs, atol=1e-9)
    z0, z1 = G2.graded_center()
    assert len(z0) == 2 and len(z1) == 2  # supercommutative: everything central


def test_direct_sum_center_and_sectors():
    alg = _block_sum(M2, M3)
    z0, z1 = alg.graded_center()
    assert len(z0) == 2 and len(z1) == 0
    # the two block units are the central projectors that cut out the
    # sectors M2 and M3: idempotent, summing to the unit, in the even center
    center = np.array([z.coeffs for z in z0]).T
    blocks = [np.concatenate([M2.unit_coeffs, np.zeros(9)]),
              np.concatenate([np.zeros(4), M3.unit_coeffs])]
    np.testing.assert_allclose(blocks[0] + blocks[1], alg.unit_coeffs, atol=TOL)
    for p in blocks:
        np.testing.assert_allclose(alg.mul_coeffs(p, p), p, atol=1e-9)
        x = np.linalg.lstsq(center, p, rcond=None)[0]
        np.testing.assert_allclose(center @ x, p, atol=1e-9)


def test_tensor_koszul_sign():
    g1 = grassmann_algebra(1)
    prod = tensor_algebra(g1, g1)
    th_left = kron_element(prod, g1.basis_element(1), g1.unit)
    th_right = kron_element(prod, g1.unit, g1.basis_element(1))
    a = th_left * th_right
    b = th_right * th_left
    np.testing.assert_allclose(b.coeffs, -a.coeffs, atol=TOL)
    assert max_abs(a.coeffs) > 0.5


def test_tensor_of_matrix_algebras_is_kronecker():
    prod = tensor_algebra(M2, M2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c, d = (M2.sample_element(rng) for _ in range(4))
        lhs = (kron_element(prod, a, b) * kron_element(prod, c, d)).realize()
        rhs = np.kron(a.realize(), b.realize()) @ np.kron(c.realize(), d.realize())
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("left, right", [(M2, M3), (M11, M2)], ids=["M2xM3", "M11xM2"])
def test_tensor_realization_is_the_kronecker_product_of_each_pair(left, right):
    prod = tensor_algebra(left, right)
    expected = [np.kron(ra, rb) for ra in left.rep_basis for rb in right.rep_basis]
    assert np.array_equal(prod.rep_basis, np.stack(expected))


def _m2_data(**override) -> dict:
    data = dict(
        structure=M2.constants, parity=M2.parity, unit=M2.unit_coeffs,
        involution=M2.involution_matrix, rep_basis=M2.rep_basis, labels=M2.labels,
    )
    return {**data, **override}


def _nonassociative_m2() -> Coo:
    bad = M2.structure.copy()
    bad[1, 2, 3] += 0.5  # E12 E21 = E11 + 0.5 E22 is not associative
    return Coo.of_dense(bad)


G1 = grassmann_algebra(1)

# One broken input per axiom, each passing every axiom checked before it.
BROKEN = {
    "unit": (_m2_data(unit=2 * M2.unit_coeffs), "unit axiom fails"),
    "associativity": (
        _m2_data(structure=_nonassociative_m2()), r"associativity fails .* at \(E"
    ),
    "grading": (_m2_data(parity=[0, 1, 0, 0]), "structure constants violate grading"),
    "involutive": (_m2_data(involution=2 * M2.involution_matrix), "not involutive"),
    "starFixesUnit": (_m2_data(involution=-M2.involution_matrix), "moves the unit"),
    "starGrading": (
        dict(
            structure=G1.constants, parity=G1.parity, unit=G1.unit_coeffs,
            involution=[[1, 0.5], [0, -1]],
        ),
        "involution violates grading",
    ),
    # entrywise conjugation is a homomorphism, not an antihomomorphism
    "antihomomorphism": (
        _m2_data(involution=np.eye(4)), r"not a graded antihomomorphism at \(E"
    ),
    "realizationUnit": (
        _m2_data(rep_basis=2 * M2.rep_basis), "unit does not realize to identity"
    ),
    # transposed matrix units realize the opposite algebra
    "realizationMultiplicative": (
        _m2_data(rep_basis=M2.rep_basis.transpose(0, 2, 1)),
        r"realization is not multiplicative at \(E",
    ),
}


@pytest.mark.parametrize("axiom", list(BROKEN))
def test_invalid_structure_rejected(axiom):
    data, message = BROKEN[axiom]
    with pytest.raises(AlgebraError, match=message):
        Superalgebra(**data)


def _pairwise_multiplicativity(src, p, tgt):
    """Loop reference: P(e_i e_j) - (P e_i)(P e_j), one basis pair at a time."""
    n = src.shape[0]
    out = np.zeros((n, n, tgt.shape[0]), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i, j] = p @ src[i, j] - np.einsum("a,b,abk->k", p[:, i], p[:, j], tgt)
    return out


@pytest.mark.parametrize("dim", [1, 9, 36])
def test_bilinear_matches_the_three_operand_einsum(dim):
    rng = np.random.default_rng(dim)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    t, a, b = draw(dim, dim, dim), draw(dim), draw(dim)
    want = np.einsum("i,j,ijk->k", a, b, t)
    # the sums run in another order: allow dim**2 roundings of the terms
    scale = np.einsum("i,j,ijk->k", abs(a), abs(b), abs(t))
    assert np.all(abs(bilinear(t, a, b) - want) <= dim**2 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("alg", [M11, matrix_algebra(3, grading=(2, 1)), G3])
def test_multiplicativity_defect_matches_pairwise_loop(alg):
    rng = np.random.default_rng(5)
    shape = (alg.dim, alg.dim)
    p = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.testing.assert_allclose(
        multiplicativity_defect(alg, p, alg),
        _pairwise_multiplicativity(alg.structure, p, alg.structure),
        atol=1e-12,
    )


def _summed(blocks, shape) -> np.ndarray:
    """The dense array of the values of (keys, values) blocks summed by key."""
    out = np.zeros(np.prod(shape), dtype=complex)
    for keys, vals in blocks:
        np.add.at(out, keys, vals)
    return out.reshape(shape)


@pytest.mark.parametrize("involution", [M11.involution_matrix, np.eye(4)])
def test_antihomomorphism_defect_matches_pairwise_loop(involution, monkeypatch):
    # (e_i e_j)* - (-1)**(e_i e_j) e_j* e_i*, as validate computes it from
    # the nonzeros, one block of first indices at a time, and one basis
    # pair at a time
    c, par = M11.structure, M11.parity
    loop = np.zeros_like(c)
    for i in range(4):
        for j in range(4):
            sign = -1 if par[i] and par[j] else 1
            loop[i, j] = involution @ np.conj(c[i, j]) - sign * np.einsum(
                "a,b,abk->k", involution[:, j], involution[:, i], c
            )
    monkeypatch.setattr(algebra, "BLOCK_PRODUCTS", 2)
    got = _summed(algebra._antihomomorphism_defect(M11.constants, par, involution), (4, 4, 4))
    np.testing.assert_allclose(got, loop, atol=1e-12)
    swapped = M11.swapped_structure().dense()
    dense = _pairwise_multiplicativity(np.conj(c), involution, swapped)
    np.testing.assert_allclose(dense, loop, atol=1e-12)


@pytest.mark.parametrize("budget", [1 << 18, 5])
def test_associator_matches_triple_loop(budget, monkeypatch):
    # a random cube, a third of its entries nonzero, against
    # (e_i e_j) e_l - e_i (e_j e_l) one basis triple at a time
    rng = np.random.default_rng(9)
    n = 5
    c = (rng.standard_normal((n,) * 3) + 1j * rng.standard_normal((n,) * 3)) * (
        rng.random((n,) * 3) < 0.3
    )
    loop = np.zeros((n,) * 4, dtype=complex)
    for i in range(n):
        for j in range(n):
            for l in range(n):
                loop[i, j, l] = c[i, j] @ c[:, l] - c[j, l] @ c[i]
    monkeypatch.setattr(algebra, "BLOCK_PRODUCTS", budget)
    got = _summed(algebra._associator(Coo.of_dense(c)), (n,) * 4)
    np.testing.assert_allclose(got, loop, atol=1e-12)


def test_associativity_is_exact_beyond_dim_64():
    # t1 t2 gains eps t3t4 and t2 t1 loses it: unit, grading and the star
    # still hold, and only triples such as (t1, t2, t1) see the defect
    base = _block_sum(grassmann_algebra(6), matrix_algebra(1))
    assert base.dim == 65
    bad = base.structure.copy()
    bad[1, 2, 12] += 1e-3
    bad[2, 1, 12] -= 1e-3
    with pytest.raises(AlgebraError, match="associativity fails by 2.000e-03"):
        Superalgebra(Coo.of_dense(bad), base.parity, base.unit_coeffs, base.involution_matrix)


AXIOMS = [
    "unit", "associativity", "grading", "involutive", "starFixesUnit",
    "starGrading", "antihomomorphism",
]


@pytest.mark.parametrize(
    "alg",
    [M3, matrix_algebra(3, grading=(2, 1)), grassmann_algebra(4),
     tensor_algebra(M2, M3)],
    ids=["M3", "M21", "G4", "M2xM3"],
)
def test_validate_returns_every_residual(alg):
    residuals = alg.validate()
    realized = ["realizationUnit", "realizationMultiplicative"]
    assert list(residuals) == AXIOMS + (realized if alg.rep_basis is not None else [])
    assert max(residuals.values()) <= STRUCTURE_TOL


def test_grassmann6_builds_in_bounded_memory():
    tracemalloc.start()
    try:
        grassmann_algebra(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 100e6


def test_grassmann7_validates_with_associativity_exactly_zero():
    residuals = grassmann_algebra(7).validate()
    assert residuals["associativity"] == 0.0
    assert max(residuals.values()) == 0.0


@pytest.mark.parametrize("build", [lambda: grassmann_algebra(8), lambda: matrix_algebra(8)],
                         ids=["G8", "M8"])
def test_dim_256_and_64_build_and_validate_below_64_mb(build):
    # the dense cubes alone would be 268 MB (G8) and 4 MB (M8); the sparse
    # checks hold no dim**3 array
    tracemalloc.start()
    try:
        alg = build()
        alg.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "structure" not in vars(alg)  # the dense cube was never built
    assert peak < 64 * 2**20


def test_moved_grassmann_constant_is_named_at_its_size():
    # t1 t2 = (1 + 1e-3) t1t2: the first basis triple the moved product
    # enters with a defect is (t1, t2, t3)
    g4 = grassmann_algebra(4)
    c = g4.constants
    moved = (c.i == 1) & (c.j == 2) & (c.k == 3)
    assert moved.sum() == 1
    bad = Coo(g4.dim, c.i, c.j, c.k, c.v + 1e-3 * moved)
    with pytest.raises(AlgebraError, match=r"associativity fails by 1\.000e-03 at \(t1, t2, t3\)"):
        Superalgebra(bad, g4.parity, g4.unit_coeffs, g4.involution_matrix, g4.labels)


def test_constructor_takes_the_sparse_form_only():
    with pytest.raises(AlgebraError, match="Coo"):
        Superalgebra(M2.structure, M2.parity, M2.unit_coeffs, M2.involution_matrix)
    with pytest.raises(AlgebraError, match="out of range"):
        Coo(2, [0], [0], [2], [1.0])
    with pytest.raises(AlgebraError, match="finite"):
        Coo(2, [0], [0], [1], [np.nan])


def test_coo_sums_duplicates_drops_zeros_and_sorts():
    c = Coo(3, [2, 0, 0, 1], [0, 1, 1, 1], [1, 2, 2, 0], [5.0, 1.0, 2.0, 0.0])
    assert (c.i.tolist(), c.j.tolist(), c.k.tolist(), c.v.tolist()) == (
        [0, 2], [1, 0], [2, 1], [3.0, 5.0]
    )
    np.testing.assert_array_equal(Coo.of_dense(c.dense()).v, c.v)
    assert not M3.structure.flags.writeable


@pytest.mark.parametrize("shape, rank", [((40, 6), 4), ((3, 6), 3)], ids=["tall", "wide"])
def test_nullspace_of_tall_and_wide_matrices(shape, rank):
    rng = np.random.default_rng(8)
    a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    basis = nullspace(a)
    assert basis.shape == (shape[1], shape[1] - rank)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(shape[1] - rank), atol=1e-12)
    assert np.abs(a @ basis).max() <= 1e-12


def test_graded_center_of_m7_needs_no_dim4_matrix():
    # the (dim**2, dim) center system needs no dim**2 x dim**2 U factor,
    # which alone is 92 MB at dim 49
    alg = matrix_algebra(7)
    tracemalloc.start()
    try:
        z0, z1 = alg.graded_center()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(z0), len(z1)) == (1, 0)
    assert peak <= 8 * 2**20


def test_mixed_parity_element_reports_none():
    e = M11.element([1, 1, 0, 0])
    assert e.parity is None
    assert M11.element(e.coeffs * (M11.parity == 0)).parity == 0
    assert M11.element(e.coeffs * (M11.parity == 1)).parity == 1


_coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@seed(1)
@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, 8, elements=_coeff),
    arrays(np.float64, 8, elements=_coeff),
    st.integers(0, 1),
    st.integers(0, 1),
)
def test_supercommutator_graded_antisymmetry(ra, rb, pa, pb):
    a = M11.element((ra[:4] + 1j * ra[4:]) * (M11.parity == pa))
    b = M11.element((rb[:4] + 1j * rb[4:]) * (M11.parity == pb))
    sign = -1 if (pa and pb) else 1
    lhs = commutator(M11, a, b)
    rhs = commutator(M11, b, a)
    np.testing.assert_allclose(lhs.coeffs, -sign * rhs.coeffs, atol=1e-10)


@seed(2)
@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, 8, elements=_coeff),
    arrays(np.float64, 8, elements=_coeff),
    st.integers(0, 1),
    st.integers(0, 1),
)
def test_star_is_graded_antihomomorphism(ra, rb, pa, pb):
    a = M11.element((ra[:4] + 1j * ra[4:]) * (M11.parity == pa))
    b = M11.element((rb[:4] + 1j * rb[4:]) * (M11.parity == pb))
    sign = -1 if (pa and pb) else 1
    lhs = (a * b).star()
    rhs = sign * (b.star() * a.star())
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)
