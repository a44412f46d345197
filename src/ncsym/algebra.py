"""Finite-dimensional Z2-graded *-algebras over C, given by structure constants.

Conventions used throughout the package:

* An element is a coefficient vector over a fixed homogeneous basis
  ``e_0 .. e_{n-1}``; multiplication is encoded by structure constants
  ``c[i, j, k]`` with ``e_i e_j = sum_k c[i, j, k] e_k``.
* ``parity[i]`` in {0, 1} is the grade of ``e_i``.  Signs follow the Koszul
  rule: swapping adjacent homogeneous objects of parities a, b costs
  ``(-1)**(a*b)``.
* The involution is antilinear, parity preserving, fixes the unit and is a
  graded antihomomorphism, ``(AB)* = (-1)**(e_A e_B) B* A*``.  It is stored
  as a matrix ``M`` acting on coefficients by ``star(a) = M @ conj(a)``.
  On a graded matrix algebra the odd matrix units pick up a factor ``i``
  under the involution (``E_ab* = i E_ba`` for odd ``E_ab``); this is what
  makes the graded antihomomorphism rule close, as plain conjugate transpose
  does not.
* The supercommutator of homogeneous A, B is
  ``[A, B] = AB - (-1)**(e_A e_B) BA``, extended bilinearly.

An algebra may carry a faithful matrix realization (one concrete matrix per
basis element).  It is used for spectra and positivity checks; all structural
operations work on coefficients only.

Every algebra is validated at construction: :meth:`Superalgebra.validate`
checks each axiom exactly on the whole structure at every size, never on a
sample, and returns the residual of each one.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._linalg import (
    join,
    lstsq_with_residual,
    max_abs,
    nullspace,
    sum_by_key,
    worst,
)

# Tolerance for the structural invariants checked at construction time
# (associativity, unit, parity bookkeeping, involution axioms).
STRUCTURE_TOL = 1e-12

# Decision threshold: an algebra counts as supercommutative when every basis
# supercommutator is below this.
SUPERCOMMUTATIVE_TOL = 1e-12

# Products of nonzero constants that one block of keys of a sparse check in
# Superalgebra.validate forms at once (more only when a single leading index
# forms more).
BLOCK_PRODUCTS = 1 << 18


class AlgebraError(ValueError):
    """Raised when structural data fails validation or an operation's
    preconditions are not met."""


class Coo:
    """A cube t[i, j, k] with sides ``dim`` stored by its nonzeros:
    t[i[n], j[n], k[n]] = v[n], the keys (i, j, k) strictly increasing in
    row-major order and no value zero.  Entries given twice are summed in
    the order given, and zero sums are dropped; a non-finite value is
    rejected.  Sums, differences and scalar multiples are Coo again."""

    def __init__(self, dim: int, i, j, k, v) -> None:
        self.dim = int(dim)
        i, j, k = (np.asarray(x, dtype=np.int64).reshape(-1) for x in (i, j, k))
        for x in (i, j, k):
            if x.shape != i.shape or (x.size and (x.min() < 0 or x.max() >= dim)):
                raise AlgebraError("structure constant index out of range")
        keys, total = sum_by_key((i * dim + j) * dim + k, np.broadcast_to(v, i.shape))
        if not np.all(np.isfinite(total)):
            raise AlgebraError("structure constants must be finite")
        live = total != 0
        ij, k = np.divmod(keys[live], dim)
        i, j = np.divmod(ij, dim)
        for name, x in zip("ijkv", (i, j, k, total[live])):
            x.flags.writeable = False
            setattr(self, name, x)

    @classmethod
    def of_dense(cls, cube: np.ndarray) -> "Coo":
        cube = np.asarray(cube, dtype=complex)
        i, j, k = np.nonzero(cube)
        return cls(cube.shape[0], i, j, k, cube[i, j, k])

    def dense(self) -> np.ndarray:
        cube = np.zeros((self.dim,) * 3, dtype=complex)
        cube[self.i, self.j, self.k] = self.v
        return cube

    def __add__(self, other: "Coo") -> "Coo":
        return Coo(self.dim, *(np.concatenate([x, y]) for x, y in zip(self, other)))

    def __neg__(self) -> "Coo":
        return Coo(self.dim, self.i, self.j, self.k, -self.v)

    def __sub__(self, other: "Coo") -> "Coo":
        return self + (-other)

    def __rmul__(self, scalar) -> "Coo":
        return Coo(self.dim, self.i, self.j, self.k, scalar * self.v)

    def __iter__(self):
        return iter((self.i, self.j, self.k, self.v))

    def left_mult(self, a: np.ndarray) -> np.ndarray:
        """L[..., k, j] = sum_i a[..., i] t[i, j, k]: for structure
        constants, the matrix of b -> a b, stacked like ``a``."""
        return self._mult_matrix(a, self.i, self.j)

    def right_mult(self, a: np.ndarray) -> np.ndarray:
        """R[..., k, i] = sum_j a[..., j] t[i, j, k]: for structure
        constants, the matrix of b -> b a, stacked like ``a``."""
        return self._mult_matrix(a, self.j, self.i)

    def _mult_matrix(self, a: np.ndarray, by: np.ndarray, col: np.ndarray) -> np.ndarray:
        """M[..., k[e], col[e]] = sum of a[..., by[e]] v[e] over the
        nonzeros e, in their order: one scatter for the whole stack."""
        n = self.dim
        rows = np.asarray(a, dtype=complex).reshape(-1, n)
        keys = (self.k * n + col) + n * n * np.arange(rows.shape[0])[:, None]
        out = np.zeros(rows.shape[0] * n * n, dtype=complex)
        np.add.at(out, keys.reshape(-1), (rows[:, by] * self.v).reshape(-1))
        return out.reshape(np.shape(a)[:-1] + (n, n))


@dataclass
class Element:
    """An algebra element as a coefficient vector over the basis."""

    algebra: "Superalgebra"
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=complex).reshape(-1)
        if c.shape != (self.algebra.dim,):
            raise AlgebraError(
                f"coefficient vector has length {c.shape[0]}, "
                f"algebra dimension is {self.algebra.dim}"
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- structure ---------------------------------------------------------

    @property
    def parity(self) -> int | None:
        """0 or 1 for a homogeneous element, None for one with both an even
        and an odd part above STRUCTURE_TOL.  The zero element reports
        parity 0."""
        alg = self.algebra
        even = max_abs(self.coeffs[alg.parity == 0])
        odd = max_abs(self.coeffs[alg.parity == 1])
        if odd <= STRUCTURE_TOL:
            return 0
        if even <= STRUCTURE_TOL:
            return 1
        return None

    def star(self) -> "Element":
        return Element(self.algebra, self.algebra.star_coeffs(self.coeffs))

    def realize(self) -> np.ndarray:
        return self.algebra.realize(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _check_same_algebra(self, other: "Element") -> None:
        if other.algebra is not self.algebra:
            raise AlgebraError("elements live in different algebras")

    def __add__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        return Element(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same_algebra(other)
        return Element(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Element):
            self._check_same_algebra(other)
            return Element(
                self.algebra, self.algebra.mul_coeffs(self.coeffs, other.coeffs)
            )
        return Element(self.algebra, complex(other) * self.coeffs)

    def __rmul__(self, scalar) -> "Element":
        return Element(self.algebra, complex(scalar) * self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if abs(c) > 1e-14:
                terms.append(f"({c:.6g})*{self.algebra.labels[i]}")
        return " + ".join(terms) if terms else "0"


class Superalgebra:
    """A finite-dimensional associative Z2-graded *-algebra over C.

    The structure constants are held once, as the :class:`Coo`
    ``constants``; every product is a scatter of their nonzeros into the
    multiplication matrices of a stack of elements."""

    def __init__(
        self,
        structure: Coo,
        parity: Sequence[int],
        unit: np.ndarray,
        involution: np.ndarray,
        labels: Sequence[str] | None = None,
        kind: dict | None = None,
        rep_basis: np.ndarray | None = None,
    ) -> None:
        if not isinstance(structure, Coo):
            raise AlgebraError("structure constants must be given as a Coo")
        self.constants = structure
        self.dim = structure.dim
        self.parity = np.asarray(parity, dtype=np.int8) % 2
        if self.parity.shape != (self.dim,):
            raise AlgebraError("parity vector length mismatch")
        self.unit_coeffs = np.asarray(unit, dtype=complex).reshape(-1)
        self.involution_matrix = np.asarray(involution, dtype=complex)
        if self.involution_matrix.shape != (self.dim, self.dim):
            raise AlgebraError("involution matrix shape mismatch")
        self.labels = list(labels) if labels is not None else [
            f"e{i}" for i in range(self.dim)
        ]
        if len(self.labels) != self.dim:
            raise AlgebraError("label count mismatch")
        self.kind = kind or {"form": "custom"}
        self.rep_basis = None if rep_basis is None else np.asarray(
            rep_basis, dtype=complex
        )
        if self.rep_basis is not None and self.rep_basis.shape[0] != self.dim:
            raise AlgebraError("realization basis count mismatch")
        self.validate()

    @cached_property
    def structure(self) -> np.ndarray:
        """The dense cube c[i, j, k] of the constants, read-only: a view
        for oracles that contract the whole cube; no package code reads it."""
        cube = self.constants.dense()
        cube.flags.writeable = False
        return cube

    # -- validation ----------------------------------------------------------

    def validate(self) -> dict[str, float]:
        """Check every axiom exactly on the whole structure, at every size,
        and return the residual of each, in the order checked: unit,
        associativity, grading, involutive, starFixesUnit, starGrading,
        antihomomorphism and, with a realization, realizationUnit and
        realizationMultiplicative.  Raises AlgebraError for the first one
        above STRUCTURE_TOL, naming the worst basis triple or pair where the
        axiom has one.

        Every check reads the nonzero constants; none builds the dense cube.
        Associativity and the antihomomorphism join nonzeros on their shared
        index and sum the products by key, one block of keys at a time.  A
        block forms about BLOCK_PRODUCTS products, more only when one
        leading pair (i, j) (associativity) or one first index
        (antihomomorphism) forms more, which is at most about dim**3 for
        dense constants.  Every other array is dim x dim, or dim x d x d for
        a realization by d x d matrices."""
        c, n, m, u = self.constants, self.dim, self.involution_matrix, self.unit_coeffs
        par, eye = self.parity, np.eye(n)
        left, right = self.left_mult_matrix(u), self.right_mult_matrix(u)
        checks = [
            ("unit", (max(max_abs(left - eye), max_abs(right - eye)), ()),
             "unit axiom fails by {err:.3e}"),
            ("associativity", _worst_sum(_associator(c), n, 3),
             "associativity fails by {err:.3e} at {at}"),
            ("grading", (max_abs(c.v[(par[c.i] + par[c.j]) % 2 != par[c.k]]), ()),
             "structure constants violate grading by {err:.3e}"),
            ("involutive", (max_abs(m @ np.conj(m) - eye), ()),
             "involution not involutive, defect {err:.3e}"),
            ("starFixesUnit", (max_abs(self.star_coeffs(u) - u), ()),
             "involution moves the unit by {err:.3e}"),
            ("starGrading", (max_abs(np.where(par[:, None] != par, m, 0.0)), ()),
             "involution violates grading by {err:.3e}"),
            ("antihomomorphism", _worst_sum(_antihomomorphism_defect(c, par, m), n, 2),
             "involution is not a graded antihomomorphism at {at} ({err:.3e})"),
        ]
        if self.rep_basis is not None:
            rep = self.rep_basis
            checks += [
                ("realizationUnit", (max_abs(self.realize(u) - np.eye(rep.shape[1])), ()),
                 "unit does not realize to identity ({err:.3e})"),
                ("realizationMultiplicative", worst(realization_defects(c, rep)),
                 "realization is not multiplicative at {at} ({err:.3e})"),
            ]
        residuals = {}
        for key, (err, at), message in checks:
            if err > STRUCTURE_TOL:
                names = ", ".join(self.labels[k] for k in at)
                raise AlgebraError(message.format(err=err, at=f"({names})"))
            residuals[key] = err
        return residuals

    # -- basic operations ----------------------------------------------------

    def element(self, coeffs) -> Element:
        return Element(self, np.asarray(coeffs, dtype=complex))

    def basis_element(self, i: int) -> Element:
        return Element(self, _basis_vec(self.dim, i))

    @property
    def unit(self) -> Element:
        return Element(self, self.unit_coeffs)

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.left_mult_matrix(a) @ b

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of b -> a b; a stack of vectors (..., dim) gives the
        stack of their matrices."""
        return self.constants.left_mult(a)

    def right_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of b -> b a; a stack of vectors (..., dim) gives the
        stack of their matrices."""
        return self.constants.right_mult(a)

    def star_coeffs(self, a: np.ndarray) -> np.ndarray:
        return self.involution_matrix @ np.conj(np.asarray(a, dtype=complex))

    @cached_property
    def commutator_constants(self) -> Coo:
        """The supercommutator table: [e_i, e_j] = sum_k comm[i, j, k] e_k."""
        return self.constants - self.swapped_structure()

    @cached_property
    def is_supercommutative(self) -> bool:
        return max_abs(self.commutator_constants.v) <= SUPERCOMMUTATIVE_TOL

    def swapped_structure(self) -> Coo:
        """t[i, j] = (-1)**(e_i e_j) e_j e_i, so [e_i, e_j] = c[i, j] - t[i, j]."""
        c, par = self.constants, self.parity
        sign = np.where(par[c.i] & par[c.j], -1.0, 1.0)
        return Coo(self.dim, c.j, c.i, c.k, sign * c.v)

    # -- center ----------------------------------------------------------------

    def graded_center(self) -> tuple[list[Element], list[Element]]:
        """Bases of the even and odd parts of the graded center.

        z of parity t is central when [z, e_j] = 0 for every basis element,
        with the supercommutator taken at parities (t, parity_j).
        """
        comm = self.commutator_constants
        out: list[list[Element]] = []
        for t in (0, 1):
            idx = np.flatnonzero(self.parity == t)
            # row (j, k), column i: coefficient of e_k in [e_idx[i], e_j]
            system = np.zeros((self.dim**2, idx.size), dtype=complex)
            pos = np.cumsum(self.parity == t) - 1  # column of each e_i of parity t
            on = self.parity[comm.i] == t
            system[comm.j[on] * self.dim + comm.k[on], pos[comm.i[on]]] = comm.v[on]
            basis = nullspace(system)
            full = np.zeros((self.dim, basis.shape[1]), dtype=complex)
            full[idx] = basis
            out.append([Element(self, col) for col in full.T])
        return out[0], out[1]

    # -- realization -----------------------------------------------------------

    def realize(self, coeffs: np.ndarray) -> np.ndarray:
        if self.rep_basis is None:
            raise AlgebraError(f"no matrix realization for kind {self.kind!r}")
        return np.tensordot(np.asarray(coeffs, dtype=complex), self.rep_basis, axes=1)

    def coeffs_from_matrix(self, mat: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`realize` (least squares, with residual gate)."""
        if self.rep_basis is None:
            raise AlgebraError(f"no matrix realization for kind {self.kind!r}")
        flat = self.rep_basis.reshape(self.dim, -1).T
        x, res = lstsq_with_residual(flat, np.asarray(mat, dtype=complex).reshape(-1))
        if res > 1e-9:
            raise AlgebraError(f"matrix lies outside the realization by {res:.3e}")
        return x

    # -- random elements (for suites and tests) --------------------------------

    def sample_element(
        self,
        rng: np.random.Generator,
        parity: int | None = None,
        hermitian: bool = False,
    ) -> Element:
        c = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        if parity is not None:
            c = c * (self.parity == parity)
        e = Element(self, c)
        if hermitian:
            e = 0.5 * (e + e.star())
        return e

    def __repr__(self) -> str:
        return f"Superalgebra(dim={self.dim}, kind={self.kind!r})"


# -- builders -------------------------------------------------------------------


def matrix_algebra(n: int, grading: tuple[int, int] | None = None) -> Superalgebra:
    """Full matrix algebra M_n, optionally with a (p|q) block grading.

    Basis: matrix units E_ab in row-major order.  With grading=(p, q) the
    unit E_ab is odd when exactly one of a, b falls in the upper block of
    size p.  Involution: E_ab -> i**parity * E_ba (conjugate transpose on the
    even part; the extra i on the odd part keeps the graded
    antihomomorphism rule, see the module docstring).
    """
    if n < 1:
        raise AlgebraError("need n >= 1")
    if grading is not None:
        p, q = grading
        if p < 0 or q < 0 or p + q != n:
            raise AlgebraError("grading blocks must be nonnegative and sum to n")
        block = np.array([0] * p + [1] * q)
    else:
        block = np.zeros(n, dtype=int)
    dim = n * n
    row, col = np.divmod(np.arange(dim), n)  # E_ab is basis element a n + b
    parity = (block[row] + block[col]) % 2
    a, b, d = np.indices((n, n, n)).reshape(3, -1)
    structure = Coo(dim, a * n + b, b * n + d, a * n + d, 1.0)  # E_ab E_bd = E_ad
    unit = np.zeros(dim, dtype=complex)
    unit[row == col] = 1.0
    involution = np.zeros((dim, dim), dtype=complex)
    involution[col * n + row, np.arange(dim)] = np.where(parity, 1j, 1.0)
    labels = [f"E{a + 1}{b + 1}" for a in range(n) for b in range(n)]
    rep = np.eye(dim, dtype=complex).reshape(dim, n, n)
    kind: dict = {"form": "matrix", "n": n}
    if grading is not None:
        kind = {"form": "gradedMatrix", "blocks": [int(grading[0]), int(grading[1])]}
    return Superalgebra(structure, parity, unit, involution, labels, kind, rep)


def grassmann_algebra(n: int) -> Superalgebra:
    """Grassmann algebra on n anticommuting self-adjoint generators.

    Basis monomials are indexed by subsets of {1..n} (bitmask order), each
    written with ascending generator index.  Products carry the sign of the
    shuffle that re-sorts the concatenation; the involution fixes every
    monomial (the reversal and resorting signs always cancel) and conjugates
    coefficients.
    """
    if n < 0:
        raise AlgebraError("need n >= 0")
    dim = 1 << n
    parity = np.array([bin(s).count("1") % 2 for s in range(dim)], dtype=int)
    pairs = [(s, t) for s in range(dim) for t in range(dim) if not s & t]
    left, right = np.array(pairs).T
    structure = Coo(dim, left, right, left | right, [_shuffle_sign(*pair) for pair in pairs])
    unit = np.zeros(dim, dtype=complex)
    unit[0] = 1.0
    involution = np.eye(dim, dtype=complex)
    labels = []
    for s in range(dim):
        gens = [f"t{i + 1}" for i in range(n) if s >> i & 1]
        labels.append("".join(gens) if gens else "1")
    kind = {"form": "grassmann", "n": n}
    return Superalgebra(structure, parity, unit, involution, labels, kind)


def _shuffle_sign(s: int, t: int) -> int:
    """Sign from sorting the concatenation (ascending s)(ascending t)."""
    inversions = 0
    for i in range(int(t).bit_length()):
        if t >> i & 1:
            # count members of s greater than generator i
            inversions += bin(s >> (i + 1)).count("1")
    return -1 if inversions % 2 else 1


def grassmann_derivative_matrices(alg: Superalgebra) -> tuple[list, list]:
    """Left and right generator derivatives of a Grassmann algebra as
    coefficient matrices.  The left derivative of a monomial picks up
    (-1)**(number of smaller generators present), the right derivative
    (-1)**(number of larger ones)."""
    if alg.kind.get("form") != "grassmann":
        raise AlgebraError("generator derivatives need a Grassmann algebra")
    n = int(alg.kind["n"])
    dim = alg.dim
    left = [np.zeros((dim, dim)) for _ in range(n)]
    right = [np.zeros((dim, dim)) for _ in range(n)]
    for s in range(dim):
        for a in range(n):
            if not s & (1 << a):
                continue
            t = s & ~(1 << a)
            below = bin(s & ((1 << a) - 1)).count("1")
            above = bin(s >> (a + 1)).count("1")
            left[a][t, s] = -1.0 if below % 2 else 1.0
            right[a][t, s] = -1.0 if above % 2 else 1.0
    return left, right


def koszul_signs(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """The matrix of signs (-1)**(pa[i] * pb[j])."""
    return np.where(np.outer(pa, pb) % 2, -1.0, 1.0)


def graded_kron(a: Superalgebra, b: Superalgebra, ta: Coo, tb: Coo) -> Coo:
    """A product tensor on the Kronecker basis of a (x) b from product
    tensors on the factors, by the Koszul rule
    (x (x) y) . (u (x) v) = (-1)**(e_y e_u) ta(x, u) (x) tb(y, v):
    one entry for each pair of nonzeros."""
    d = b.dim
    x, y = (g.reshape(-1) for g in np.indices((ta.v.size, tb.v.size)))
    sign = np.where(b.parity[tb.i[y]] & a.parity[ta.j[x]], -1.0, 1.0)
    return Coo(
        a.dim * d, ta.i[x] * d + tb.i[y], ta.j[x] * d + tb.j[y], ta.k[x] * d + tb.k[y],
        sign * ta.v[x] * tb.v[y],
    )


def tensor_algebra(a: Superalgebra, b: Superalgebra) -> Superalgebra:
    """Graded tensor product.  Products follow the Koszul rule
    (x (x) y)(u (x) v) = (-1)**(e_y e_u) xu (x) yv and the involution acts
    factorwise, (x (x) y)* = x* (x) y* (the factor stars already absorb the
    graded swap signs, so no extra phase appears).
    """
    parity = (a.parity[:, None] + b.parity[None, :]).reshape(-1) % 2
    structure = graded_kron(a, b, a.constants, b.constants)
    unit = np.kron(a.unit_coeffs, b.unit_coeffs)
    involution = np.kron(a.involution_matrix, b.involution_matrix)
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    rep = None
    if (
        a.rep_basis is not None
        and b.rep_basis is not None
        and not (np.any(a.parity) and np.any(b.parity))
    ):
        # plain Kronecker realization is only a homomorphism when at most one
        # factor has odd elements (otherwise Koszul signs would be missed);
        # rep[i * nb + j] = kron(ra[i], rb[j]), all pairs in one product
        ra, rb = a.rep_basis, b.rep_basis
        rep = (ra[:, None, :, None, :, None] * rb[None, :, None, :, None, :]).reshape(
            ra.shape[0] * rb.shape[0], ra.shape[1] * rb.shape[1], ra.shape[2] * rb.shape[2]
        )
    kind = {"form": "tensor", "parts": [a.kind, b.kind]}
    return Superalgebra(structure, parity, unit, involution, labels, kind, rep)


def kron_element(prod: Superalgebra, x: Element, y: Element) -> Element:
    """The element x (x) y of a tensor product algebra."""
    return Element(prod, np.kron(x.coeffs, y.coeffs))


# -- helpers ----------------------------------------------------------------------


def realization_defects(c: Coo, rep: np.ndarray) -> np.ndarray:
    """worst[i, j] = max |rep[i] rep[j] - sum_k c[i, j, k] rep[k]|, how far
    the matrices rep[k] are from multiplying like the basis they stand for,
    on each basis pair, from the nonzeros of one row i at a time."""
    n = c.dim
    starts = np.searchsorted(c.i, np.arange(n + 1))
    worst = np.zeros((n, n))
    for i in range(n):
        s = slice(starts[i], starts[i + 1])
        # e_i e_j = sum_k c[i, j, k] e_k, from the nonzeros of row i
        rhs = np.zeros_like(rep)
        np.add.at(rhs, c.j[s], c.v[s, None, None] * rep[c.k[s]])
        worst[i] = np.abs(rep[i] @ rep - rhs).max(axis=(1, 2))
    return worst


def _basis_vec(n: int, i: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def _worst_sum(blocks, dim: int, width: int) -> tuple[float, tuple[int, ...]]:
    """Largest |sum of the values that share a key| over blocks of (keys,
    values), and its key's leading ``width`` digits in base ``dim`` (the
    last digit, the output basis index, dropped).  The blocks hold disjoint,
    increasing key ranges, so ties go to the smallest key, the entry
    :func:`ncsym._linalg.worst` picks in a dense array."""
    err, at = 0.0, ()
    for keys, vals in blocks:
        uniq, total = sum_by_key(keys, vals)
        if uniq.size:
            w = int(np.argmax(np.abs(total)))
            if abs(total[w]) > err:
                err = float(abs(total[w]))
                at = tuple(int(x) for x in np.unravel_index(uniq[w] // dim, (dim,) * width))
    return err, at


def _index_blocks(cost: np.ndarray):
    """Consecutive ranges [lo, hi) of indices into ``cost``, each costing
    about BLOCK_PRODUCTS; one index may cost more."""
    block = (np.cumsum(cost) - cost) // BLOCK_PRODUCTS
    bounds = np.append(np.flatnonzero(np.diff(block, prepend=-1)), cost.size)
    return zip(bounds[:-1], bounds[1:])


def _boxes(p0: int, p1: int, dim: int) -> list[tuple[int, int, int, int]]:
    """Boxes (i0, i1, j0, j1), i0 <= i < i1 and j0 <= j < j1, that tile the
    pairs with p0 <= i dim + j < p1."""
    (ia, ja), (ib, jb) = divmod(p0, dim), divmod(p1, dim)
    if ia == ib:
        return [(ia, ia + 1, ja, jb)]
    out = []
    if ja:
        out.append((ia, ia + 1, ja, dim))
        ia += 1
    if ib > ia:
        out.append((ia, ib, 0, dim))
    if jb:
        out.append((ib, ib + 1, 0, jb))
    return out


def _associator(c: Coo):
    """Blocks of (key, value), the values sharing key
    ((i dim + j) dim + l) dim + m summing to the coefficient of e_m in
    (e_i e_j) e_l - e_i (e_j e_l), from the products of nonzeros that share
    an index: (e_i e_j) e_l = sum c[i,j,k] c[k,l,m] e_m and
    e_i (e_j e_l) = sum c[j,l,k] c[i,k,m] e_m.  A block covers a range of
    (i, j), so a dense c costs at most about dim**3 products per block."""
    n = c.dim
    pair = c.i * n + c.j
    starts = np.searchsorted(c.i, np.arange(n + 1))
    pair_starts = np.searchsorted(pair, np.arange(n * n + 1))
    # products per (i, j): sum over c[i,j,k] of #c[k,.,.] on the left, and
    # sum_k #c[i,k,.] #c[j,.,k] on the right
    heads, tails = np.zeros((n, n)), np.zeros((n, n))
    np.add.at(heads, (c.i, c.j), 1.0)
    np.add.at(tails, (c.i, c.k), 1.0)
    cost = np.bincount(pair, weights=np.diff(starts)[c.k], minlength=n * n)
    for p0, p1 in _index_blocks(cost + (heads @ tails.T).reshape(-1)):
        lo = pair_starts[p0]
        a, b = join(c.k[lo:pair_starts[p1]], c.i)  # (i, j -> k)(k, l -> m)
        a += lo
        keys = [((c.i[a] * n + c.j[a]) * n + c.j[b]) * n + c.k[b]]
        vals = [c.v[a] * c.v[b]]
        for i0, i1, j0, j1 in _boxes(p0, p1, n):  # (j, l -> k)(i, k -> m)
            b, a = join(c.j[starts[i0]:starts[i1]], c.k[starts[j0]:starts[j1]])
            b += starts[i0]
            a += starts[j0]
            keys.append(((c.i[b] * n + c.i[a]) * n + c.j[a]) * n + c.k[b])
            vals.append(-(c.v[a] * c.v[b]))
        yield np.concatenate(keys), np.concatenate(vals)


def _antihomomorphism_defect(c: Coo, par: np.ndarray, m: np.ndarray):
    """Blocks of (key, value), the values sharing key (i dim + j) dim + k
    summing to the coefficient of e_k in (e_i e_j)* - (e_i*)(e_j*), the
    second product taken in the graded opposite algebra, whose constants
    are t[a, b, k] = (-1)**(e_a e_b) c[b, a, k].  With star(e_a) =
    sum_k m[k, a] e_k, from the nonzeros of c and m:
    (e_i e_j)* = sum_a conj(c[i,j,a]) m[:, a] and
    (e_i*)(e_j*) = sum_b m[b,j] X[i,b,:] with X[i,b,:] = sum_a m[a,i] t[a,b,:]."""
    n = c.dim
    rows, cols = np.nonzero(m)
    w = m[rows, cols]
    by_col = np.argsort(cols, kind="stable")
    tv = np.where(par[c.i] & par[c.j], -1.0, 1.0) * c.v  # t[c.j, c.i, c.k]
    starts = np.searchsorted(c.i, np.arange(n + 1))
    col_starts = np.searchsorted(cols[by_col], np.arange(n + 1))
    # products per i: conj(c[i,j,a]) m[k,a], then m[a,i] t[a,b,k] and the
    # b contraction of each sum, at most max row count of m apiece
    first = np.bincount(c.i, weights=np.bincount(cols, minlength=n)[c.k], minlength=n)
    inner = np.bincount(cols, weights=np.bincount(c.j, minlength=n)[rows], minlength=n)
    width = 1 + np.bincount(rows, minlength=n).max(initial=0)
    for i0, i1 in _index_blocks(first + inner * width):
        lo = starts[i0]
        e, f = join(c.k[lo:starts[i1]], cols)
        e += lo
        keys = [(c.i[e] * n + c.j[e]) * n + rows[f]]
        vals = [np.conj(c.v[e]) * w[f]]
        g = by_col[col_starts[i0]:col_starts[i1]]  # m[a, i] for i in the block
        p, e = join(rows[g], c.j)
        x_key, x = sum_by_key((cols[g[p]] * n + c.i[e]) * n + c.k[e], w[g[p]] * tv[e])
        p, f = join(x_key // n % n, rows)
        keys.append((x_key[p] // (n * n) * n + cols[f]) * n + x_key[p] % n)
        vals.append(-(w[f] * x[p]))
        yield np.concatenate(keys), np.concatenate(vals)
