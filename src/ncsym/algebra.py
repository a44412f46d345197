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
from typing import Sequence

import numpy as np

from ._linalg import (
    bilinear,
    left_action,
    lstsq_with_residual,
    max_abs,
    multiplicativity_defect,
    nullspace,
)

# Tolerance for the structural invariants checked at construction time
# (associativity, unit, parity bookkeeping, involution axioms).
STRUCTURE_TOL = 1e-12

# Decision threshold: an algebra counts as supercommutative when every basis
# supercommutator is below this.
SUPERCOMMUTATIVE_TOL = 1e-12


def koszul_sign(parity_a: int, parity_b: int) -> int:
    """The sign (-1)**(parity_a * parity_b)."""
    return -1 if (parity_a & 1) and (parity_b & 1) else 1


class AlgebraError(ValueError):
    """Raised when structural data fails validation or an operation's
    preconditions are not met."""


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

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

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
    """A finite-dimensional associative Z2-graded *-algebra over C."""

    def __init__(
        self,
        structure: np.ndarray,
        parity: Sequence[int],
        unit: np.ndarray,
        involution: np.ndarray,
        labels: Sequence[str] | None = None,
        kind: dict | None = None,
        rep_basis: np.ndarray | None = None,
    ) -> None:
        self.structure = np.asarray(structure, dtype=complex)
        self.dim = self.structure.shape[0]
        if self.structure.shape != (self.dim, self.dim, self.dim):
            raise AlgebraError("structure constants must be a cube")
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
        self._center_cache: tuple[list[Element], list[Element]] | None = None
        self._supercomm_cache: bool | None = None
        self.validate()

    # -- validation ----------------------------------------------------------

    def validate(self) -> dict[str, float]:
        """Check every axiom exactly on the whole structure, at every size,
        and return the residual of each, in the order checked: unit,
        associativity, grading, involutive, starFixesUnit, starGrading,
        antihomomorphism and, with a realization, realizationUnit and
        realizationMultiplicative.  Raises AlgebraError for the first one
        above STRUCTURE_TOL, naming the worst basis triple or pair where the
        axiom has one.  No step holds more than a dim**3 array."""
        c, n, m, u = self.structure, self.dim, self.involution_matrix, self.unit_coeffs
        eye = np.eye(n)
        right, left = c.reshape(n, n * n), c.reshape(n * n, n)
        # per (i, j, k): worst coefficient of (e_i e_j) e_k - e_i (e_j e_k)
        assoc = np.array([np.abs(
            (c[i] @ right).reshape(n, n, n) - (left @ c[i]).reshape(n, n, n)
        ).max(axis=2) for i in range(n)])
        off_grade = ((self.parity[:, None] + self.parity) % 2)[:, :, None] != self.parity
        # the star is a homomorphism from conj(A) into the graded opposite
        # algebra, whose structure constants are swapped_structure()
        antihom = multiplicativity_defect(np.conj(c), m, self.swapped_structure())
        checks = [
            ("unit", max(max_abs(self.left_mult_matrix(u) - eye),
                         max_abs(self.right_mult_matrix(u) - eye)),
             "unit axiom fails by {err:.3e}"),
            ("associativity", assoc, "associativity fails by {err:.3e} at {at}"),
            ("grading", max_abs(np.where(off_grade, c, 0.0)),
             "structure constants violate grading by {err:.3e}"),
            ("involutive", max_abs(m @ np.conj(m) - eye),
             "involution not involutive, defect {err:.3e}"),
            ("starFixesUnit", max_abs(self.star_coeffs(u) - u),
             "involution moves the unit by {err:.3e}"),
            ("starGrading", max_abs(np.where(self.parity[:, None] != self.parity, m, 0.0)),
             "involution violates grading by {err:.3e}"),
            ("antihomomorphism", np.abs(antihom).max(axis=2),
             "involution is not a graded antihomomorphism at {at} ({err:.3e})"),
        ]
        if self.rep_basis is not None:
            rep = self.rep_basis
            checks += [
                ("realizationUnit", max_abs(self.realize(u) - np.eye(rep.shape[1])),
                 "unit does not realize to identity ({err:.3e})"),
                ("realizationMultiplicative", np.array([np.abs(
                    rep[i] @ rep - np.tensordot(c[i], rep, axes=1)
                ).max(axis=(1, 2)) for i in range(n)]),
                 "realization is not multiplicative at {at} ({err:.3e})"),
            ]
        residuals = {}
        for key, defect, message in checks:
            err, at = _worst(np.asarray(defect))
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

    @property
    def zero(self) -> Element:
        return Element(self, np.zeros(self.dim))

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return bilinear(self.structure, a, b)

    def left_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of b -> a b on coefficient vectors."""
        return left_action(self.structure, np.asarray(a, dtype=complex))

    def right_mult_matrix(self, a: np.ndarray) -> np.ndarray:
        """Matrix of b -> b a on coefficient vectors."""
        return np.einsum("j,ijk->ki", np.asarray(a, dtype=complex), self.structure)

    def star_coeffs(self, a: np.ndarray) -> np.ndarray:
        return self.involution_matrix @ np.conj(np.asarray(a, dtype=complex))

    def supercommutator(self, a: Element, b: Element) -> Element:
        """[A, B] = AB - (-1)**(e_A e_B) BA, extended bilinearly."""
        out = np.zeros(self.dim, dtype=complex)
        for pa in (0, 1):
            ca = a.coeffs * (self.parity == pa)
            if max_abs(ca) == 0.0:
                continue
            for pb in (0, 1):
                cb = b.coeffs * (self.parity == pb)
                if max_abs(cb) == 0.0:
                    continue
                out += self.mul_coeffs(ca, cb)
                out -= koszul_sign(pa, pb) * self.mul_coeffs(cb, ca)
        return Element(self, out)

    @property
    def is_supercommutative(self) -> bool:
        if self._supercomm_cache is None:
            comm = self.structure - self.swapped_structure()
            self._supercomm_cache = max_abs(comm) <= SUPERCOMMUTATIVE_TOL
        return self._supercomm_cache

    def swapped_structure(self) -> np.ndarray:
        """t[i, j] = (-1)**(e_i e_j) e_j e_i, so [e_i, e_j] = c[i, j] - t[i, j]."""
        eta = koszul_signs(self.parity, self.parity)
        return eta[:, :, None] * self.structure.transpose(1, 0, 2)

    # -- center ----------------------------------------------------------------

    def graded_center(self) -> tuple[list[Element], list[Element]]:
        """Bases of the even and odd parts of the graded center.

        z of parity t is central when [z, e_j] = 0 for every basis element,
        with the supercommutator taken at parities (t, parity_j).
        """
        if self._center_cache is not None:
            return self._center_cache
        comm = self.structure - self.swapped_structure()  # [e_i, e_j] = comm[i, j]
        out: list[list[Element]] = []
        for t in (0, 1):
            idx = np.flatnonzero(self.parity == t)
            # row (j, k), column i: coefficient of e_k in [e_idx[i], e_j]
            basis = nullspace(comm[idx].transpose(1, 2, 0).reshape(self.dim**2, idx.size))
            full = np.zeros((self.dim, basis.shape[1]), dtype=complex)
            full[idx] = basis
            out.append([Element(self, col) for col in full.T])
        self._center_cache = (out[0], out[1])
        return self._center_cache

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

    def bi(a: int, b: int) -> int:
        return a * n + b

    parity = np.zeros(dim, dtype=int)
    for a in range(n):
        for b in range(n):
            parity[bi(a, b)] = (block[a] + block[b]) % 2
    structure = np.zeros((dim, dim, dim), dtype=complex)
    for a in range(n):
        for b in range(n):
            for d in range(n):
                structure[bi(a, b), bi(b, d), bi(a, d)] = 1.0
    unit = np.zeros(dim, dtype=complex)
    for a in range(n):
        unit[bi(a, a)] = 1.0
    involution = np.zeros((dim, dim), dtype=complex)
    for a in range(n):
        for b in range(n):
            involution[bi(b, a), bi(a, b)] = 1j if parity[bi(a, b)] else 1.0
    labels = [f"E{a + 1}{b + 1}" for a in range(n) for b in range(n)]
    rep = np.zeros((dim, n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            rep[bi(a, b), a, b] = 1.0
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
    structure = np.zeros((dim, dim, dim), dtype=complex)
    for s in range(dim):
        for t in range(dim):
            if s & t:
                continue
            structure[s, t, s | t] = _shuffle_sign(s, t)
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


def graded_kron(
    a: Superalgebra, b: Superalgebra, ta: np.ndarray, tb: np.ndarray
) -> np.ndarray:
    """A product tensor on the Kronecker basis of a (x) b from product
    tensors on the factors, by the Koszul rule
    (x (x) y) . (u (x) v) = (-1)**(e_y e_u) ta(x, u) (x) tb(y, v)."""
    d = a.dim * b.dim
    sign = koszul_signs(b.parity, a.parity)  # sign[j, k]: f_j moves past e_k
    return np.einsum("jk,ikm,jln->ijklmn", sign, ta, tb).reshape(d, d, d)


def tensor_algebra(a: Superalgebra, b: Superalgebra) -> Superalgebra:
    """Graded tensor product.  Products follow the Koszul rule
    (x (x) y)(u (x) v) = (-1)**(e_y e_u) xu (x) yv and the involution acts
    factorwise, (x (x) y)* = x* (x) y* (the factor stars already absorb the
    graded swap signs, so no extra phase appears).
    """
    parity = (a.parity[:, None] + b.parity[None, :]).reshape(-1) % 2
    structure = graded_kron(a, b, a.structure, b.structure)
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
        # factor has odd elements (otherwise Koszul signs would be missed)
        rep = np.stack(
            [np.kron(ra, rb) for ra in a.rep_basis for rb in b.rep_basis]
        )
    kind = {"form": "tensor", "parts": [a.kind, b.kind]}
    return Superalgebra(structure, parity, unit, involution, labels, kind, rep)


def kron_element(prod: Superalgebra, x: Element, y: Element) -> Element:
    """The element x (x) y of a tensor product algebra."""
    return Element(prod, np.kron(x.coeffs, y.coeffs))


# -- helpers ----------------------------------------------------------------------


def _basis_vec(n: int, i: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def _worst(mags: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Largest entry of an array of magnitudes and its index."""
    if mags.size == 0:
        return 0.0, ()
    at = np.unravel_index(int(np.argmax(mags)), mags.shape)
    return float(mags[at]), tuple(int(k) for k in at)
