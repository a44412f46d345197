"""Superderivations, graded cochain calculus and algebra isomorphisms.

A derivation of parity r is a linear map X on the algebra with

    X(AB) = X(A) B + (-1)**(r e_A) A X(B)

stored as a matrix acting on coefficient vectors.  Cochains of degree p are
graded-alternating p-linear maps from derivations to the algebra; they are
represented densely by their values on every index tuple of a fixed
derivation family, a tensor of shape (m, .., m, dim).  A stack of cochains
of one degree and parity is one tensor with stack axes between the slots
and the algebra axis, (m, .., m) + S + (dim,); the differential, interior
product, Lie derivative and pullback take a whole stack in one call, so
their fixed cost is paid once per stack, and ``wedge`` wedges two stacks
of one shape member by member.

Sign conventions (all checked by the test suite):

* permuting arguments:  omega(X_s(1), .., X_s(p)) picks up the permutation
  sign times (-1)**(e_j e_k) for every transposed pair of odd arguments;
  adjacent swaps of odd-odd pairs are therefore symmetric.
* wedge:  (a ^ b)(X_1..X_{p+q}) = 1/(p! q!) sum over all permutations of the
  graded permutation sign, an extra (-1)**(e_b * sum of the parities of the
  first p permuted arguments), and the product a(..) b(..).
* Lie derivative on forms:  (L_Y w)(X_1..X_p) = Y[w(X_1..X_p)] minus the sum
  of w evaluated with [Y, X_i] in slot i, each weighted by
  (-1)**(e_Y (e_w + e_X1 + .. + e_X(i-1))).
* interior product:  (i_X w)(X_1..X_{p-1}) = w(X, X_1, ..) with no sign.
* exterior derivative: the usual alternating-sum formula with graded weights
  a_i = e_Xi (e_w + sum of earlier argument parities) on the action terms and
  b_ij = e_Xj (parities strictly between i and j) on the bracket terms.

Sign tensors and sparse operators: ``exterior_derivative`` and ``wedge``
never loop over index tuples.  ``wedge`` forms the product of its factors
once, from the multiplication matrices of the lower-degree one; each term
moves it into its argument slots and multiplies it by a sign tensor.  The
wedge signs depend on an index tuple only through its parity pattern, so
each permutation gets a table over the 2**(p+q) patterns, filled by
``graded_permutation_sign`` once per (p, q, parity of the second factor)
and indexed by the family parities on every call.  The differential, the
Leibniz check and the family bracket run on sparse operators instead,
since the structure constants, the family matrices and the bracket table
are mostly zeros (0.8%, 1.5% and 1.9% nonzero on M5):

* ``superderivation_residuals`` (in :mod:`ncsym.leibniz`) multiplies a
  stack of operators by the sparse Leibniz system, row block by row block;
* ``DerivationFamily.bracket`` forms the commutators from the nonzero
  entries of the member matrices;
* ``differential_chunks`` contracts the cochain with the nonzero entries of
  the member matrices (action terms) and of the bracket table (bracket
  terms), one slice of the first slot at a time, and adds each term,
  signed by (-1)**(a + a_i) or (-1)**(b + b_ij) broadcast from the family
  parities, only where its sparse product reaches.  ``exterior_derivative``
  joins the slices; the closedness check of a symplectic form takes their
  maximum one slice at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import factorial

import numpy as np

from ._linalg import (
    GATHER_ENTRIES,
    column_components,
    greedy_independent,
    join,
    max_abs,
    numerical_rank,
    segment_sums,
    sum_by_key,
)
from .algebra import Element, Superalgebra, koszul_sign, koszul_signs
from .leibniz import superderivation_dims, superderivation_residuals

# Residual threshold for the superderivation (graded Leibniz) condition.
DERIVATION_TOL = 1e-10
# Threshold for a derivation family to count as closed under the bracket.
CLOSURE_TOL = 1e-10
# Gate for expanding a derivation over a family.
EXPAND_TOL = 1e-9
# Gate on the graded alternation and parity bookkeeping of a cochain tensor.
COCHAIN_TOL = 1e-10
# Largest *-isomorphism defect an AlgebraIsomorphism may have.
ISOMORPHISM_TOL = 1e-9


class CalculusError(ValueError):
    pass


# -- derivations -------------------------------------------------------------


@dataclass
class Derivation:
    """A parity-homogeneous superderivation as a matrix on coefficients."""

    algebra: Superalgebra
    matrix: np.ndarray
    parity: int
    source: Element | None = None  # set for inner derivations

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.algebra.dim, self.algebra.dim):
            raise CalculusError("derivation matrix has wrong shape")
        object.__setattr__(self, "matrix", m)
        self.parity = int(self.parity) % 2

    def __call__(self, a: Element) -> Element:
        return Element(self.algebra, self.matrix @ a.coeffs)

    def __add__(self, other: "Derivation") -> "Derivation":
        if other.algebra is not self.algebra or other.parity != self.parity:
            raise CalculusError("can only add derivations of equal parity")
        src = None
        if self.source is not None and other.source is not None:
            src = self.source + other.source
        return Derivation(self.algebra, self.matrix + other.matrix, self.parity, src)

    def __mul__(self, scalar) -> "Derivation":
        src = None if self.source is None else complex(scalar) * self.source
        return Derivation(self.algebra, complex(scalar) * self.matrix, self.parity, src)

    __rmul__ = __mul__

    def __sub__(self, other: "Derivation") -> "Derivation":
        return self + (-1.0) * other


def inner_derivation(alg: Superalgebra, a: Element) -> Derivation:
    """The supercommutator map B -> [A, B] for homogeneous A."""
    par = a.parity
    if par is None:
        raise CalculusError("inner derivation needs a homogeneous element")
    left = alg.left_mult_matrix(a.coeffs)
    right = alg.right_mult_matrix(a.coeffs)
    signs = np.array([koszul_sign(par, int(p)) for p in alg.parity], dtype=complex)
    return Derivation(alg, left - right @ np.diag(signs), par, source=a)


def lie_bracket(x: Derivation, y: Derivation) -> Derivation:
    """Graded commutator [X, Y] = X Y - (-1)**(e_X e_Y) Y X."""
    if x.algebra is not y.algebra:
        raise CalculusError("derivations live on different algebras")
    sign = koszul_sign(x.parity, y.parity)
    mat = x.matrix @ y.matrix - sign * y.matrix @ x.matrix
    src = None
    if x.source is not None and y.source is not None:
        src = x.algebra.supercommutator(x.source, y.source)
    return Derivation(x.algebra, mat, (x.parity + y.parity) % 2, src)


def _special_evidence(alg: Superalgebra) -> tuple[dict, DerivationFamily | None]:
    """Whether the algebra is 'special': its graded center is the scalars
    and every superderivation is inner, which is checked by comparing the
    superderivation-space dimension with dim - 1.  Returns the evidence dict
    and the inner family it counted (None on a supercommutative algebra)."""
    z0, z1 = alg.graded_center()
    if alg.is_supercommutative:
        result = {
            "special": False,
            "center_dims": [len(z0), len(z1)],
            "superderivation_dims": None,
            "inner_dim": 0,
            "supercommutative": True,
        }
        return result, None
    sder = superderivation_dims(alg)
    fam = DerivationFamily.inner_family(alg)
    inner_dim = len(fam)
    special = (
        len(z0) == 1
        and len(z1) == 0
        and not alg.is_supercommutative
        and inner_dim == alg.dim - 1
        and sder["even"] + sder["odd"] == inner_dim
    )
    result = {
        "special": bool(special),
        "center_dims": [len(z0), len(z1)],
        "superderivation_dims": [sder["even"], sder["odd"]],
        "inner_dim": inner_dim,
        "supercommutative": bool(alg.is_supercommutative),
    }
    return result, fam


# -- derivation families ------------------------------------------------------


class DerivationFamily:
    """An independent, bracket-closed list of homogeneous derivations.

    Cochains are stored by their values on tuples from this family, so the
    family plays the role of a (generally non-spanning) frame on the space
    of derivations.  ``expand_strict`` writes a derivation in the frame.

    The member matrices are also kept sparsely, as their nonzero entries,
    and so is the bracket table once built."""

    def __init__(self, algebra: Superalgebra, members: list[Derivation]) -> None:
        self.algebra = algebra
        self.members = list(members)
        self.parities = np.array([x.parity for x in self.members], dtype=int)
        if not self.members:
            raise CalculusError("derivation family must not be empty")
        if any(x.algebra is not algebra for x in self.members):
            raise CalculusError("family member on a different algebra")
        self.matrices = np.array([x.matrix for x in self.members])
        for t in np.unique(self.parities):
            stack = self.matrices[self.parities == t]
            res = max_abs(superderivation_residuals(algebra, stack, t))
            if not res <= DERIVATION_TOL:
                raise CalculusError(
                    f"family member fails the derivation condition ({res:.3e})"
                )
        m = len(self.members)
        # (member, row, column, value) of every nonzero, in row-major order
        nz = np.nonzero(self.matrices)
        self._entries = nz + (self.matrices[nz],)
        self._flat = self.matrices.reshape(m, -1)
        # the matrix entries some member uses
        self._support = support = np.flatnonzero(np.any(self._flat != 0, axis=0))
        frame = self._flat[:, support]
        if numerical_rank(frame) != m:
            raise CalculusError("family members are linearly dependent")
        # members with disjoint supports are orthogonal, so the
        # pseudo-inverse is block diagonal over the connected components of
        # the (entry, member) graph, and zero off the support; its round-off
        # between components is set to the exact zero, which keeps
        # expansions (and the bracket table) as sparse as the family
        member, entry = np.nonzero(frame)
        comp = column_components(entry, member, m)
        entry_comp = np.empty(support.size, dtype=int)
        entry_comp[entry] = comp[member]
        pinv = np.linalg.pinv(frame.T)
        pinv[comp[:, None] != entry_comp[None, :]] = 0.0
        self._pinv = np.zeros_like(self._flat)
        self._pinv[:, support] = pinv
        self._bracket: np.ndarray | None = None
        # (pair i m + j, k, f[i, j, k]) of every nonzero of the bracket table
        self._bracket_entries: tuple | None = None
        self._star: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def inner_family(cls, alg: Superalgebra) -> "DerivationFamily":
        """Inner derivations of the basis elements, thinned to an independent
        set (the center contributes nothing and is dropped)."""
        derivs = [inner_derivation(alg, alg.basis_element(i)) for i in range(alg.dim)]
        keep = greedy_independent([d.matrix.reshape(-1) for d in derivs], 1e-14)
        members = [derivs[k] for k in keep]
        if not members:
            raise CalculusError(
                "no nonzero inner derivations (is the algebra supercommutative?)"
            )
        return cls(alg, members)

    def expand_strict(self, x: Derivation) -> np.ndarray:
        return self._expand_all_strict(x.matrix[None])[0]

    def combination(self, coeffs: np.ndarray, parity: int) -> Derivation:
        mat = np.tensordot(coeffs, self.matrices, axes=1)
        return Derivation(self.algebra, mat, parity)

    def _expand_all(self, mats: np.ndarray) -> tuple[np.ndarray, float]:
        """Coefficients (k, m) of a stack of k operators over the family and
        the worst expansion residual."""
        flat = mats.reshape(len(mats), -1)
        coeffs = flat @ self._pinv.T
        return coeffs, max_abs(coeffs @ self._flat - flat)

    def _expand_all_strict(self, mats: np.ndarray) -> np.ndarray:
        """Coefficients (k, m) of a stack of operators over the family;
        raises when the worst one lies outside the family by more than
        EXPAND_TOL."""
        coeffs, worst = self._expand_all(mats)
        if not worst <= EXPAND_TOL:
            raise CalculusError(f"derivation lies outside the family by {worst:.3e}")
        return coeffs

    @property
    def bracket(self) -> np.ndarray:
        """Structure constants f[i, j, k] with [X_i, X_j] = sum_k f[i,j,k] X_k.

        The commutators are formed from the sparse member matrices: every
        product of an entry (i, r, t) of X_i with an entry (j, t, c) of X_j
        adds to [X_i, X_j] and, times -(-1)**(e_i e_j), to [X_j, X_i].  Only
        the pairs whose commutator is not zero are expanded, a block of
        them at a time."""
        if self._bracket is None:
            m, n = len(self), self.algebra.dim
            mem, row, col, val = self._entries
            a, b = join(col, row)
            i, j = mem[a], mem[b]
            entry = row[a] * n + col[b]
            prod = val[a] * val[b]
            sign = koszul_signs(self.parities, self.parities)[i, j]
            key, total = sum_by_key(
                np.r_[(i * m + j) * n * n + entry, (j * m + i) * n * n + entry],
                np.r_[prod, -sign * prod],
            )
            live = total != 0
            pair, entry = np.divmod(key[live], n * n)
            total = total[live]
            # expanded on the support; a commutator entry off it is
            # residual as it stands
            support = self._support
            frame, pinv = self._flat[:, support], self._pinv[:, support]
            slot = np.full(n * n, -1)
            slot[support] = np.arange(support.size)
            slot = slot[entry]
            on = slot >= 0
            worst = max_abs(total[~on])
            pairs, at = np.unique(pair, return_inverse=True)
            f = np.zeros((m * m, m), dtype=complex)
            per = max(1, GATHER_ENTRIES // support.size)
            for lo in range(0, pairs.size, per):
                hi = min(lo + per, pairs.size)
                e0, e1 = np.searchsorted(at, [lo, hi])
                sel = np.flatnonzero(on[e0:e1]) + e0
                block = np.zeros((hi - lo, support.size), dtype=complex)
                block[at[sel] - lo, slot[sel]] = total[sel]
                coeffs = block @ pinv.T
                fit = coeffs @ frame
                fit -= block
                worst = np.maximum(worst, max_abs(fit))
                f[pairs[lo:hi]] = coeffs
            if not worst <= CLOSURE_TOL:
                raise CalculusError(f"family is not bracket closed ({worst:.3e})")
            f = f.reshape(m, m, m)
            nz = np.nonzero(f)
            self._bracket_entries = (nz[0] * m + nz[1], nz[2], f[nz])
            self._bracket = f
        return self._bracket

    @property
    def bracket_entries(self) -> tuple:
        """The nonzeros of the bracket table as (i m + j, k, f[i, j, k]),
        sorted."""
        self.bracket
        return self._bracket_entries

    @property
    def star_matrix(self) -> np.ndarray:
        """S with X_i* = sum_j S[j, i] X_j (gated expansion)."""
        if self._star is None:
            inv = self.algebra.involution_matrix
            stars = inv @ np.conj(self.matrices) @ np.conj(inv)
            self._star = self._expand_all_strict(stars).T
        return self._star


# -- cochains ------------------------------------------------------------------


def graded_permutation_sign(perm: tuple[int, ...], parities) -> int:
    """Combined permutation/Koszul sign for reordering homogeneous arguments.

    ``perm`` lists which original argument sits in each slot; ``parities``
    are the parities of the arguments in their original order.  Every
    adjacent swap of arguments with parities (a, b) contributes -(-1)**(a b),
    so a swap of two odd arguments costs +1 and every other swap costs -1.
    """
    seq = list(perm)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                a, b = seq[j], seq[j + 1]
                sign = -sign
                if parities[a] % 2 and parities[b] % 2:
                    sign = -sign
                seq[j], seq[j + 1] = b, a
    return sign


def parity_sector(family: DerivationFamily, degree: int, parity: int) -> np.ndarray:
    """Mask of the entries t[i_1, .., i_p, k] a cochain of this degree and
    parity may have nonzero: e_k has parity parity + e_i1 + .. + e_ip."""
    fp = family.parities
    total = parity + sum(np.ix_(*[fp] * degree))
    return (np.asarray(total)[..., None] + family.algebra.parity) % 2 == 0


class Cochain:
    """A graded-alternating p-linear map from a derivation family into the
    algebra, stored densely as values on every family index tuple.

    The tensor may also carry a stack of such maps, all of one degree and
    parity: its shape is then (m,) * p + S + (dim,), with the stack axes S
    between the argument slots and the algebra axis.  ``d``, ``interior``,
    ``lie_derivative``, ``pullback`` and ``star`` act on every member of
    the stack at once; a lone cochain is the empty stack S = ()."""

    def __init__(
        self,
        family: DerivationFamily,
        degree: int,
        parity: int,
        tensor: np.ndarray,
        check: bool = True,
    ) -> None:
        self.family = family
        self.degree = int(degree)
        self.parity = int(parity) % 2
        m = len(family)
        dim = family.algebra.dim
        t = np.asarray(tensor, dtype=complex)
        p = self.degree
        if t.ndim < p + 1 or t.shape[:p] != (m,) * p or t.shape[-1] != dim:
            raise CalculusError(f"cochain tensor has wrong shape {t.shape}")
        self.tensor = t
        if check:
            if not np.all(np.isfinite(t)):
                raise CalculusError("cochain tensor must be finite")
            res = self.symmetry_residual()
            if res > COCHAIN_TOL:
                raise CalculusError(f"tensor violates graded alternation by {res:.3e}")
            res = self._parity_residual()
            if res > COCHAIN_TOL:
                raise CalculusError(f"tensor violates parity bookkeeping by {res:.3e}")

    # -- bookkeeping checks

    def symmetry_residual(self) -> float:
        """Defect of  w(.., X, Y, ..) = -(-1)**(e_X e_Y) w(.., Y, X, ..)."""
        worst = 0.0
        fp = self.family.parities
        sign = np.where((fp[:, None] & fp[None, :]).astype(bool), 1.0, -1.0)
        for ax in range(self.degree - 1):
            swapped = np.swapaxes(self.tensor, ax, ax + 1)
            shape = [1] * self.tensor.ndim
            shape[ax] = len(fp)
            shape[ax + 1] = len(fp)
            worst = max(
                worst, max_abs(self.tensor - sign.reshape(shape) * swapped)
            )
        return worst

    @property
    def stack(self) -> tuple[int, ...]:
        """The shape of the stack axes; () for a lone cochain."""
        return self.tensor.shape[self.degree : -1]

    def _parity_residual(self) -> float:
        sector = parity_sector(self.family, self.degree, self.parity)
        sector = np.expand_dims(sector, tuple(range(self.degree, self.tensor.ndim - 1)))
        return max_abs(np.where(sector, 0.0, self.tensor))

    # -- construction helpers

    def member(self, k) -> "Cochain":
        """Entry k along the last stack axis (an index array or a slice: a stack)."""
        if not self.stack:
            raise CalculusError("a lone cochain has no stack members")
        t = self.tensor[..., k, :]
        return Cochain(self.family, self.degree, self.parity, t, check=False)

    @classmethod
    def basis(cls, family: DerivationFamily, degree: int, parity: int) -> "Cochain":
        """The graded-alternating cochains of one degree and parity as one
        basis stack: e_k on an index tuple i_1 <= .. <= i_p (repeating only
        odd members) and on its permutations, with their graded signs."""
        fp, m = family.parities, len(family)
        sector = parity_sector(family, degree, parity)
        units = [
            (idx, k)
            for idx in combinations_with_replacement(range(m), degree)
            if all(i < j or fp[i] for i, j in zip(idx, idx[1:]))
            for k in np.flatnonzero(sector[idx])
        ]
        t = np.zeros((m,) * degree + (len(units), family.algebra.dim), dtype=complex)
        for u, (idx, k) in enumerate(units):
            for perm in permutations(range(degree)):
                sign = graded_permutation_sign(perm, fp[list(idx)])
                t[tuple(idx[s] for s in perm) + (u, k)] = sign
        return cls(family, degree, parity, t)

    @classmethod
    def zero_form(cls, family: DerivationFamily, a: Element) -> "Cochain":
        """An algebra element viewed as a 0-cochain."""
        par = a.parity
        if par is None:
            raise CalculusError("0-form needs a homogeneous element")
        return cls(family, 0, par, a.coeffs.copy(), check=False)

    # -- arithmetic

    def _binary_check(self, other: "Cochain") -> None:
        if (
            other.family is not self.family
            or other.degree != self.degree
            or other.parity != self.parity
        ):
            raise CalculusError("cochain mismatch (family, degree or parity)")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._binary_check(other)
        return Cochain(
            self.family, self.degree, self.parity, self.tensor + other.tensor,
            check=False,
        )

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._binary_check(other)
        return Cochain(
            self.family, self.degree, self.parity, self.tensor - other.tensor,
            check=False,
        )

    def __mul__(self, scalar) -> "Cochain":
        return Cochain(
            self.family, self.degree, self.parity, complex(scalar) * self.tensor,
            check=False,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Cochain":
        return (-1.0) * self

    def norm(self) -> float:
        return max_abs(self.tensor)

    # -- involution and reality

    def star(self) -> "Cochain":
        """w*(X_1..X_p) = [w(X_1*, .., X_p*)]* (antilinear)."""
        s = self.family.star_matrix
        t = np.conj(self.tensor)
        for ax in range(self.degree):
            t = np.moveaxis(np.tensordot(np.conj(s), t, axes=(0, ax)), 0, ax)
        m = self.family.algebra.involution_matrix
        t = np.einsum("...a,ba->...b", t, m)
        return Cochain(self.family, self.degree, self.parity, t, check=False)

    def reality_residuals(self) -> dict:
        """max |w* - w| (real defect) and max |w* + w| (imaginary defect)."""
        st = self.star()
        return {
            "real": max_abs(st.tensor - self.tensor),
            "imaginary": max_abs(st.tensor + self.tensor),
        }


def _slot_parities(family: DerivationFamily, slots: int, ndim: int) -> list[np.ndarray]:
    """The family parities along each slot axis of a tensor of ``ndim`` axes
    with ``slots`` argument axes first; entry c broadcasts over every other
    axis."""
    fp = family.parities
    return [fp.reshape((1,) * c + (-1,) + (1,) * (ndim - 1 - c)) for c in range(slots)]


def _sign(exponent) -> np.ndarray:
    """(-1)**exponent, elementwise."""
    return 1.0 - 2.0 * (np.asarray(exponent) % 2)


@lru_cache(maxsize=None)
def _wedge_sign_tables(p: int, q: int, beta_parity: int) -> tuple:
    """For each permutation sigma of the p + q wedge arguments: the axis
    order that puts argument k in slot k (axis j of the product tensor holds
    argument sigma[j], so slot k reads axis sigma^-1(k)), and the wedge sign
    as a read-only table over the 2**(p+q) argument parity patterns."""
    n = p + q
    out = []
    for sigma in permutations(range(n)):
        table = np.empty((2,) * n)
        for pars in np.ndindex(*(2,) * n):
            carry = beta_parity * sum(pars[sigma[j]] for j in range(p))
            table[pars] = graded_permutation_sign(sigma, pars) * _sign(carry)
        table.setflags(write=False)
        out.append((tuple(np.argsort(sigma)), table))
    return tuple(out)


def wedge(alpha: Cochain, beta: Cochain) -> Cochain:
    """Graded wedge product; see the module docstring for the convention.
    Two stacks of one shape are wedged member by member."""
    if alpha.family is not beta.family:
        raise CalculusError("wedge needs a common derivation family")
    if alpha.stack != beta.stack:
        raise CalculusError(f"wedge needs one stack shape, not {alpha.stack} and {beta.stack}")
    fam, p, q = alpha.family, alpha.degree, beta.degree
    n, m, alg = p + q, len(fam), fam.algebra
    size, dim = int(np.prod(alpha.stack)), alg.dim
    # prod[s, j_1..j_p, l_1..l_q] = alpha_s(X_j..) beta_s(X_l..) in the
    # algebra for member s, from the multiplication matrices of the
    # lower-degree factor, so no intermediate outgrows the product
    a = alpha.tensor.reshape(m**p, size, dim).swapaxes(0, 1)
    b = beta.tensor.reshape(m**q, size, dim).swapaxes(0, 1)
    if p <= q:
        prod = alg.left_mult_matrix(a).reshape(size, -1, dim) @ b.swapaxes(1, 2)
        prod = prod.reshape(size, m**p, dim, m**q).swapaxes(2, 3)
    else:
        prod = a @ alg.right_mult_matrix(b).reshape(size, -1, dim).swapaxes(1, 2)
    # slots first and contiguous, so a permuted view reads whole (s, dim) runs
    prod = np.ascontiguousarray(prod.reshape(size, m**p, m**q, dim).transpose(1, 2, 0, 3))
    prod = prod.reshape((m,) * n + (size, dim))
    t = np.zeros(prod.shape, dtype=complex)
    for axes, table in _wedge_sign_tables(p, q, beta.parity):
        sign = table[np.ix_(*[fam.parities] * n)]
        moved = prod.transpose(*axes, n, n + 1)
        if np.all(sign == sign.flat[0]):
            # one sign for every index tuple: added in place
            (np.add if sign.flat[0] > 0 else np.subtract)(t, moved, out=t)
        else:
            t += sign[..., None, None] * moved
    t /= factorial(p) * factorial(q)
    t = t.reshape((m,) * n + alpha.stack + (dim,))
    return Cochain(fam, n, (alpha.parity + beta.parity) % 2, t, check=False)


def lie_derivative(y: Derivation, target):
    """L_Y acting on an element, a derivation or a cochain."""
    if isinstance(target, Element):
        return y(target)
    if isinstance(target, Derivation):
        return lie_bracket(y, target)
    omega: Cochain = target
    fam = omega.family
    if y.algebra is not fam.algebra:
        raise CalculusError("derivation and cochain live on different algebras")
    p = omega.degree
    # column i: family coefficients of [Y, X_i]
    signs = koszul_signs([y.parity], fam.parities)[0][:, None, None]
    brackets = y.matrix @ fam.matrices - (signs * fam.matrices) @ y.matrix
    b = fam._expand_all_strict(brackets).T
    out = np.einsum("...a,ba->...b", omega.tensor, y.matrix)
    e = _slot_parities(fam, p, omega.tensor.ndim)
    for j in range(p):
        tj = np.moveaxis(np.tensordot(b, omega.tensor, axes=(0, j)), 0, j)
        out = out - _sign(y.parity * (omega.parity + sum(e[:j]))) * tj
    return Cochain(fam, p, (omega.parity + y.parity) % 2, out, check=False)


def interior(x: Derivation, omega: Cochain) -> Cochain:
    """(i_X w)(X_1..X_{p-1}) = w(X, X_1, ..); on 0-forms the result is 0."""
    fam = omega.family
    out_par = (omega.parity + x.parity) % 2
    if omega.degree == 0:
        return Cochain(fam, 0, out_par, np.zeros_like(omega.tensor), check=False)
    vec = fam.expand_strict(x)
    t = np.tensordot(vec, omega.tensor, axes=(0, 0))
    return Cochain(fam, omega.degree - 1, out_par, t, check=False)


# Largest slice of a differential, in entries, formed at once: d(omega) is
# computed slice by slice of its first slot.  d of a 2-cochain on M5
# (24**3 * 25 entries) is one slice.
_CHUNK_ENTRIES = 1 << 19


def _parity_sum(slot_par: list[np.ndarray], rest: list[int], over) -> np.ndarray:
    """The sum of the parities of the slots ``over``, broadcasting over the
    axes (key, *rest): slot s runs along the axis of its place in rest."""
    total = np.zeros((1,) * (len(rest) + 1), dtype=int)
    for q, slot in enumerate(rest):
        if slot in over:
            shape = [1] * (len(rest) + 1)
            shape[q + 1] = -1
            total = total + slot_par[slot].reshape(shape)
    return total


def _scatter(
    t: np.ndarray, axes: tuple, index: tuple, sums: np.ndarray,
    base: int, odd: np.ndarray, exponent: np.ndarray,
) -> None:
    """t[index on its ``axes``] += (-1)**(base + odd * exponent) * sums,
    with one row of sums per index tuple, running over the other axes of t
    in order; ``odd`` is 0 or 1 per row, ``exponent`` broadcasts over
    (row, *other slot axes) and is None when no row is odd."""
    view = t.transpose(axes + tuple(i for i in range(t.ndim) if i not in axes))
    update = sums.reshape((-1,) + view.shape[len(axes):])
    if exponent is not None and odd.any() and (exponent % 2).any():
        sign = np.where(odd.reshape((-1,) + (1,) * (exponent.ndim - 1)), _sign(exponent), 1.0)
        update = update * sign.reshape(sign.shape + (1,) * (update.ndim - sign.ndim))
    if base % 2:
        view[index] -= update
    else:
        view[index] += update


def differential_chunks(omega: Cochain):
    """The tensor of d(omega), one slice t[lo:hi] of its first slot at a
    time, each of at most ``_CHUNK_ENTRIES`` entries (or one row).

    The terms are those of the module docstring, contracted through the
    sparse member matrices and the sparse bracket table of the family.  In
    a slice, the action term in slot 0 applies members lo..hi to omega, and
    those in slots 1..p apply every member to omega[lo:hi], one product for
    all of them (and for slot 0 too when the slice is the whole first
    slot).  The bracket terms w([X_a, X_b], ..) contract slot a of
    omega (omega[lo:hi] when a > 0, table rows lo..hi when a = 0) once per
    a, shared by every b.  Each term is added, signed, only at the entries
    its sparse product reaches."""
    fam = omega.family
    p, par = omega.degree, omega.parity
    m, n = len(fam), fam.algebra.dim
    fp = fam.parities
    if p:
        pair, k, fval = fam.bracket_entries
    mem, row, col, val = fam._entries
    act_key = mem * n + row
    graded = bool(fp.any())
    w = omega.tensor
    step = max(1, _CHUNK_ENTRIES // w.size)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        t = np.zeros((hi - lo,) + w.shape, dtype=complex)
        slot_par = [fp[lo:hi]] + [fp] * p
        # action in slot a: X_ia(w(other arguments)), with a_i of the
        # docstring.  Slot 0 applies members lo..hi to w and slots 1..p
        # every member to w[lo:hi], with w's algebra axis first: one product
        # when the slice is the whole first slot.
        whole = hi - lo == m
        e0, e1 = np.searchsorted(mem, [lo, hi])
        products = [(range(p + 1) if whole else (0,), e0, e1, w)]
        if p and not whole:
            products.append((range(1, p + 1), 0, mem.size, w[lo:hi]))
        for slots, e0, e1, src in products:
            for key, sums in segment_sums(act_key[e0:e1], col[e0:e1], val[e0:e1], src.reshape(-1, n).T):
                x, r = np.divmod(key, n)
                for a in slots:
                    rest = [s for s in range(p + 1) if s != a]
                    exponent = par + _parity_sum(slot_par, rest, range(a)) if graded else None
                    _scatter(t, (a, t.ndim - 1), (x - lo if a == 0 else x, r), sums, a, fp[x], exponent)
        # bracket terms: w([X_ia, X_ib], other arguments), with b_ij
        for a in range(p):
            if a == 0:
                f0, f1 = np.searchsorted(pair, [lo * m, hi * m])
                entries = (pair[f0:f1] - lo * m, k[f0:f1], fval[f0:f1])
                src = w.reshape(m, -1)
            else:
                entries = (pair, k, fval)
                src = np.moveaxis(w[lo:hi], a, 0).reshape(m, -1)
            for key, sums in segment_sums(*entries, src):
                x, y = np.divmod(key, m)
                for b in range(a + 1, p + 1):
                    rest = [s for s in range(p + 1) if s not in (a, b)]
                    exponent = _parity_sum(slot_par, rest, range(a + 1, b)) if graded else None
                    _scatter(t, (a, b), (x, y), sums, b, fp[y], exponent)
        yield t


def exterior_derivative(omega: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential with the graded weights of the
    module docstring: the slices of :func:`differential_chunks`, joined."""
    parts = list(differential_chunks(omega))
    t = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return Cochain(omega.family, omega.degree + 1, omega.parity, t, check=False)


def random_cochain(
    family: DerivationFamily,
    degree: int,
    parity: int,
    rng: np.random.Generator,
) -> Cochain:
    """A random cochain of the requested degree and parity.

    Degree 0 and 1 are sampled entrywise; higher degrees are assembled from
    wedges and exterior derivatives of lower ones so that graded alternation
    holds by construction.
    """
    alg = family.algebra
    if degree == 0:
        return Cochain.zero_form(family, alg.sample_element(rng, parity=parity))
    if degree == 1:
        m = len(family)
        t = rng.standard_normal((m, alg.dim)) + 1j * rng.standard_normal((m, alg.dim))
        t[~parity_sector(family, 1, parity)] = 0.0
        return Cochain(family, 1, parity, t)
    a = random_cochain(family, 1, 0, rng)
    b = random_cochain(family, degree - 1, parity, rng)
    out = wedge(a, b)
    if degree == 2:
        out = out + exterior_derivative(random_cochain(family, 1, parity, rng))
    return out


# -- isomorphisms and pullback -----------------------------------------------------


class AlgebraIsomorphism:
    """An invertible, unit- and grading-preserving *-homomorphism given by
    its coefficient matrix."""

    def __init__(
        self,
        source: Superalgebra,
        target: Superalgebra,
        matrix: np.ndarray,
    ) -> None:
        self.source = source
        self.target = target
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.shape != (target.dim, source.dim):
            raise CalculusError("isomorphism matrix has wrong shape")
        if source.dim != target.dim:
            raise CalculusError("isomorphic algebras must have equal dimension")
        self._inv: np.ndarray | None = None
        worst = max(self.verification_residuals().values())
        if worst > ISOMORPHISM_TOL:
            raise CalculusError(f"not a *-isomorphism, worst defect {worst:.3e}")

    def verification_residuals(self) -> dict:
        p = self.matrix
        src, tgt = self.source, self.target
        s = np.linalg.svd(p, compute_uv=False)
        if s[-1] < 1e-12 * s[0]:
            raise CalculusError("isomorphism matrix is singular")
        grading = max_abs(
            np.where(tgt.parity[:, None] != src.parity[None, :], p, 0.0)
        )
        return {
            "multiplicative": max_abs(multiplicativity_defect(src, p, tgt)),
            "unit": max_abs(p @ src.unit_coeffs - tgt.unit_coeffs),
            "star": max_abs(
                p @ src.involution_matrix - tgt.involution_matrix @ np.conj(p)
            ),
            "grading": float(grading),
        }

    @property
    def inverse_matrix(self) -> np.ndarray:
        if self._inv is None:
            self._inv = np.linalg.inv(self.matrix)
        return self._inv

    def __call__(self, a: Element) -> Element:
        if a.algebra is not self.source:
            raise CalculusError("element not in the source algebra")
        return Element(self.target, self.matrix @ a.coeffs)

    @classmethod
    def unitary_conjugation(cls, alg: Superalgebra, u: np.ndarray) -> "AlgebraIsomorphism":
        """A -> U A U^-1 on an algebra with a matrix realization."""
        u = np.asarray(u, dtype=complex)
        uinv = np.linalg.inv(u)
        cols = [
            alg.coeffs_from_matrix(u @ alg.rep_basis[i] @ uinv)
            for i in range(alg.dim)
        ]
        return cls(alg, alg, np.array(cols).T)


def multiplicativity_defect(src: Superalgebra, p: np.ndarray, tgt: Superalgebra) -> np.ndarray:
    """d[i, j, k], the coefficient of e_k in P(e_i e_j) - (P e_i)(P e_j),
    for the linear map with columns P[:, i] = P e_i from ``src`` to ``tgt``,
    from the nonzero constants of ``src`` and the products in ``tgt``."""
    c = src.constants
    image = np.zeros((src.dim, src.dim, tgt.dim), dtype=complex)
    np.add.at(image, (c.i, c.j), c.v[:, None] * p[:, c.k].T)
    return image - (tgt.left_mult_matrix(p.T) @ p).transpose(0, 2, 1)


def pullback(iso: AlgebraIsomorphism, omega: Cochain) -> Cochain:
    """(phi* w)(X_1..X_p) = phi^{-1}[ w(phi_* X_1, .., phi_* X_p) ] for an
    automorphism phi; the result lives on the family of w."""
    if omega.family.algebra is not iso.target:
        raise CalculusError("cochain does not live on the isomorphism target")
    if iso.source is not iso.target:
        raise CalculusError("pullback needs an automorphism")
    fam = omega.family
    # column i: coefficients of phi_* X_i over the family
    pushed = iso.matrix @ fam.matrices @ iso.inverse_matrix
    s = fam._expand_all_strict(pushed).T
    t = omega.tensor
    for ax in range(omega.degree):
        t = np.moveaxis(np.tensordot(s, t, axes=(0, ax)), 0, ax)
    t = np.einsum("...a,ba->...b", t, iso.inverse_matrix)
    return Cochain(fam, omega.degree, omega.parity, t, check=False)
