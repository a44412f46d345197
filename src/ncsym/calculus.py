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
their fixed cost is paid once per stack, and ``wedge`` wedges every
member of one stack with every member of the other, an outer product whose
stack is the two stacks joined.  L and i act along the family itself,
every member X_a at once: the members become a new first stack axis, the
Koszul signs are broadcast over it, and [X_a, X_i] is read from the
family's bracket table.  L_Y and i_Y along one derivation Y in the span of
the family are the sums over a of c_a L_{X_a} and c_a i_{X_a}, with c the
family coefficients of Y.

Sign conventions (all checked by the test suite):

* permuting arguments:  omega(X_s(1), .., X_s(p)) picks up the permutation
  sign times (-1)**(e_j e_k) for every transposed pair of odd arguments;
  adjacent swaps of odd-odd pairs are therefore symmetric.
* wedge:  (a ^ b)(X_1..X_{p+q}) = sum over the (p, q) shuffles (permutations
  increasing on the first p and on the last q arguments) of the graded
  permutation sign, an extra (-1)**(e_b * sum of the parities of the first p
  permuted arguments), and the product a(..) b(..).  Both factors are graded
  alternating, so this equals 1/(p! q!) times the same sum over all
  permutations.
* Lie derivative on forms:  (L_Y w)(X_1..X_p) = Y[w(X_1..X_p)] minus the sum
  of w evaluated with [Y, X_i] in slot i, each weighted by
  (-1)**(e_Y (e_w + e_X1 + .. + e_X(i-1))).
* interior product:  (i_X w)(X_1..X_{p-1}) = w(X, X_1, ..) with no sign.
* exterior derivative: the usual alternating-sum formula with graded weights
  a_i = e_Xi (e_w + sum of earlier argument parities) on the action terms and
  b_ij = e_Xj (parities strictly between i and j) on the bracket terms.

Sign tables and packed values: ``exterior_derivative`` and ``wedge`` never
loop over index tuples.  ``wedge`` forms the product of its factors once,
from the multiplication matrices of the one with fewer entries (slots times
stack); each term moves it into its argument slots and multiplies it by a
sign tensor.  The wedge signs depend on an index tuple only through its
parity pattern, so each shuffle gets a table over the 2**(p+q) patterns,
filled by ``graded_permutation_sign`` once per (p, q, parity of the second
factor) and indexed by the family parities on every call.

A graded-alternating cochain is fixed by its packed values, those on the
sorted argument tuples (an index repeats only when its member is odd).
``_argument_tuples`` lists them and gives every tuple the row of its sorted
tuple and the graded sign of the sort, so unpacking is one gather and one
sign; ``Cochain.basis`` and ``random_cochain`` unpack packed values.
``differential_chunks`` computes d only at the sorted tuples, a block of
value components at a time: the action terms take, per slot, whole rows of
one product of the packed values with the family matrices, the bracket
terms, per slot pair, whole rows of one product of the nonzero rows of the
bracket table with w's first slot, each signed by (-1)**(a + a_i) or
(-1)**(b + b_ij) read from cached gather tables.  ``exterior_derivative`` unpacks the
blocks; the closedness check of a symplectic form takes their maximum.

The inner family, its Leibniz check and its bracket run on sparse
operators, as the structure constants and the family matrices are mostly
zeros (0.8% and 1.5% nonzero on M5): ``inner_family`` scatters every inner
derivation from the supercommutator table at once and thins them by a QR,
the Leibniz check (:mod:`ncsym.leibniz`) joins the members' nonzero entries
with the nonzero constants, and ``DerivationFamily.bracket`` forms the
commutators from them.  One SVD of the frame gives its rank and pseudo-inverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from ._linalg import (
    GATHER_ENTRIES,
    column_components,
    greedy_independent,
    join,
    max_abs,
    rank_and_pinv,
    sum_by_key,
)
from .algebra import Element, Superalgebra, koszul_signs
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


def _special_evidence(alg: Superalgebra) -> tuple[dict, DerivationFamily | None]:
    """Whether the algebra is 'special': its graded center is the scalars
    and every superderivation is inner, which is checked by comparing the
    superderivation-space dimension with dim - 1.  Returns the evidence dict
    and the inner family it counted (None on a supercommutative algebra)."""
    z0, z1 = alg.graded_center()
    sc = bool(alg.is_supercommutative)
    sder = None if sc else superderivation_dims(alg)
    fam = None if sc else DerivationFamily.inner_family(alg)
    inner_dim = 0 if sc else len(fam)
    special = not sc and len(z0) == 1 and len(z1) == 0 and (
        inner_dim == alg.dim - 1 == sder["even"] + sder["odd"])
    result = {
        "special": special,
        "center_dims": [len(z0), len(z1)],
        "superderivation_dims": None if sc else [sder["even"], sder["odd"]],
        "inner_dim": inner_dim,
        "supercommutative": sc,
    }
    return result, fam


# -- derivation families ------------------------------------------------------


class DerivationFamily:
    """An independent, bracket-closed list of homogeneous derivations.

    Cochains are stored by their values on tuples from this family, so the
    family plays the role of a (generally non-spanning) frame on the space
    of derivations; L and i act along it (see :func:`lie_derivative`).

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
        rank, pinv = rank_and_pinv(frame.T)
        if rank != m:
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
        pinv[comp[:, None] != entry_comp[None, :]] = 0.0
        self._pinv = np.zeros_like(self._flat)
        self._pinv[:, support] = pinv

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def inner_family(cls, alg: Superalgebra) -> "DerivationFamily":
        """Inner derivations B -> [e_i, B] of the basis elements, read from the
        supercommutator table in one scatter and thinned to an independent
        set (the center contributes nothing and is dropped)."""
        mats = alg.commutator_constants.left_mult(np.eye(alg.dim))
        keep = greedy_independent(mats.reshape(alg.dim, -1), 1e-14)
        members = [Derivation(alg, mats[i], alg.parity[i], alg.basis_element(i)) for i in keep]
        if not members:
            raise CalculusError(
                "no nonzero inner derivations (is the algebra supercommutative?)"
            )
        return cls(alg, members)

    def combination(self, coeffs: np.ndarray, parity: int) -> Derivation:
        mat = np.tensordot(coeffs, self.matrices, axes=1)
        return Derivation(self.algebra, mat, parity)

    def _expand_all_strict(self, mats: np.ndarray) -> np.ndarray:
        """Coefficients (k, m) of a stack of k operators over the family;
        raises when the worst one lies outside the family by more than
        EXPAND_TOL."""
        flat = mats.reshape(len(mats), -1)
        coeffs = flat @ self._pinv.T
        worst = max_abs(coeffs @ self._flat - flat)
        if not worst <= EXPAND_TOL:
            raise CalculusError(f"derivation lies outside the family by {worst:.3e}")
        return coeffs

    @cached_property
    def bracket(self) -> np.ndarray:
        """Structure constants f[i, j, k] with [X_i, X_j] = sum_k f[i,j,k] X_k.

        The commutators are formed from the sparse member matrices: every
        product of an entry (i, r, t) of X_i with an entry (j, t, c) of X_j
        adds to [X_i, X_j] and, times -(-1)**(e_i e_j), to [X_j, X_i].  Only
        the pairs whose commutator is not zero are expanded, a block of
        them at a time."""
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
        return f.reshape(m, m, m)

    @cached_property
    def star_matrix(self) -> np.ndarray:
        """S with X_i* = sum_j S[j, i] X_j (gated expansion)."""
        inv = self.algebra.involution_matrix
        stars = inv @ np.conj(self.matrices) @ np.conj(inv)
        return self._expand_all_strict(stars).T


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


@lru_cache(maxsize=None)
def _argument_tuples(parities: tuple, q: int) -> tuple:
    """The sorted q-tuples of family indices in ``Cochain.basis`` order (an
    index repeats only when its member is odd), (N, q), and their row-major
    positions; and for every q-tuple, row-major, the row of its sorted tuple
    and the graded sign of the sort (0 where an even member repeats), so
    that w(tuple) = sign * packed[row].  Read-only."""
    # small integer types, as the table spans all m**q tuples
    m, fp = len(parities), np.array(parities, dtype=np.int8)
    every = np.indices((m,) * q, dtype=np.int16).reshape(q, m**q).T
    exponent = np.zeros(m**q, dtype=np.int8)
    valid = np.ones(m**q, dtype=bool)
    for i, j in combinations(range(q), 2):
        a, b = every[:, i], every[:, j]
        # an inversion costs -(-1)**(e_a e_b); an even member may not repeat
        exponent += (a > b) * (1 + fp[a] * fp[b])
        valid &= (a != b) | (fp[a] == 1)
    flat = np.sort(every, axis=1) @ m ** np.arange(q - 1, -1, -1)
    at = np.flatnonzero(valid & (flat == np.arange(m**q)))
    # a tuple that repeats an even member sorts to no row: row 0, sign 0
    rank = np.zeros(m**q, dtype=np.int32)
    rank[at] = np.arange(at.size)
    out = (every[at].astype(np.int32), at, rank[flat], _sign(exponent) * valid)
    for a in out:
        a.setflags(write=False)
    return out


def _unpack(family: DerivationFamily, degree: int, packed: np.ndarray) -> np.ndarray:
    """The tensor (m,) * degree + rest of the graded-alternating cochains
    whose packed values are ``packed``, shape (N,) + rest."""
    row, sign = _argument_tuples(tuple(family.parities), degree)[2:]
    if not len(packed):  # every tuple repeats an even member
        return np.zeros((len(family),) * degree + packed.shape[1:], dtype=complex)
    t = packed[row]
    t *= sign.reshape((-1,) + (1,) * (t.ndim - 1))
    return t.reshape((len(family),) * degree + packed.shape[1:])


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
        basis stack: e_k on a sorted index tuple (repeating only odd
        members) and on its permutations, with their graded signs; the
        unpacked identity on the packed values of the parity sector."""
        at = _argument_tuples(tuple(family.parities), degree)[1]
        dim = family.algebra.dim
        tup, k = np.nonzero(parity_sector(family, degree, parity).reshape(-1, dim)[at])
        units = np.zeros((at.size, tup.size, dim), dtype=complex)
        units[tup, np.arange(tup.size), k] = 1.0
        return cls(family, degree, parity, _unpack(family, degree, units))

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
        fam = self.family
        t = _transform_slots(
            np.conj(self.tensor), self.degree, np.conj(fam.star_matrix),
            fam.algebra.involution_matrix,
        )
        return Cochain(fam, self.degree, self.parity, t, check=False)

    def reality_residuals(self) -> dict:
        """max |w* - w| (real defect) and max |w* + w| (imaginary defect)."""
        st = self.star()
        return {
            "real": max_abs(st.tensor - self.tensor),
            "imaginary": max_abs(st.tensor + self.tensor),
        }


def _transform_slots(t: np.ndarray, degree: int, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A cochain tensor with X_i -> sum_j s[i, j] X_j in each of its
    ``degree`` slots and the algebra map v on its value axis."""
    for ax in range(degree):
        t = np.moveaxis(np.tensordot(s, t, axes=(0, ax)), 0, ax)
    return t @ v.T


def _slot_parities(family: DerivationFamily, slots: int, ndim: int) -> list[np.ndarray]:
    """The family parities along each slot axis of a tensor of ``ndim`` axes
    with ``slots`` argument axes first; entry c broadcasts over every other
    axis."""
    fp = family.parities
    return [fp.reshape((1,) * c + (-1,) + (1,) * (ndim - 1 - c)) for c in range(slots)]


def _sign(exponent) -> np.ndarray:
    """(-1)**exponent, elementwise, as int8: sign tables stay small."""
    return (1 - 2 * (np.asarray(exponent) % 2)).astype(np.int8)


@lru_cache(maxsize=None)
def _wedge_sign_tables(p: int, q: int, beta_parity: int) -> tuple:
    """For each (p, q) shuffle sigma of the p + q wedge arguments: the axis
    order that puts argument k in slot k (axis j of the product tensor holds
    argument sigma[j], so slot k reads axis sigma^-1(k)), and the wedge sign
    as a read-only table over the 2**(p+q) argument parity patterns."""
    n = p + q
    out = []
    for first in combinations(range(n), p):
        sigma = first + tuple(k for k in range(n) if k not in first)
        table = np.empty((2,) * n)
        for pars in np.ndindex(*(2,) * n):
            carry = beta_parity * sum(pars[sigma[j]] for j in range(p))
            table[pars] = graded_permutation_sign(sigma, pars) * _sign(carry)
        table.setflags(write=False)
        out.append((tuple(np.argsort(sigma)), table))
    return tuple(out)


def wedge(alpha: Cochain, beta: Cochain) -> Cochain:
    """Graded wedge product; see the module docstring for the convention.
    Every member of alpha's stack is wedged with every member of beta's:
    the result's stack is alpha.stack + beta.stack (a lone cochain is the
    empty stack)."""
    if alpha.family is not beta.family:
        raise CalculusError("wedge needs a common derivation family")
    fam, p, q = alpha.family, alpha.degree, beta.degree
    n, m, alg = p + q, len(fam), fam.algebra
    sa, sb, dim = int(np.prod(alpha.stack)), int(np.prod(beta.stack)), alg.dim
    # prod[x, y] = a_x b_y in the algebra for every row x of alpha and y of
    # beta (rows: slots, then stack), from the multiplication matrices of the
    # factor with fewer rows, so no intermediate outgrows the product
    a, b = alpha.tensor.reshape(-1, dim), beta.tensor.reshape(-1, dim)
    if len(a) <= len(b):
        prod = alg.left_mult_matrix(a).reshape(-1, dim) @ b.T
        prod = prod.reshape(len(a), dim, len(b)).swapaxes(1, 2)
    else:
        prod = a @ alg.right_mult_matrix(b).reshape(-1, dim).T
    # slots first, then the two stacks, contiguous, so a permuted view reads
    # whole (stack, dim) runs
    prod = prod.reshape(m**p, sa, m**q, sb, dim).transpose(0, 2, 1, 3, 4)
    prod = np.ascontiguousarray(prod).reshape((m,) * n + (sa * sb, dim))
    t = np.zeros(prod.shape, dtype=complex)
    for axes, table in _wedge_sign_tables(p, q, beta.parity):
        sign = table[np.ix_(*[fam.parities] * n)]
        moved = prod.transpose(*axes, n, n + 1)
        if np.all(sign == sign.flat[0]):
            # one sign for every index tuple: added in place
            (np.add if sign.flat[0] > 0 else np.subtract)(t, moved, out=t)
        else:
            t += sign[..., None, None] * moved
    t = t.reshape((m,) * n + alpha.stack + beta.stack + (dim,))
    return Cochain(fam, n, (alpha.parity + beta.parity) % 2, t, check=False)


def _along(y, omega: Cochain) -> np.ndarray | None:
    """The family coefficients c of one derivation y, gated at EXPAND_TOL,
    or None when y is the family of omega itself; raises for another family
    or a derivation of another algebra."""
    fam = omega.family
    if isinstance(y, DerivationFamily):
        if y is not fam:
            raise CalculusError("L and i act along the family of the cochain")
        return None
    if y.algebra is not fam.algebra:
        raise CalculusError("derivation and cochain live on different algebras")
    return fam._expand_all_strict(y.matrix[None])[0]


def lie_derivative(y, omega: Cochain, parity=None):
    """L_Y on a cochain w, along the family of w or along one derivation.

    With ``y`` the family of w, the result is the tensor of L_{X_a} w for
    every member a, with a as a new first stack axis, shape
    (m,) * p + (m,) + S + (dim,); [X_a, X_i] comes from the family's
    bracket table.  ``parity``, when given, is the parity of w per stack
    entry (an int array broadcast over S) in place of ``omega.parity``, as
    for the stack of L_{X_b} v, whose entry b has parity e_v + e_b.  With
    ``y`` one derivation in the span of the family, the result is the
    cochain L_Y w = sum_a c_a L_{X_a} w."""
    c = _along(y, omega)
    fam, p = omega.family, omega.degree
    if c is not None:
        t = np.tensordot(c, lie_derivative(fam, omega, parity), axes=(0, p))
        return Cochain(fam, p, omega.parity + y.parity, t, check=False)
    t = omega.tensor
    m, n = len(fam), t.shape[-1]
    # X_a(w(X_1..X_p)) for every a; the member axis joins the stack in front
    out = np.matmul(t.reshape(m**p, 1, -1, n), fam.matrices.transpose(0, 2, 1))
    out = out.reshape(t.shape[:p] + (m,) + t.shape[p:])
    # the Koszul slot signs, broadcast over the members (e_a) and over the
    # stack (the parity of w)
    e = _slot_parities(fam, p, out.ndim)
    par = np.asarray(omega.parity if parity is None else parity)
    par = par.reshape((1,) * (out.ndim - 1 - par.ndim) + par.shape + (1,))
    ya = fam.parities.reshape((1,) * p + (m,) + (1,) * (out.ndim - p - 1))
    bracket = fam.bracket.reshape(m * m, m)
    for j in range(p):
        # w with [X_a, X_i] in slot j, for every a and i: one product
        tj = bracket @ np.moveaxis(t, j, 0).reshape(m, -1)
        tj = np.moveaxis(tj.reshape((m, m) + t.shape[:j] + t.shape[j + 1 :]), (0, 1), (p, j))
        exponent = ya * (par + sum(e[:j]))
        if (exponent % 2).any():
            tj *= _sign(exponent)
        out -= tj
    return out


def interior(y, omega: Cochain):
    """(i_Y w)(X_1..X_{p-1}) = w(Y, X_1, ..); on 0-forms the result is 0.

    With ``y`` the family of w, the result is the tensor of i_{X_a} w for
    every member a, with a as a new first stack axis: w's first slot moved
    onto the stack, as a copy, so that adding into it leaves w alone.  With
    ``y`` one derivation in the span of the family, the result is the
    cochain i_Y w = sum_a c_a i_{X_a} w."""
    c = _along(y, omega)
    fam, q = omega.family, max(omega.degree - 1, 0)
    if c is not None:
        t = np.tensordot(c, interior(fam, omega), axes=(0, q))
        return Cochain(fam, q, omega.parity + y.parity, t, check=False)
    if omega.degree == 0:
        return np.zeros((len(fam),) + omega.tensor.shape, dtype=complex)
    return np.moveaxis(omega.tensor, 0, q).copy()


# Largest differential of a stack, in entries: the calculus battery sizes
# its stacks by it, and d forms its products with the m family matrices in
# blocks of at most _CHUNK_ENTRIES / m entries (or one value component).
_CHUNK_ENTRIES = 1 << 19


@lru_cache(maxsize=None)
def _differential_tables(parities: tuple, p: int, parity: int) -> tuple:
    """Gather tables for d of a degree-p cochain of this parity at the sorted
    (p+1)-tuples J: the positions of the sorted p- and (p-1)-tuples; per
    slot a, j_a, the row of J without a and (-1)**(a + a_i); per slot pair
    a < b, j_a, j_b, the row of J without a and b, and (-1)**(b + b_ij)
    times the sign that moves [X_ja, X_jb] (parity e_a + e_b) from slot a
    to the front.  Read-only."""
    m, fp = len(parities), np.array(parities, dtype=int)
    tuples = _argument_tuples(parities, p + 1)[0]
    e = fp[tuples]
    before = np.cumsum(e, axis=1) - e  # the parities of the earlier slots

    def row_without(slots):
        rest = np.delete(tuples, slots, axis=1)
        row = _argument_tuples(parities, rest.shape[1])[2]
        return row[rest @ m ** np.arange(rest.shape[1] - 1, -1, -1)]

    act = tuple(
        (tuples[:, a], row_without([a]), _sign(a + e[:, a] * (parity + before[:, a])))
        for a in range(p + 1)
    )
    brk = tuple(
        (tuples[:, a], tuples[:, b], row_without([a, b]), _sign(
            b + e[:, b] * (before[:, b] - before[:, a + 1]) + a + (e[:, a] + e[:, b]) * before[:, a]
        ))
        for a, b in combinations(range(p + 1), 2)
    )
    first = _argument_tuples(parities, p - 1)[1] if p else None
    for arrays in act + brk:
        for a in arrays:
            a.setflags(write=False)
    return _argument_tuples(parities, p)[1], first, act, brk


def differential_chunks(omega: Cochain):
    """The packed values of d(omega), rows the sorted (p+1)-tuples, one block
    of value components at a time: arrays (rows,) + stack + (components,).
    The terms are those of the module docstring, summed in its order and
    gathered as it describes; a block's products with the m members hold at
    most ``_CHUNK_ENTRIES / m`` entries, or one component."""
    fam, p = omega.family, omega.degree
    m, n = len(fam), fam.algebra.dim
    at, first_at, act, brk = _differential_tables(tuple(fam.parities), p, omega.parity)
    w = omega.tensor
    rest = w.shape[p:]
    width = int(np.prod(rest[:-1]))
    values = w.reshape((m**p,) + rest)[at].reshape(-1, n)
    # each term takes whole (width, components) rows of a block product,
    # ordered (row, member) for the act terms, (live pair, row) for brackets
    terms = [(r * m + x, s[:, None]) for x, r, s in act]
    pairs = []
    if brk:
        first = w.reshape((m, m ** (p - 1)) + rest)[:, first_at]
        f = fam.bracket.reshape(m * m, m)
        live = np.flatnonzero(f.any(axis=1))
        f = f[live]
        pos = np.full(m * m, -1)
        pos[live] = np.arange(live.size)
        for ja, jb, t, s in brk:
            i = pos[ja * m + jb]
            on = np.flatnonzero(i >= 0)
            pairs.append((on, i[on] * first_at.size + t[on], s[on, None]))
    per = max(1, _CHUNK_ENTRIES // max(1, m * m * len(values)))
    for lo in range(0, n, per):
        comps = slice(lo, lo + per)
        mats = fam.matrices[:, comps]
        c = mats.shape[1]
        prod = (values @ mats.reshape(-1, n).T).reshape(at.size, width, m, c)
        prod = prod.swapaxes(1, 2).reshape(at.size * m, width * c)
        out = np.zeros((act[0][0].size, width * c), dtype=complex)
        for rows, s in terms:
            term = prod.take(rows, axis=0)
            term *= s
            out += term
        if pairs:
            g = first[..., comps]
            prod = (f @ g.reshape(m, -1)).reshape(-1, width * c)
            for on, rows, s in pairs:
                out[on] += s * prod.take(rows, axis=0)
        yield out.reshape(out.shape[:1] + rest[:-1] + (c,))


def exterior_derivative(omega: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential with the graded weights of the
    module docstring: the blocks of :func:`differential_chunks`, joined and
    unpacked."""
    fam, p = omega.family, omega.degree
    rows = len(_argument_tuples(tuple(fam.parities), p + 1)[0])
    packed = np.empty((rows,) + omega.tensor.shape[p:], dtype=complex)
    lo = 0
    for part in differential_chunks(omega):
        packed[..., lo : lo + part.shape[-1]] = part
        lo += part.shape[-1]
    return Cochain(fam, p + 1, omega.parity, _unpack(fam, p + 1, packed), check=False)


def random_cochain(
    family: DerivationFamily,
    degree: int,
    parity: int,
    rng: np.random.Generator,
) -> Cochain:
    """A random cochain of the requested degree and parity: standard complex
    normals on the sorted argument tuples (its packed values), zero off the
    parity sector, unpacked."""
    at = _argument_tuples(tuple(family.parities), degree)[1]
    dim = family.algebra.dim
    shape = (at.size, dim)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values[~parity_sector(family, degree, parity).reshape(-1, dim)[at]] = 0.0
    return Cochain(family, degree, parity, _unpack(family, degree, values), check=False)


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

    @cached_property
    def inverse_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

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
    t = _transform_slots(omega.tensor, omega.degree, s, iso.inverse_matrix)
    return Cochain(fam, omega.degree, omega.parity, t, check=False)
