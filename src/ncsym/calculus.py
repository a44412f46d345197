"""Superderivations, graded cochain calculus and algebra isomorphisms.

A derivation of parity r is a linear map X on the algebra with

    X(AB) = X(A) B + (-1)**(r e_A) A X(B)

stored as a matrix acting on coefficient vectors.  Cochains of degree p are
graded-alternating p-linear maps from derivations to the algebra; they are
represented densely by their values on every index tuple of a fixed
derivation family, a tensor of shape (m, .., m, dim).

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

Sign tensors: ``exterior_derivative`` and ``wedge`` never loop over index
tuples.  Each term is one contraction of whole tensors, moved into its
argument slots, times a sign tensor built by broadcasting the family
parities along the slot axes, e.g. (-1)**(a + a_i) for the action term in
slot a.  The wedge signs depend on an index tuple only through its parity
pattern, so each permutation gets a table over the 2**(p+q) patterns,
filled by ``graded_permutation_sign`` once per (p, q, parity of the second
factor) and indexed by the family parities on every call.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import factorial

import numpy as np

from ._linalg import (
    RANK_RTOL,
    greedy_independent,
    left_action,
    max_abs,
    multiplicativity_defect,
    numerical_rank,
    sum_by_key,
)
from .algebra import Element, Superalgebra, koszul_sign, koszul_signs

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


def leibniz_defect(
    alg: Superalgebra, xs: np.ndarray, parity: int, j: int
) -> np.ndarray:
    """Block j of the graded Leibniz defect, X L_j - (-1)**(r e_j) L_j X -
    L(X e_j) with L_j left multiplication by e_j, for each X in the stack
    ``xs`` (q, dim, dim) of operators of parity r."""
    lj = alg.structure[j].T
    sign = koszul_sign(parity, int(alg.parity[j]))
    return (xs @ lj - sign * (lj @ xs)) - left_action(alg.structure, xs[:, :, j])


def superderivation_residuals(
    alg: Superalgebra, matrices: np.ndarray, parity: int
) -> np.ndarray:
    """The residual of each operator in a stack (k, dim, dim) of declared
    parity r: the worst entry of its Leibniz defect over every block of
    :func:`leibniz_defect` and of its grading defect (matrix entries that
    move between wrong parity sectors)."""
    xs = np.asarray(matrices, dtype=complex)
    r = int(parity) % 2
    worst = np.zeros(len(xs))
    for j in range(alg.dim):
        worst = np.maximum(worst, np.abs(leibniz_defect(alg, xs, r, j)).max(axis=(1, 2)))
    bad = (alg.parity[:, None] != (alg.parity[None, :] + r) % 2)
    return np.maximum(worst, np.abs(np.where(bad, xs, 0.0)).max(axis=(1, 2)))


def check_superderivation(
    alg: Superalgebra, matrix: np.ndarray, parity: int
) -> tuple[bool, float]:
    """Check the graded Leibniz condition for an operator of declared parity.

    Returns (ok, residual), the residual of
    :func:`superderivation_residuals`.
    """
    worst = float(superderivation_residuals(alg, np.asarray(matrix)[None], parity)[0])
    return worst <= DERIVATION_TOL, worst


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


def leibniz_system(
    alg: Superalgebra, parity: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The stacked Leibniz system of parity r on the grading-respecting unit
    candidates E_ab, as sparse entries ``(rows, cols, vals, q)``.

    Row j dim**2 + k dim + l is entry (k, l) of block j of
    :func:`leibniz_defect`, column c the c-th candidate (row-major in (a, b))
    of the q candidates.  For E_ab, block j is

        +d_ka c[j,l,b] - s_j c[j,a,k] d_lb - d_jb c[a,l,k],  s_j = (-1)**(r e_j),

    so every entry comes from one nonzero structure constant and one free
    index: assembly costs O(nnz dim).  The three terms are summed in that
    order, as ``leibniz_defect`` sums them, and exact zeros are dropped.
    """
    n = alg.dim
    r = int(parity) % 2
    allowed = alg.parity[:, None] == (alg.parity[None, :] + r) % 2
    cand = np.full((n, n), -1)
    cand[allowed] = np.arange(np.count_nonzero(allowed))
    i, j, k, v = alg.constants
    s = _sign(r * alg.parity)
    t = np.arange(n)[:, None]  # the free index, against every nonzero
    # (block, k, l), candidate (a, b), value; nonzero c[i, j, k] read as
    # c[j,l,b], c[j,a,k] and c[a,l,k] in turn
    terms = [
        ((i, t, j), (t, k), v),
        ((i, k, t), (j, t), -s[i] * v),
        ((t, k, j), (i, t), -v),
    ]
    rows, cols, vals = [], [], []
    for (bj, bk, bl), (a, b), val in terms:
        col = cand[a, b]
        keep = col >= 0
        rows.append(((bj * n + bk) * n + bl)[keep])
        cols.append(col[keep])
        vals.append(np.broadcast_to(val, keep.shape)[keep])
    rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
    q = int(np.count_nonzero(allowed))
    key, total = sum_by_key(rows * q + cols, vals)
    live = total != 0
    return key[live] // q, key[live] % q, total[live], q


# Largest dense block, in entries, formed at once by superderivation_dims;
# taller components are folded into a triangular factor row chunk by chunk.
_BLOCK_ENTRIES = 1 << 18


def _components(rows: np.ndarray, cols: np.ndarray, q: int) -> np.ndarray:
    """Connected-component label of each of the q columns in the bipartite
    graph of the entries, rows numbered from 0: min-label propagation, with
    pointer jumping."""
    label = np.arange(q)
    while True:
        row_min = np.full(rows.max(initial=-1) + 1, q)
        np.minimum.at(row_min, rows, label[cols])
        new = label.copy()
        np.minimum.at(new, cols, row_min[rows])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _block_singular_values(
    comp: np.ndarray, lrow: np.ndarray, lcol: np.ndarray, vals: np.ndarray,
    g: int, nr: int, nc: int,
) -> np.ndarray:
    """Singular values (g, min(nr, nc)) of g stacked (nr, nc) blocks given by
    their entries (block, row, column, value).  A stack above
    ``_BLOCK_ENTRIES`` is first folded, row chunk by chunk, into its
    triangular factor, R <- qr([R; chunk]).R, which has the same singular
    values."""
    step = max(nc, _BLOCK_ENTRIES // (g * nc))
    tri = np.zeros((g, 0, nc), dtype=complex)
    for lo in range(0, nr, step):
        hi = min(lo + step, nr)
        sel = (lrow >= lo) & (lrow < hi)
        chunk = np.zeros((g, hi - lo, nc), dtype=complex)
        chunk[comp[sel], lrow[sel] - lo, lcol[sel]] = vals[sel]
        if hi - lo == nr:
            return np.linalg.svd(chunk, compute_uv=False)
        tri = np.linalg.qr(np.concatenate([tri, chunk], axis=1), mode="r")
    return np.linalg.svd(tri, compute_uv=False)


def _local_index(comp: np.ndarray) -> np.ndarray:
    """Position of each item among the items of its component, in order."""
    order = np.argsort(comp, kind="stable")
    ranked = comp[order]
    local = np.empty(comp.size, dtype=int)
    local[order] = np.arange(comp.size) - np.searchsorted(ranked, ranked)
    return local


def superderivation_dims(alg: Superalgebra) -> dict:
    """Dimensions of the even and odd superderivation spaces.

    Per parity r, the superderivations are the null space of the stacked
    Leibniz system of :func:`leibniz_system`: every block e_j of the defect,
    on every grading-respecting unit candidate E_ab.  Permuted, that system
    is block diagonal: the connected components of its bipartite (equation,
    candidate) graph are independent subsystems (Pothen & Fan, ACM TOMS 16
    (1990) 303).  Components of equal shape are stacked, at most
    ``_BLOCK_ENTRIES`` entries at a time, and their singular values taken
    in one batched SVD.  All ranks use one cutoff, ``RANK_RTOL`` times the
    largest singular value over all components, which is the stacked
    system's own cutoff: the singular values of a block-diagonal matrix are
    the union of its blocks'.  The dimension is the number of candidates
    minus that rank.  A dense algebra forms one component of up to dim**3
    rows, folded into a triangular factor chunk by chunk, so memory stays
    O(dim**4).
    """
    dims = {}
    for r in (0, 1):
        rows, cols, vals, q = leibniz_system(alg, r)
        _, rows = np.unique(rows, return_inverse=True)
        _, comp = np.unique(_components(rows, cols, q), return_inverse=True)
        ecomp = comp[cols]
        row_comp = np.zeros(rows.max(initial=-1) + 1, dtype=int)
        row_comp[rows] = ecomp
        ncomp = comp.max(initial=-1) + 1
        nr = np.bincount(row_comp, minlength=ncomp)
        nc = np.bincount(comp, minlength=ncomp)
        lrow, lcol = _local_index(row_comp)[rows], _local_index(comp)[cols]
        svals = [np.zeros(0)]
        # candidates no equation touches (no rows) add nothing to the rank
        for h, w in np.unique(np.stack([nr, nc])[:, nr > 0], axis=1).T:
            members = np.flatnonzero((nr == h) & (nc == w))
            pos = np.full(ncomp, -1)
            pos[members] = np.arange(members.size)
            epos = pos[ecomp]
            per = max(1, _BLOCK_ENTRIES // (h * w))
            for b0 in range(0, members.size, per):
                sel = (epos >= b0) & (epos < b0 + per)
                g = min(per, members.size - b0)
                svals.append(_block_singular_values(
                    epos[sel] - b0, lrow[sel], lcol[sel], vals[sel], g, h, w
                ).reshape(-1))
        s = np.concatenate(svals)
        dims[r] = q - int(np.count_nonzero(s > RANK_RTOL * s.max(initial=0.0)))
    return {"even": dims[0], "odd": dims[1]}


def _special_evidence(alg: Superalgebra) -> tuple[dict, DerivationFamily | None]:
    """Whether the algebra is 'special': its graded center is the scalars
    and every superderivation is inner, which is checked by comparing the
    superderivation-space dimension with dim - 1.  Returns the evidence dict
    and the inner family it counted (None on a supercommutative algebra),
    both computed once per algebra."""
    if getattr(alg, "_special_cache", None) is not None:
        return alg._special_cache
    z0, z1 = alg.graded_center()
    if alg.is_supercommutative:
        result = {
            "special": False,
            "center_dims": [len(z0), len(z1)],
            "superderivation_dims": None,
            "inner_dim": 0,
            "supercommutative": True,
        }
        alg._special_cache = (result, None)
        return alg._special_cache
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
    alg._special_cache = (result, fam)
    return alg._special_cache


# -- derivation families ------------------------------------------------------


class DerivationFamily:
    """An independent, bracket-closed list of homogeneous derivations.

    Cochains are stored by their values on tuples from this family, so the
    family plays the role of a (generally non-spanning) frame on the space
    of derivations.  ``expand_strict`` writes a derivation in the frame.
    """

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
            if res > DERIVATION_TOL:
                raise CalculusError(
                    f"family member fails the derivation condition ({res:.3e})"
                )
        self._flat = self.matrices.reshape(len(self.members), -1)
        if numerical_rank(self._flat) != len(self.members):
            raise CalculusError("family members are linearly dependent")
        self._pinv = np.linalg.pinv(self._flat.T)
        self._bracket: np.ndarray | None = None
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
        if worst > EXPAND_TOL:
            raise CalculusError(f"derivation lies outside the family by {worst:.3e}")
        return coeffs

    @property
    def bracket(self) -> np.ndarray:
        """Structure constants f[i, j, k] with [X_i, X_j] = sum_k f[i,j,k] X_k."""
        if self._bracket is None:
            mats = self.matrices
            sign = koszul_signs(self.parities, self.parities)[:, :, None, None]
            f = np.empty((len(self),) * 3, dtype=complex)
            worst = 0.0
            # one X_i at a time: its m commutators, m dim**2 entries
            for i, x in enumerate(mats):
                f[i], res = self._expand_all(x @ mats - sign[i] * (mats @ x))
                worst = max(worst, res)
            if worst > CLOSURE_TOL:
                raise CalculusError(f"family is not bracket closed ({worst:.3e})")
            self._bracket = f
        return self._bracket

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
    algebra, stored densely as values on every family index tuple."""

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
        if t.shape != (m,) * self.degree + (dim,):
            raise CalculusError(f"cochain tensor has wrong shape {t.shape}")
        self.tensor = t
        if check:
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

    def _parity_residual(self) -> float:
        sector = parity_sector(self.family, self.degree, self.parity)
        return max_abs(np.where(sector, 0.0, self.tensor))

    # -- construction helpers

    @classmethod
    def zero(cls, family: DerivationFamily, degree: int, parity: int) -> "Cochain":
        m = len(family)
        dim = family.algebra.dim
        return cls(
            family, degree, parity, np.zeros((m,) * degree + (dim,)), check=False
        )

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


def _slot_parities(family: DerivationFamily, slots: int) -> list[np.ndarray]:
    """The family parities along each slot axis of a (m, .., m, dim) tensor
    with ``slots`` argument axes; entry c broadcasts over every other axis."""
    fp = family.parities
    return [fp.reshape((1,) * c + (-1,) + (1,) * (slots - c)) for c in range(slots)]


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
    """Graded wedge product; see the module docstring for the convention."""
    if alpha.family is not beta.family:
        raise CalculusError("wedge needs a common derivation family")
    fam = alpha.family
    p, q = alpha.degree, beta.degree
    n = p + q
    # prod[j_1..j_p, l_1..l_q] = alpha(X_j..) beta(X_l..) in the algebra; the
    # lower-degree factor meets the structure constants first, so no
    # intermediate outgrows the product
    a, b, c = alpha.tensor, beta.tensor, fam.algebra.structure
    if p <= q:
        prod = np.tensordot(np.tensordot(a, c, axes=(p, 0)), b, axes=(p, q))
    else:
        prod = np.tensordot(a, np.tensordot(c, b, axes=(1, q)), axes=(p, 0))
    prod = np.moveaxis(prod, p, -1)
    t = np.zeros_like(prod)
    for axes, table in _wedge_sign_tables(p, q, beta.parity):
        sign = table[np.ix_(*[fam.parities] * n)]
        t += sign[..., None] * prod.transpose(*axes, n)
    t /= factorial(p) * factorial(q)
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
    e = _slot_parities(fam, p)
    for j in range(p):
        tj = np.moveaxis(np.tensordot(b, omega.tensor, axes=(0, j)), 0, j)
        out = out - _sign(y.parity * (omega.parity + sum(e[:j]))) * tj
    return Cochain(fam, p, (omega.parity + y.parity) % 2, out, check=False)


def interior(x: Derivation, omega: Cochain) -> Cochain:
    """(i_X w)(X_1..X_{p-1}) = w(X, X_1, ..); on 0-forms the result is 0."""
    fam = omega.family
    out_par = (omega.parity + x.parity) % 2
    if omega.degree == 0:
        return Cochain.zero(fam, 0, out_par)
    vec = fam.expand_strict(x)
    t = np.tensordot(vec, omega.tensor, axes=(0, 0))
    return Cochain(fam, omega.degree - 1, out_par, t, check=False)


def exterior_derivative(omega: Cochain) -> Cochain:
    """The Chevalley-Eilenberg differential with the graded weights of the
    module docstring: p+1 action terms and p(p+1)/2 bracket terms, each a
    whole-tensor contraction moved into its slots and signed."""
    fam = omega.family
    p = omega.degree
    # the bracket table is built (once per family) before the output exists,
    # so its temporaries never stack on it
    f = fam.bracket if p else None
    e = _slot_parities(fam, p + 1)
    # act[i, j_1..j_p] = X_i(w(X_j1..X_jp)); in slot a it is the action term
    act = np.moveaxis(np.tensordot(fam.matrices, omega.tensor, axes=(2, p)), 1, -1)
    t = np.zeros((len(fam),) * (p + 1) + act.shape[-1:], dtype=complex)
    for a in range(p + 1):
        t += _sign(a + e[a] * (omega.parity + sum(e[:a]))) * np.moveaxis(act, 0, a)
    del act
    for a in range(p + 1):
        for b in range(a + 1, p + 1):
            # w([X_a, X_b], ..) with the other arguments in order
            term = np.moveaxis(
                np.tensordot(f, omega.tensor, axes=(2, a)), (0, 1), (a, b)
            )
            term *= _sign(b + e[b] * sum(e[a + 1:b]))
            t += term
    return Cochain(fam, p + 1, omega.parity, t, check=False)


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
            "multiplicative": max_abs(
                multiplicativity_defect(src.structure, p, tgt.structure)
            ),
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
