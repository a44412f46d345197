"""The graded Leibniz system of a superalgebra: the superderivation spaces
and the Leibniz residual of operator stacks.

For a parity r, an operator X on the algebra is a superderivation when its
Leibniz defect X L_j - (-1)**(r e_j) L_j X - L(X e_j) vanishes for every
basis element e_j (L_j is left multiplication by e_j) and it maps each
parity sector into the sector shifted by r.  The defect is linear in X, so
it is one sparse system over the dim**2 matrix entries of X, assembled
from the nonzero structure constants by :func:`leibniz_system`.  The
superderivation space is its null space on the grading-respecting entries
(:func:`superderivation_dims`), and a stack of operators is checked by
multiplying it with the system (:func:`superderivation_residuals`).
"""
from __future__ import annotations

import numpy as np

from ._linalg import RANK_RTOL, column_components, segment_sums, sum_by_key
from .algebra import Superalgebra, koszul_signs


def superderivation_residuals(
    alg: Superalgebra, matrices: np.ndarray, parity: int
) -> np.ndarray:
    """The residual of each operator in a stack (k, dim, dim) of declared
    parity r: the worst entry of its Leibniz defect, the stack times the
    sparse system of :func:`leibniz_system` taken row block by row block,
    and of its grading defect (matrix entries that move between wrong
    parity sectors)."""
    xs = np.asarray(matrices, dtype=complex)
    n = alg.dim
    # column a dim + b of the system meets entry (a, b) of every operator
    flat = np.ascontiguousarray(xs.reshape(len(xs), n * n).T)
    worst = np.zeros(len(xs))
    for rows, cols, vals in leibniz_system(alg, parity):
        for _, sums in segment_sums(rows, cols, vals, flat):
            worst = np.maximum(worst, np.abs(sums).max(axis=0))
    bad = (alg.parity[:, None] != (alg.parity[None, :] + int(parity)) % 2)
    return np.maximum(worst, np.abs(np.where(bad, xs, 0.0)).max(axis=(1, 2)))


# About as many entries of the Leibniz system as are assembled at once.
_ASSEMBLY_ENTRIES = 1 << 12


def leibniz_system(alg: Superalgebra, parity: int):
    """The stacked Leibniz system of parity r on the dim**2 unit candidates
    E_ab, as sparse entries ``(rows, cols, vals)``, yielded for consecutive
    blocks of rows, each sorted by row and then column.

    Row j dim**2 + k dim + l is entry (k, l) of block j of the Leibniz
    defect X L_j - (-1)**(r e_j) L_j X - L(X e_j), with L_j left
    multiplication by e_j; column a dim + b is the candidate E_ab.  Every
    candidate is a column, those off the parity sector of r too, so an
    operator's entries there still enter its defect; the superderivation
    solve keeps the sector's columns.  For E_ab, block j is

        +d_ka c[j,l,b] - s_j c[j,a,k] d_lb - d_jb c[a,l,k],  s_j = (-1)**(r e_j),

    so every entry comes from one nonzero structure constant and one free
    index: assembly costs O(nnz dim), about 3 nnz entries per block j, and
    blocks j are assembled a few at a time (``_ASSEMBLY_ENTRIES``).  The
    three terms are summed in that order, and exact zeros are dropped.
    """
    n = alg.dim
    i, j, k, v = alg.constants
    s = koszul_signs([int(parity) % 2], alg.parity)[0]
    free = np.arange(n)[:, None]
    per = max(1, _ASSEMBLY_ENTRIES // max(1, 3 * i.size))
    for j0 in range(0, n, per):
        j1 = min(j0 + per, n)
        c0, c1 = np.searchsorted(i, [j0, j1])
        bi, bj, bk, bv = i[c0:c1], j[c0:c1], k[c0:c1], v[c0:c1]
        t = np.arange(j0, j1)[:, None]
        # (block, k, l), candidate (a, b), value; nonzero c[i, j, k] read
        # as c[j,l,b], c[j,a,k] and c[a,l,k] in turn, the free index
        # running over every column, or over the blocks j0..j1
        terms = [
            ((bi, free, bj), (free, bk), bv),
            ((bi, bk, free), (bj, free), -s[bi] * bv),
            ((t, k, j), (i, t), -v),
        ]
        keys, vals = [], []
        for (rj, rk, rl), (a, b), val in terms:
            key = (((rj * n + rk) * n + rl) * n + a) * n + b
            keys.append(key.reshape(-1))
            vals.append(np.broadcast_to(val, key.shape).reshape(-1))
        key, total = sum_by_key(np.concatenate(keys), np.concatenate(vals))
        live = total != 0
        rows, cols = np.divmod(key[live], n * n)
        yield rows, cols, total[live]


# Largest dense block, in entries, formed at once by superderivation_dims;
# taller components are folded into a triangular factor row chunk by chunk.
_BLOCK_ENTRIES = 1 << 18


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
    on the columns of the grading-respecting unit candidates E_ab, of which
    there are q.  Permuted, that system
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
        allowed = (alg.parity[:, None] == (alg.parity[None, :] + r) % 2).reshape(-1)
        q = int(np.count_nonzero(allowed))
        if q == 0:  # no candidate, as for odd maps on a trivially graded algebra
            dims[r] = 0
            continue
        cand = np.full(allowed.size, -1)
        cand[allowed] = np.arange(q)
        rows, cols, vals = (np.concatenate(x) for x in zip(*leibniz_system(alg, r)))
        keep = allowed[cols]
        rows, cols, vals = rows[keep], cand[cols[keep]], vals[keep]
        _, rows = np.unique(rows, return_inverse=True)
        _, comp = np.unique(column_components(rows, cols, q), return_inverse=True)
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
