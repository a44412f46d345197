"""The graded Leibniz system of a superalgebra: the superderivation spaces
and the Leibniz residual of operator stacks.

For a parity r, an operator X on the algebra is a superderivation when its
Leibniz defect X L_j - (-1)**(r e_j) L_j X - L(X e_j) vanishes for every
basis element e_j (L_j is left multiplication by e_j) and it maps each
parity sector into the sector shifted by r.  The defect is linear in X, so
it is one sparse system over the dim**2 matrix entries of X, assembled
from the nonzero structure constants by :func:`leibniz_system`, whose null
space on the grading-respecting entries is the superderivation space
(:func:`superderivation_dims`).  A stack of operators is checked without
the system, by joining their nonzero entries with the nonzero constants
(:func:`superderivation_residuals`), as inner derivations are mostly zeros
(1.5% nonzero on M5).
"""
from __future__ import annotations

import numpy as np

from ._linalg import RANK_RTOL, budget_blocks, column_components, join, sum_by_key
from .algebra import Superalgebra, _boxes, koszul_signs


def superderivation_residuals(
    alg: Superalgebra, matrices: np.ndarray, parity: int
) -> np.ndarray:
    """The residual of each operator in a stack (k, dim, dim) of declared
    parity r: the worst entry of its Leibniz defect and of its grading
    defect (matrix entries that move between wrong parity sectors).

    The defect is summed from the nonzero operator entries X_ab = x and
    constants c[i, j, k] = v, one join per term; in block t, X L_t adds
    x v at t = i, entry (a, j), where k = b; L_t X adds -s_t x v at t = i,
    entry (k, b), where j = a; and L(X e_t) adds -x v at t = b, entry
    (k, j), where i = a.  The (operator, block) pairs are taken in runs of
    at most ``GATHER_ENTRIES`` products (or one pair's), each tiled by
    boxes, so each defect entry is summed in one box, in the same order
    whatever the runs."""
    n = alg.dim
    xs = np.asarray(matrices, dtype=complex).reshape(-1, n, n)
    k = len(xs)
    op, a, b = np.nonzero(xs)
    x = xs[op, a, b]
    ci, cj, ck, cv = alg.constants
    s = koszul_signs([int(parity) % 2], alg.parity)[0]
    op_starts = np.searchsorted(op, np.arange(k + 1))
    c_starts = np.searchsorted(ci, np.arange(n + 1))
    # products per (operator, block), from counts of entries per
    # (operator, b) and (operator, a) and of constants per (i, k), (i, j), i
    tables = [np.bincount(u * n + w, minlength=n * m).reshape(m, n)
              for u, w, m in ((op, b, k), (op, a, k), (ci, ck, n), (ci, cj, n))]
    cost = (tables[0] @ tables[2].T + tables[1] @ tables[3].T).reshape(-1)
    cost += np.bincount(op * n + b, np.diff(c_starts)[a], k * n).astype(int)
    # per term: the entry and constant indices joined, and each side's part
    # of the key (operator, block, row, column) and of the value
    terms = ((b, ck, op * n**3 + a * n, ci * n * n + cj, cv),
             (a, cj, op * n**3 + b, (ci * n + ck) * n, -s[ci] * cv),
             (a, ci, (op * n + b) * n * n, ck * n + cj, -cv))
    every, worst = np.arange(ci.size), np.zeros(k)
    for p0, p1 in budget_blocks(cost):
        keys, vals = [], []
        for o0, o1, j0, j1 in _boxes(p0, p1, n):
            e, c = np.arange(op_starts[o0], op_starts[o1]), np.arange(c_starts[j0], c_starts[j1])
            # L(X e_t) joins the entries in the box's columns t with every constant
            sides = ((e, c), (e, c), (e[(b[e] >= j0) & (b[e] < j1)], every))
            for (left, right, lkey, rkey, rval), (le, rc) in zip(terms, sides):
                p, q = join(left[le], right[rc])
                p, q = le[p], rc[q]
                keys.append(lkey[p] + rkey[q])
                vals.append(x[p] * rval[q])
        key, total = sum_by_key(np.concatenate(keys), np.concatenate(vals))
        np.maximum.at(worst, key // n**3, np.abs(total))
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
        sel = (lrow >= lo) & (lrow < lo + step)
        chunk = np.zeros((g, min(step, nr - lo), nc), dtype=complex)
        chunk[comp[sel], lrow[sel] - lo, lcol[sel]] = vals[sel]
        tri = np.linalg.qr(np.concatenate([tri, chunk], axis=1), mode="r") if step < nr else chunk
    return np.linalg.svd(tri, compute_uv=False)


def superderivation_dims(alg: Superalgebra) -> dict:
    """Dimensions of the even and odd superderivation spaces.

    Per parity r, the superderivations are the null space of the Leibniz
    system of :func:`leibniz_system` on the q grading-respecting unit
    candidates E_ab.  Permuted, that system is block diagonal: the connected
    components of its bipartite (equation, candidate) graph are independent
    subsystems (Pothen & Fan, ACM TOMS 16 (1990) 303).  The entries are
    sorted once, by component shape and then by component; components of
    one shape are stacked, at most ``_BLOCK_ENTRIES`` entries at a time,
    into one batched SVD, and a one-column component's singular value is
    its norm.  All ranks use one cutoff, ``RANK_RTOL`` times the largest
    singular value over all components, the stacked system's own: a
    block-diagonal matrix's singular values are the union of its blocks'.
    The dimension is q minus that rank.  A dense algebra forms one
    component of up to dim**3 rows, folded into a triangular factor chunk
    by chunk, so memory stays O(dim**4).
    """
    even, odd = (_superderivation_dim(alg, r) for r in (0, 1))
    return {"even": even, "odd": odd}


def _superderivation_dim(alg: Superalgebra, r: int) -> int:
    """The dimension of the parity-r superderivations (see superderivation_dims)."""
    allowed = (alg.parity[:, None] == (alg.parity[None, :] + r) % 2).reshape(-1)
    q = int(np.count_nonzero(allowed))
    if q == 0:  # no candidate, as for odd maps on a trivially graded algebra
        return 0
    rows, cols, vals = (np.concatenate(x) for x in zip(*leibniz_system(alg, r)))
    keep = allowed[cols]  # on the allowed columns, numbered from 0
    rows, cols, vals = rows[keep], (np.cumsum(allowed) - 1)[cols[keep]], vals[keep]
    # the rows are sorted: number them from 0 by their changes
    first = np.diff(rows, prepend=-1) != 0
    rows = np.cumsum(first) - 1
    label = column_components(rows, cols, q)
    present = np.bincount(label, minlength=q) > 0
    comp = (np.cumsum(present) - 1)[label]
    ncomp = int(np.count_nonzero(present))
    nr = np.bincount(comp[cols[first]], minlength=ncomp)
    nc = np.bincount(comp, minlength=ncomp)
    # each column's position among its component's, in order
    by_comp = np.argsort(comp, kind="stable")
    lcol = np.empty(q, dtype=int)
    lcol[by_comp] = np.arange(q) - (np.cumsum(nc) - nc)[comp[by_comp]]
    # components ordered by shape, then by index, and the entries by
    # component, so that each shape, and each run of components of one
    # shape, is one slice; a component's rows stay in order
    by_shape = np.lexsort((nc, nr))
    epos = np.argsort(by_shape)[comp[cols]]
    order = np.argsort(epos, kind="stable")
    epos, rows, lcol, vals = epos[order], rows[order], lcol[cols[order]], vals[order]
    starts = np.searchsorted(epos, np.arange(ncomp + 1))
    seen = np.cumsum(np.diff(rows, prepend=-1) != 0)
    lrow = seen - seen[starts[epos]]
    shapes = np.stack([nr, nc])[:, by_shape]
    edges = np.flatnonzero(np.any(np.diff(shapes, axis=1), axis=0)) + 1
    svals = [np.zeros(0)]
    for g0, g1 in zip(np.append(0, edges), np.append(edges, ncomp)):
        h, w = shapes[:, g0]
        if w == 1:  # one column (or a candidate in no equation): its norm
            col = vals[starts[g0]:starts[g1]].reshape(g1 - g0, h)
            svals.append(np.linalg.norm(col, axis=1))
            continue
        per = max(1, _BLOCK_ENTRIES // (h * w))
        for b0 in range(g0, g1, per):
            b1 = min(b0 + per, g1)
            e = slice(starts[b0], starts[b1])
            svals.append(_block_singular_values(
                epos[e] - b0, lrow[e], lcol[e], vals[e], b1 - b0, h, w
            ).reshape(-1))
    s = np.concatenate(svals)
    return q - int(np.count_nonzero(s > RANK_RTOL * s.max(initial=0.0)))
