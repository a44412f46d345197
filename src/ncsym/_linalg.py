"""Small linear-algebra helpers shared across the package.

Everything here is a thin, opinionated wrapper around numpy with the
thresholds used throughout the library pinned in one place.
"""
from __future__ import annotations

import numpy as np

# Relative singular-value cutoff used for every rank / null-space decision.
RANK_RTOL = 1e-10


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``a``, columns of the result.

    Rank is decided by singular values below ``RANK_RTOL`` times the
    largest one.  An all-zero (or empty) matrix has a full null space.
    """
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    # a tall matrix needs no U beyond its column count; a wide one needs the
    # full vh, whose extra rows span part of the null space
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(a.shape[1], dtype=complex)
    rank = int(np.sum(s > RANK_RTOL * smax))
    return vh[rank:].conj().T


def numerical_rank(a: np.ndarray) -> int:
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def lstsq_with_residual(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares solve of ``a x = b`` returning ``(x, max-abs residual)``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    res = a @ x - b
    resmax = float(np.max(np.abs(res))) if res.size else 0.0
    return x, resmax


def bilinear(t: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ij a_i b_j t[i, j, :] for a product tensor, where t[i, j, k] is
    the coefficient of e_k in the product of e_i and e_j."""
    return left_action(t, a) @ b


def left_action(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Matrix of b -> bilinear(t, a, b); a stack of vectors ``a`` (..., dim)
    gives the stack of their matrices."""
    # one matmul against the (dim, dim*dim) unfolding: no per-call einsum
    # path search, and no tensordot bookkeeping on a single vector
    flat = a @ t.reshape(t.shape[0], -1)
    return flat.reshape(a.shape[:-1] + t.shape[1:]).swapaxes(-1, -2)


def sum_by_key(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in increasing order and, for each, the sum of the
    values that share it, added in the order given."""
    uniq, inv = np.unique(keys, return_inverse=True)
    total = np.zeros(uniq.size, dtype=complex)
    np.add.at(total, inv, vals)
    return uniq, total


def join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (a, b) with left[a] == right[b], ordered by a and
    then by b: a sort-merge join of two integer key arrays."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    lo = np.searchsorted(ordered, left, "left")
    count = np.searchsorted(ordered, left, "right") - lo
    a = np.repeat(np.arange(left.size), count)
    shift = np.repeat(lo - (np.cumsum(count) - count), count)
    return a, order[shift + np.arange(a.size)]


# Largest gather, in entries, formed at once by a sparse product: a block of
# segment_sums, or of commutators expanded by DerivationFamily.bracket.
GATHER_ENTRIES = 1 << 14


def segment_sums(keys: np.ndarray, idx: np.ndarray, vals: np.ndarray, src: np.ndarray):
    """The products of a sparse operator, block by block of its entries.

    The entries (keys[e], idx[e], vals[e]) are sorted by key.  Yields
    ``(key, sums)`` per block: the distinct keys of the block and, for each,
    the sum of vals[e] * src[idx[e]] over its entries, added in order.  A
    block gathers at most ``GATHER_ENTRIES`` entries of src, or one key's
    rows when that key alone has more, and no key spans two blocks."""
    total = keys.size
    if total == 0:
        return
    new_key = np.empty(total, dtype=bool)
    new_key[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_key[1:])
    starts = np.flatnonzero(new_key)
    per = max(1, GATHER_ENTRIES // max(1, src[0].size))
    bounds = [0, total]
    if total > per:
        cuts = np.append(starts, total)
        bounds = np.unique(np.append(cuts[np.searchsorted(cuts, np.arange(0, total, per))], total))
    scale = (-1,) + (1,) * (src.ndim - 1)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = src[idx[lo:hi]]
        block *= vals[lo:hi].reshape(scale)
        first, last = (0, starts.size) if len(bounds) == 2 else np.searchsorted(starts, [lo, hi])
        if last - first == hi - lo:
            yield keys[lo:hi], block
            continue
        # each key's first product, then its r-th ones for all keys at once
        heads = starts[first:last] - lo
        sums = block[heads]
        owner = np.cumsum(new_key[lo:hi]) - 1
        rank = np.arange(hi - lo) - heads[owner]
        for r in range(1, rank.max() + 1):
            at = np.flatnonzero(rank == r)
            sums[owner[at]] += block[at]
        yield keys[lo + heads], sums


def column_components(rows: np.ndarray, cols: np.ndarray, q: int) -> np.ndarray:
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


def greedy_independent(vectors, zero_tol: float) -> list[int]:
    """Indices kept by a greedy scan: skip a vector with max |entry| below
    ``zero_tol``, keep it when it raises the numerical rank of those kept.

    The kept vectors are factored incrementally by Gram-Schmidt, applied
    twice to stay orthogonal to working precision.  A vector raises the rank
    when its distance from their span exceeds RANK_RTOL times the largest
    norm among them and it."""
    kept: list[int] = []
    scale = 0.0
    # orthonormal rows spanning the kept vectors, in its first len(kept) rows
    basis = np.empty((len(vectors), np.size(vectors[0]) if vectors else 0), dtype=complex)
    for idx, v in enumerate(vectors):
        if max_abs(v) < zero_tol:
            continue
        r = np.asarray(v, dtype=complex)
        q = basis[: len(kept)]
        for _ in range(2):
            r = r - (q.conj() @ r) @ q
        norm = np.linalg.norm(v)
        dist = np.linalg.norm(r)
        if dist > RANK_RTOL * max(scale, norm):
            basis[len(kept)] = r / dist
            kept.append(idx)
            scale = max(scale, norm)
    return kept


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def worst(values: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Largest entry of a nonempty real array and its index on each axis;
    the first NaN wins, and ties go to the first entry in C order."""
    at = np.unravel_index(int(np.argmax(values)), np.shape(values))
    return float(values[at]), tuple(int(k) for k in at)


def taylor_polynomial(z: np.ndarray, degree: int) -> np.ndarray:
    """sum_{k <= degree} z^k / k! for a square matrix z and degree >= 1, by
    Horner: I + z (I + z (... (I + z / degree) ...) / 2)."""
    ident = np.eye(z.shape[0])
    p = ident + z / degree
    for k in range(degree - 1, 0, -1):
        p = ident + z @ p / k
    return p


def rk4_trajectory(lmat, y0, times, steps_per_unit: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta for the linear flow dy/dt = L y
    with y(0) = y0, one row per requested time.

    The times are visited in sorted order; the stretch of length |dt| from
    the previous one takes max(1, ceil(|dt| * steps_per_unit)) equal steps.
    On a linear flow one RK4 step is exactly y <- P(dt L) y with
    P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, the Taylor polynomial of degree
    4, so P is formed once per stretch and its n steps are y <- P^n y,
    applied by binary powers: P^(2^k) y for each set bit k of n, with
    P^(2^k) by repeated squaring (Moler and Van Loan, SIAM Rev. 45 (2003)).
    The powers are held as E_k = P^(2^k) - I and squared as
    E_(k+1) = E_k E_k + 2 E_k, so a small E_k keeps its relative precision:
    squaring P itself would lose about n rounding units over n steps, where
    this stays as close to n products with P as that loop is to exact
    arithmetic.  E_0 = P - I is exact while the real part of each diagonal
    entry of P lies in [1/2, 2] (Sterbenz), as it does for short steps.
    Raises ValueError when ``steps_per_unit`` is not finite and positive or
    a time is not finite."""
    if not (np.isfinite(steps_per_unit) and steps_per_unit > 0):
        raise ValueError(f"steps_per_unit must be finite and positive, got {steps_per_unit}")
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    y = np.asarray(y0, dtype=complex).reshape(-1).copy()
    out = np.zeros((times.size, y.size), dtype=complex)
    ident = np.eye(y.size)
    t_now = 0.0
    for r in np.argsort(times):
        n = max(1, int(np.ceil(abs(times[r] - t_now) * steps_per_unit)))
        power = taylor_polynomial(((times[r] - t_now) / n) * lmat, 4) - ident
        while True:
            if n & 1:
                y = y + power @ y
            n >>= 1
            if not n:
                break
            power = power @ power + 2.0 * power
        t_now = times[r]
        out[r] = y
    return out


# expm scales its argument to 1-norm below EXPM_NORM, where the Taylor
# polynomial of degree EXPM_DEGREE has relative backward error at the unit
# roundoff (Bader, Blanes and Casas, "Computing the matrix exponential with
# an optimized Taylor polynomial approximation", Mathematics 7 (2019)).
EXPM_DEGREE = 18
EXPM_NORM = 1.09


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix, by scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26 (2005)): the Taylor polynomial of degree
    EXPM_DEGREE at a / 2^s, with 2^s the least power of two that brings the
    1-norm below EXPM_NORM, squared s times."""
    s = max(0, int(np.frexp(np.linalg.norm(a, 1) / EXPM_NORM)[1]))
    e = taylor_polynomial(a / 2.0**s, EXPM_DEGREE)
    for _ in range(s):
        e = e @ e
    return e


def expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i h) for a hermitian matrix h, as V diag(exp(i w)) V^H from its
    eigendecomposition h = V diag(w) V^H."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T
