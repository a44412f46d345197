"""Deformation quantization on flat two-dimensional phase space.

Phase space polynomials are ``SuperFunction(2, 0)`` objects: coordinate 0
is x and coordinate 1 is p (``variables(2, 0)``).  The series star product
below is exact to all orders because derivatives terminate.  Two further
routes live here, the Wigner transform of sampled wave functions (with the
phase space measure dx dp / (2 pi hbar), so a pure state has an idempotent
symbol) and a direct double quadrature of the star product integral kernel
for rapidly decaying functions.  The ``moyal-limit`` suite certifies all
three: the series on polynomials, the Wigner symbols of the two lowest
oscillator states against their closed forms, and the kernel on the
ground-state symbol, which is a star projector.

Two tools serve the exact checks of the series.  ``star_table`` writes the
star product of the monomials x^a p^b on a grid of exponents, at one hbar,
as one sorted ``algebra.Coo`` of constants built from the same integer
weights as ``star``; associativity then runs on all monomial triples at
once through the table's left and right multiplication matrices, the
scatter kernel that ``Superalgebra`` products use.  ``hbar_orders`` reads
the coefficients of a route that is a finite Laurent polynomial in hbar,
as every star product of polynomials is, from its values at four hbars
by one Vandermonde solve, so each order can be checked exactly instead of
through a fitted log-log slope.

Series convention (Groenewold 1946, Moyal 1949): f * g = sum_k hbar**k
T_k(f, g) with

    T_k = (1/k!) (i/2)**k sum_j C(k, j) (-1)**j
          (dx**(k-j) dp**j f) (dp**(k-j) dx**j g),

so T_0 = fg and T_1 = -(i/2){f, g} with {f, g} = f_p g_x - f_x g_p, the
``SuperPBMatrix.canonical_even(1)`` bracket (that sign makes {p, x} = 1,
matching the operator bracket convention {A, B} = (i/hbar)[A, B]).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, isfinite, perm

import numpy as np

from .algebra import Coo
from .superclassical import SUPER_EPS, SuperFunction, SuperPBMatrix, super_poisson

WIGNER_NORMALIZATION_TOL = 1e-3


class MoyalError(ValueError):
    pass


def _check_hbar(hbar: float) -> None:
    if not (isfinite(hbar) and hbar > 0):
        raise MoyalError(f"hbar must be finite and positive, got {hbar}")


def _degree(f: SuperFunction) -> int:
    """Total degree of a phase space polynomial; rejects anything else."""
    if not isinstance(f, SuperFunction) or (f.m, f.n) != (2, 0):
        raise MoyalError("the star product acts on SuperFunction(2, 0) polynomials")
    return max((sum(exps) for exps, _ in f.terms), default=0)


@lru_cache(maxsize=4096)
def _pair_weights(a1: int, b1: int, a2: int, b2: int) -> tuple[tuple[int, int], ...]:
    """The nonzero (k, weight) of x^a1 p^b1 * x^a2 p^b2: its order-k term
    is weight (i/2)**k / k! x^(a1+a2-k) p^(b1+b2-k), with the integer
    weight sum_j C(k, j) (-1)**j (a1)_(k-j) (b1)_j (b2)_(k-j) (a2)_j and
    (n)_r the falling factorial."""
    out = []
    for k in range(min(a1, b2) + min(b1, a2) + 1):
        weight = sum(
            (-1) ** j * comb(k, j) * perm(a1, k - j) * perm(b1, j)
            * perm(b2, k - j) * perm(a2, j)
            for j in range(k + 1)
        )
        if weight:
            out.append((k, weight))
    return tuple(out)


def _series(f: SuperFunction, g: SuperFunction) -> list[dict]:
    """The hbar-order terms of the series star product (finitely many) as
    coefficient dicts, from one pass over pairs of monomials."""
    orders = [{} for _ in range(min(_degree(f), _degree(g)) + 1)]
    for ((a1, b1), _), c1 in f.terms.items():
        for ((a2, b2), _), c2 in g.terms.items():
            for k, weight in _pair_weights(a1, b1, a2, b2):
                key = ((a1 + a2 - k, b1 + b2 - k), 0)
                orders[k][key] = orders[k].get(key, 0.0) + c1 * c2 * weight
    for k, acc in enumerate(orders):
        scale = (0.5j) ** k / factorial(k)
        for key in acc:
            acc[key] *= scale
    return orders


def star_terms(f: SuperFunction, g: SuperFunction) -> list[SuperFunction]:
    """All hbar-order terms of the series star product."""
    return [SuperFunction(2, 0, acc) for acc in _series(f, g)]


def star(f: SuperFunction, g: SuperFunction, hbar: float) -> SuperFunction:
    _check_hbar(hbar)
    total = {}
    for k, acc in enumerate(_series(f, g)):
        scale = hbar**k
        for key, c in acc.items():
            # drop what star_terms drops, so the sums match it bit for bit
            if not abs(c) <= SUPER_EPS:
                total[key] = total.get(key, 0.0) + c * scale
    return SuperFunction(2, 0, total)


def moyal_bracket(f: SuperFunction, g: SuperFunction, hbar: float) -> SuperFunction:
    commutator = star(f, g, hbar) - star(g, f, hbar)  # star rejects a bad hbar
    return (1j / hbar) * commutator


def star_table(hbar: float, side: int) -> Coo:
    """The star product of the monomials m_u = x^a p^b, u = a side + b with
    a, b < side, at one hbar, as constants t[u, v, w] of m_u * m_v = sum_w
    t[u, v, w] m_w: every pair whose product keeps both exponents below
    ``side``, and no pair whose product leaves that grid."""
    _check_hbar(hbar)
    # the order-k factors of star's sums, (i/2)**k / k! and hbar**k, in its order
    scale = [(0.5j) ** k / factorial(k) for k in range(side)]
    power = [hbar**k for k in range(side)]
    rows = []
    for a1 in range(side):
        for b1 in range(side):
            for a2 in range(side - a1):
                for b2 in range(side - b1):
                    for order, weight in _pair_weights(a1, b1, a2, b2):
                        rows.append((
                            a1 * side + b1,
                            a2 * side + b2,
                            (a1 + a2 - order) * side + b1 + b2 - order,
                            weight * scale[order] * power[order],
                        ))
    i, j, k, v = zip(*rows)
    return Coo(side * side, i, j, k, v)


def associator_residuals(hbar: float, exps: list[tuple[int, int]]) -> np.ndarray:
    """r[i, j, k] = |(m_i m_j) m_k - m_i (m_j m_k)| / max(1, |(m_i m_j) m_k|)
    for the monomials m_i = x^a p^b, (a, b) = exps[i], with | | the largest
    coefficient.  Every triple multiplies on the table of exponents up to
    three times the largest in ``exps``, so no term is truncated; the left
    and right multiplication matrices of the monomials contract one first
    factor at a time, and the pair m_i m_j is column m_i of R_j."""
    side = 3 * max(max(e) for e in exps) + 1
    table = star_table(hbar, side)
    at = np.array([a * side + b for a, b in exps])
    basis = np.eye(side * side)[at]
    # R_k for one monomial at a time: the scatter's buffers scale with its stack
    right = np.empty((len(exps), side * side, side * side), dtype=complex)
    for k, e in enumerate(basis):
        right[k] = table.right_mult(e)
    later = right[:, :, at]  # later[k, :, j] = m_j m_k
    out = np.empty((len(exps),) * 3)
    for i in range(len(exps)):
        lhs = np.tensordot(right[:, :, at[i]], right, axes=(1, 2))  # [j, k, w]
        rhs = (table.left_mult(basis[i]) @ later).transpose(2, 0, 1)
        out[i] = np.abs(lhs - rhs).max(axis=2) / np.maximum(1.0, np.abs(lhs).max(axis=2))
    return out


# hbar nodes of the order rows: a Laurent polynomial with as many orders as
# nodes is fixed by its values there
ORDER_HBARS = (0.25, 0.5, 0.75, 1.0)


def hbar_orders(route, lowest: int = 0) -> list[list[SuperFunction]]:
    """The coefficients A_n, n = lowest .. lowest + 3, of a route whose
    value route(hbar), a list of phase space polynomials, is
    sum_n hbar**n A_n: the route evaluated at ORDER_HBARS and one
    Vandermonde solve.  Entry n - lowest is the list of A_n."""
    values = [route(hb) for hb in ORDER_HBARS]
    keys = sorted({key for polys in values for f in polys for key in f.terms})
    grid = np.array([[[f.terms.get(key, 0.0) for key in keys] for f in polys] for polys in values])
    hbars = np.array(ORDER_HBARS)
    scaled = (grid * hbars[:, None, None] ** -lowest).reshape(len(hbars), -1)
    orders = np.linalg.solve(np.vander(hbars, increasing=True), scaled).reshape(grid.shape)
    return [[SuperFunction(2, 0, dict(zip(keys, row))) for row in coeffs] for coeffs in orders]


def classical_limit_report(f: SuperFunction, g: SuperFunction) -> dict:
    """Dual-route check of the first two series terms, and the hbar orders
    of star(f, g, hbar) read off by ``hbar_orders`` against fg and
    -(i/2){f, g}, relative to max(1, the largest order).  The four orders
    are the whole series only when f or g has degree three or less, so
    anything else is rejected."""
    terms = star_terms(f, g)
    if len(terms) > len(ORDER_HBARS):
        raise MoyalError(f"the star series has more than {len(ORDER_HBARS)} orders")
    t0_direct = f * g
    t1_direct = (-0.5j) * super_poisson(f, g, SuperPBMatrix.canonical_even(1))
    t0_residual = (terms[0] - t0_direct).norm()
    t1_residual = (
        (terms[1] - t1_direct).norm() if len(terms) > 1 else t1_direct.norm()
    )
    orders = [c for (c,) in hbar_orders(lambda hb: [star(f, g, hb)])]
    scale = max(1.0, max(c.norm() for c in orders))
    return {
        "term0Residual": float(t0_residual),
        "term1Residual": float(t1_residual),
        "orderResidual": max((orders[0] - t0_direct).norm(), (orders[1] - t1_direct).norm())
        / scale,
        "orderTwoSize": orders[2].norm() / scale,
    }


# -- Wigner transform ----------------------------------------------------------------


@dataclass
class WignerGrid:
    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray
    hbar: float

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    @property
    def dp(self) -> float:
        return float(self.ps[1] - self.ps[0])

    def normalization(self) -> float:
        return float(
            np.sum(self.values) * self.dx * self.dp / (2 * np.pi * self.hbar)
        )


def wigner_function(psi: np.ndarray, xs: np.ndarray, hbar: float) -> WignerGrid:
    """Wigner symbol of a sampled wave function.

    W(x, p) = 2 * integral of conj(psi(x+y)) psi(x-y) exp(2ipy/hbar) dy,
    with psi first scaled to unit norm on the grid, so the
    dx dp/(2 pi hbar) integral of W is one.  The y quadrature
    runs over whole grid steps so psi(x +- y) stays on the sample grid.
    The momentum grid is ``xs`` itself.
    """
    _check_hbar(hbar)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    xs = np.asarray(xs, dtype=float)
    nx = xs.size
    if psi.shape != xs.shape:
        raise MoyalError("wave function and grid differ in length")
    if not np.all(np.isfinite(psi)):
        raise MoyalError("wave function has non-finite samples")
    dx = float(xs[1] - xs[0])
    norm2 = float(np.sum(np.abs(psi) ** 2) * dx)
    if not (np.isfinite(norm2) and norm2 > 0):
        raise MoyalError(
            f"wave function norm**2 on the grid is {norm2}, not finite and positive"
        )
    psi = psi / np.sqrt(norm2)
    ps = xs.copy()
    mmax = nx - 1
    ms = np.arange(-mmax, mmax + 1)
    # a[j, m] = conj(psi(x_j + y_m)) psi(x_j - y_m), zero off the grid
    pad = np.zeros(3 * nx, dtype=complex)
    pad[nx : 2 * nx] = psi
    j = np.arange(nx)
    plus = pad[nx + j[:, None] + ms[None, :]]
    minus = pad[nx + j[:, None] - ms[None, :]]
    a = np.conj(plus) * minus
    phase = np.exp(2j * np.outer(ps, ms * dx) / hbar)
    values = 2.0 * dx * (a @ phase.T)
    scale = max(1.0, np.abs(values).max())
    if not np.abs(values.imag).max() <= 1e-9 * scale:
        raise MoyalError("wigner symbol came out non-real")
    grid = WignerGrid(xs, ps, values.real, hbar)
    n = grid.normalization()
    if not abs(n - 1.0) <= WIGNER_NORMALIZATION_TOL:
        raise MoyalError(f"wigner normalization {n:.6f} outside tolerance")
    return grid


def oscillator_ground_state(xs: np.ndarray, hbar: float) -> np.ndarray:
    _check_hbar(hbar)
    return (np.pi * hbar) ** (-0.25) * np.exp(-np.asarray(xs) ** 2 / (2 * hbar))


def oscillator_first_excited(xs: np.ndarray, hbar: float) -> np.ndarray:
    _check_hbar(hbar)
    xs = np.asarray(xs)
    return (
        (np.pi * hbar) ** (-0.25)
        * np.sqrt(2.0 / hbar)
        * xs
        * np.exp(-(xs**2) / (2 * hbar))
    )


# -- integral kernel route -------------------------------------------------------------


def star_integral(
    f,
    g,
    xi: tuple[float, float],
    xs: np.ndarray,
    ps: np.ndarray,
    hbar: float,
) -> complex:
    """(f * g)(xi) by direct double phase space quadrature.

    The kernel is exp(-(2i/hbar) [sigma(xi,u) - sigma(xi,v) + sigma(u,v)])
    with sigma(a, b) = a_x b_p - a_p b_x, and the double integral factors
    into three matrix products, so the cost is cubic in the grid size
    instead of quartic.  ``f`` and ``g`` are callables of (x, p) arrays.
    """
    _check_hbar(hbar)
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    bigx, bigp = xi
    dxdp = float((xs[1] - xs[0]) * (ps[1] - ps[0]))
    fv = np.asarray(f(xs[:, None], ps[None, :]), dtype=complex)
    gv = np.asarray(g(xs[:, None], ps[None, :]), dtype=complex)
    # u-local and v-local phases
    m1 = np.exp(-(2j / hbar) * (bigx * ps[None, :] - bigp * xs[:, None]))
    m2 = np.exp(+(2j / hbar) * (bigx * ps[None, :] - bigp * xs[:, None]))
    u = fv * m1
    v = gv * m2
    # coupling sigma(u, v) = a d - b c for u = (a, b), v = (c, d)
    pmat = np.exp(-(2j / hbar) * np.outer(xs, ps))   # P[a, d]
    qmat = np.exp(+(2j / hbar) * np.outer(ps, xs))   # Q[b, c]
    total = np.einsum("bd,bd->", u.T @ pmat, qmat @ v)
    return complex(total * dxdp**2 / (np.pi * hbar) ** 2)
