"""Classical mechanics on superspace: polynomial superfunctions, graded
Poisson brackets from a constant bracket matrix, Berezin integration and
the Grassmann state analysis.

A superfunction on R^(m|n) is a polynomial in m commuting variables
x_1..x_m and n anticommuting generators theta_1..theta_n, stored sparsely
as {(exponent tuple, generator bitmask): coefficient}.

Bracket convention: with a constant matrix W (even-even block
antisymmetric, odd-odd block symmetric, mixed blocks zero),

    {f, g} = - sum_{B,A} (right d_B f) W[B, A] (left d_A g).

``canonical_even`` uses the block [[0, 1], [-1, 0]] per (q, p) pair, which
gives {p, q} = 1 and {f, g} = sum_i (d_p f d_q g - d_q f d_p g);
``unit_odd`` uses the identity, giving {theta_a, theta_b} = -delta_ab.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import max_abs, nullspace, numerical_rank
from .algebra import Element, Superalgebra, _shuffle_sign
from .states import STATE_TOL, berezin_pairing, cc_check, gram_matrix, make_state

SUPER_EPS = 1e-15

Key = tuple[tuple[int, ...], int]


class SuperspaceError(ValueError):
    pass


@dataclass
class SuperFunction:
    m: int
    n: int
    terms: dict[Key, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[Key, complex] = {}
        for (exps, mask), c in self.terms.items():
            exps = tuple(map(int, exps))
            if len(exps) != self.m:
                raise SuperspaceError("exponent tuple has wrong length")
            if mask >> self.n:
                raise SuperspaceError("generator mask out of range")
            size = abs(c)
            if not size < np.inf:
                raise SuperspaceError(f"non-finite coefficient {c}")
            if size > SUPER_EPS:
                clean[(exps, int(mask))] = complex(c)
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def scalar(cls, m: int, n: int, value: complex) -> "SuperFunction":
        return cls(m, n, {((0,) * m, 0): value})

    @classmethod
    def coordinate(cls, m: int, n: int, index: int) -> "SuperFunction":
        exps = [0] * m
        exps[index] = 1
        return cls(m, n, {(tuple(exps), 0): 1.0})

    @classmethod
    def generator(cls, m: int, n: int, index: int) -> "SuperFunction":
        return cls(m, n, {((0,) * m, 1 << index): 1.0})

    # -- structure ------------------------------------------------------------

    def coefficient(self, exps, mask) -> complex:
        return self.terms.get((tuple(exps), int(mask)), 0.0 + 0.0j)

    def norm(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    # -- ring operations ------------------------------------------------------

    def _binary(self, other) -> "SuperFunction":
        if not isinstance(other, SuperFunction):
            other = SuperFunction.scalar(self.m, self.n, other)
        if (other.m, other.n) != (self.m, self.n):
            raise SuperspaceError("superfunctions live on different superspaces")
        return other

    def __add__(self, other):
        other = self._binary(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return SuperFunction(self.m, self.n, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._binary(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) - c
        return SuperFunction(self.m, self.n, out)

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if not isinstance(other, SuperFunction):
            return SuperFunction(
                self.m, self.n, {k: c * other for k, c in self.terms.items()}
            )
        other = self._binary(other)
        out: dict[Key, complex] = {}
        for (e1, s), c1 in self.terms.items():
            for (e2, t), c2 in other.terms.items():
                if s & t:
                    continue
                key = (tuple(a + b for a, b in zip(e1, e2)), s | t)
                out[key] = out.get(key, 0.0) + c1 * c2 * _shuffle_sign(s, t)
        return SuperFunction(self.m, self.n, out)

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other


def variables(m: int, n: int):
    xs = [SuperFunction.coordinate(m, n, a) for a in range(m)]
    thetas = [SuperFunction.generator(m, n, a) for a in range(n)]
    return xs, thetas


# -- derivatives -----------------------------------------------------------------


def even_derivative(f: SuperFunction, a: int) -> SuperFunction:
    out: dict[Key, complex] = {}
    for (exps, mask), c in f.terms.items():
        if exps[a] == 0:
            continue
        new = list(exps)
        new[a] -= 1
        key = (tuple(new), mask)
        out[key] = out.get(key, 0.0) + c * exps[a]
    return SuperFunction(f.m, f.n, out)


def odd_derivative_left(f: SuperFunction, a: int) -> SuperFunction:
    out: dict[Key, complex] = {}
    bit = 1 << a
    for (exps, mask), c in f.terms.items():
        if not mask & bit:
            continue
        below = bin(mask & (bit - 1)).count("1")
        sign = -1.0 if below % 2 else 1.0
        key = (exps, mask & ~bit)
        out[key] = out.get(key, 0.0) + sign * c
    return SuperFunction(f.m, f.n, out)


def odd_derivative_right(f: SuperFunction, a: int) -> SuperFunction:
    out: dict[Key, complex] = {}
    bit = 1 << a
    for (exps, mask), c in f.terms.items():
        if not mask & bit:
            continue
        above = bin(mask >> (a + 1)).count("1")
        sign = -1.0 if above % 2 else 1.0
        key = (exps, mask & ~bit)
        out[key] = out.get(key, 0.0) + sign * c
    return SuperFunction(f.m, f.n, out)


# -- bracket matrices and the super Poisson bracket ----------------------------------


@dataclass
class SuperPBMatrix:
    """Constant coefficient matrix of an even super Poisson bracket."""

    m: int
    n: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.matrix, dtype=complex)
        if w.shape != (self.m + self.n, self.m + self.n):
            raise SuperspaceError("bracket matrix has the wrong shape")
        ee = w[: self.m, : self.m]
        oo = w[self.m :, self.m :]
        if max_abs(ee + ee.T) > 1e-12:
            raise SuperspaceError("even block must be antisymmetric")
        if max_abs(oo - oo.T) > 1e-12:
            raise SuperspaceError("odd block must be symmetric")
        if max_abs(w[: self.m, self.m :]) > 0 or max_abs(w[self.m :, : self.m]) > 0:
            raise SuperspaceError("mixed blocks must vanish for an even bracket")
        self.matrix = w

    @classmethod
    def canonical_even(cls, pairs: int) -> "SuperPBMatrix":
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        w = np.kron(np.eye(pairs), block)
        return cls(2 * pairs, 0, w)

    @classmethod
    def unit_odd(cls, n: int) -> "SuperPBMatrix":
        return cls(0, n, np.eye(n))


def _derivative_right(f: SuperFunction, w: SuperPBMatrix, idx: int) -> SuperFunction:
    return (
        even_derivative(f, idx)
        if idx < w.m
        else odd_derivative_right(f, idx - w.m)
    )


def _derivative_left(f: SuperFunction, w: SuperPBMatrix, idx: int) -> SuperFunction:
    return (
        even_derivative(f, idx) if idx < w.m else odd_derivative_left(f, idx - w.m)
    )


def super_poisson(f: SuperFunction, g: SuperFunction, w: SuperPBMatrix) -> SuperFunction:
    if (f.m, f.n) != (w.m, w.n) or (g.m, g.n) != (w.m, w.n):
        raise SuperspaceError("superfunctions do not match the bracket matrix")
    out = SuperFunction(w.m, w.n, {})
    for b in range(w.m + w.n):
        dfb = _derivative_right(f, w, b)
        if not dfb.terms:
            continue
        for a in range(w.m + w.n):
            c = w.matrix[b, a]
            if c == 0:
                continue
            dga = _derivative_left(g, w, a)
            if dga.terms:
                out = out - c * (dfb * dga)
    return out


# -- Berezin integration --------------------------------------------------------------


def berezin_integral(f: SuperFunction) -> SuperFunction:
    """Integrate over every generator: apply left derivatives with the
    highest generator acting first, so that theta_n .. theta_1 integrates
    to one."""
    out = f
    for a in range(f.n - 1, -1, -1):
        out = odd_derivative_left(out, a)
    return out


# -- bridge to the finite Grassmann algebra ------------------------------------------


def superfunction_from_element(e: Element) -> SuperFunction:
    alg = e.algebra
    if alg.kind.get("form") != "grassmann":
        raise SuperspaceError("need a Grassmann algebra element")
    n = int(alg.kind["n"])
    terms = {((), int(mask)): c for mask, c in enumerate(e.coeffs) if abs(c) > SUPER_EPS}
    return SuperFunction(0, n, terms)


# -- the Grassmann state analysis ----------------------------------------------------


def _linear_conditions(alg: Superalgebra, a: np.ndarray) -> dict[str, np.ndarray]:
    """The linear conditions on a state, as rows on the real coordinates z
    of a density with functional phi = a @ z: each row set vanishes on the
    directions that keep a state normalized, odd-vanishing and hermitian."""
    return {
        "normalization": alg.unit_coeffs @ a,
        "oddVanishing": a[alg.parity == 1],
        # z is real, so conj(phi) = conj(a) @ z
        "hermiticity": alg.involution_matrix.T @ a - a.conj(),
    }


def g3_unique_state(alg: Superalgebra) -> dict:
    """On a Grassmann algebra exactly one density is a state: the top
    monomial rho0 = theta_n .. theta_1, which integrates to one.

    make_state checks that rho0 is a state.  Any other candidate is
    rho0 + sum_k t_k v_k, with real t and v_k spanning the directions of
    the density x + i y that keep the linear conditions.  Its Gram matrix
    G0 + sum_k t_k G_k is positive semidefinite, so each row whose
    diagonal vanishes for every t vanishes too: c + L t = 0.  So rho0 is
    the only state iff c = 0 and L has full column rank.  Positivity and
    normalization alone pin it on G3-G6: L keeps full rank without the
    odd-vanishing or hermiticity rows.  Returns the verdict with max |c|
    as ``value``, the number of directions as ``evaluated`` and the
    smallest singular value of L as ``margin``, and the separation check
    on the witness observables 1 + theta1 theta2 and 1 + 2 theta1 theta2.
    """
    pairing = berezin_pairing(alg)
    rho0 = np.eye(alg.dim)[-1] / pairing[0, -1]  # the integral of 1 rho0 is one
    state = make_state(alg, "berezinDensity", rho0)
    a = np.hstack([pairing, 1j * pairing])  # phi = a @ z for the density x + i y
    rows = np.vstack([np.atleast_2d(r) for r in _linear_conditions(alg, a).values()])
    directions = nullspace(np.vstack([rows.real, rows.imag])).real
    g0 = gram_matrix(alg, state.functional)
    grams = np.array([gram_matrix(alg, a @ v) for v in directions.T])
    diag = np.abs(np.diagonal(np.concatenate([g0[None], grams]), axis1=1, axis2=2))
    zero = np.all(diag <= STATE_TOL, axis=0)
    value = max_abs(g0[zero])
    lin = grams[:, zero].reshape(grams.shape[0], -1).T
    lin = np.vstack([lin.real, lin.imag])
    full = numerical_rank(lin) == lin.shape[1]
    sv = np.linalg.svd(lin, compute_uv=False)
    e12 = alg.basis_element(3)  # theta1 theta2
    cc = cc_check([alg.unit + e12, alg.unit + 2.0 * e12], [state])
    return {
        "state": state,
        "unique": bool(full and value <= STATE_TOL),
        "value": value,
        "evaluated": lin.shape[1],
        "margin": float(sv[-1]) if sv.size == lin.shape[1] else 0.0,
        "zeroRows": int(zero.sum()),
        "ccVerdict": cc["verdict"],
        "ccReport": cc,
    }
