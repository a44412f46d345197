"""Symplectic structures, Poisson brackets and Hamiltonian dynamics.

A symplectic structure here is a closed, nondegenerate, even 2-cochain over
a bracket-closed derivation family.  Nondegeneracy is meant relative to the
family: the pairing Y -> i_Y omega must be injective on the family span and
onto the differentials, which is what the Hamiltonian solve needs.

The stock structure on a 'special' algebra (trivial graded center, all
superderivations inner) is the quantum form omega_q = (-i hbar) omega_c.
Here omega_c(D_A, D_B) = [A, B] is the commutator cochain on the inner
family, closed and imaginary (omega_c* = -omega_c).  So omega_q is real
and gives {A, B} = (-i hbar)**-1 [A, B] = (i/hbar) [A, B].

Every bracket is read off one tensor per structure.  Y_A is linear in A,
so the Hamiltonian solve runs once per basis element at construction and
the bracket tensor is

    pb_tensor[i, j, k] = coefficient of e_k in {e_i, e_j},

the same convention as the structure constants of the algebra.  So
{A, B} = ``bilinear(pb_tensor, a, b)`` and the Poisson operator of H is
``left_action(pb_tensor, h)``; the coupling factors and the product
structure contract their tensors the same way.  Each call still gates the
solve for its A: first by a per-basis bound on the residual, then, when
the bound does not pass, by the exact residual (see ``_check_solve``).

Dynamics: dA/dt = {H, A} with hermitian even H, on this module's
structures and on the product structures of :mod:`ncsym.coupling` alike;
``HamiltonianSystem`` is the one flow.  In closed form A(t) = expm(t L_H) A
with L_H the Poisson operator of H, equivalently
A(t) = exp(iHt/hbar) A exp(-iHt/hbar) in a matrix realization.

The closed form runs through one eigendecomposition L_H = V diag(w) V^-1
per system, so expm(t L_H) = V diag(exp(t w)) V^-1 for every t.  The
eigenvector method is reliable only for a well-conditioned V (Moler and
Van Loan, SIAM Rev. 45 (2003) 3).  Only a skew-adjoint L_H, max
|L_H + L_H^H| at most EIG_RESIDUAL_TOL times max(1, |L_H|), is factored,
as the quantum bracket (i/hbar)[H, .] of a hermitian H is in an
orthonormal basis: through its skew part S by the hermitian eigensolver
on i S, with w = -i eig(i S).  V is unitary, so cond(V) is about 1 even
for a degenerate spectrum such as a central H's, and it is bounded from
the unitarity defect without an SVD: with delta = dim max |V^H V - I|,
cond(V) <= sqrt((1 + delta) / (1 - delta)).

The decomposition is used only when its reconstruction residual against
L_H itself, relative to max(1, |L_H|), is at most EIG_RESIDUAL_TOL and
cond(V) is at most EIG_COND_MAX.  A flow never forms
V diag(exp(t w)) V^-1: it applies the factors to the vector,
V (exp(t w) * (V^-1 a)), which is O(dim^2) per time, and a whole time
grid is one product of the phases against V.  States move by the
transpose, V^-T (exp(t w) * (V^T phi)).  Any other Liouvillian, such as a
Grassmann bracket's, and one that fails the gate are exponentiated by
``_linalg.expm`` at each t and applied to the vector.
"""
from __future__ import annotations

import math

import numpy as np

from ._linalg import bilinear, expm, left_action, max_abs, numerical_rank
from .algebra import Element, Superalgebra, koszul_signs
from .calculus import (
    Cochain,
    differential_chunks,
    _special_evidence,
)

# |d omega| and the reality defect may be at most these times max(1, |omega|)
CLOSED_TOL = 1e-10
REALITY_TOL = 1e-10
# Residual gate for solving i_Y omega = -dA.
HAMILTONIAN_SOLVE_TOL = 1e-9
# Largest |H* - H| coefficient a Hamiltonian may have.
HERMITIAN_TOL = 1e-10
# Gate on the eigendecomposition of L_H: relative reconstruction residual
# and condition number of the eigenvector matrix.
EIG_RESIDUAL_TOL = 1e-12
EIG_COND_MAX = 1e4
# Largest |t| |L_H| (max-abs entry) a flow is evaluated at: past 1/eps no
# digit of the phase t w survives.
MAX_PHASE = 1.0 / np.finfo(float).eps


class SymplecticError(ValueError):
    pass


class SymplecticStructure:
    """An even, closed, family-nondegenerate 2-cochain with solve machinery.

    ``kind`` records how the form was built: {"kind": "quantum" | "custom",
    "hbar": float | None, "reality": "real" | "imaginary"}.
    The declared reality is enforced at construction.
    """

    def __init__(self, omega: Cochain, kind: dict | None = None) -> None:
        if omega.degree != 2 or omega.parity != 0:
            raise SymplecticError("symplectic form must be an even 2-cochain")
        if omega.stack:
            raise SymplecticError("symplectic form must be one cochain, not a stack")
        self.omega = omega
        self.family = omega.family
        self.algebra = omega.family.algebra
        self.kind = dict(kind or {"kind": "custom", "hbar": None})
        m = len(self.family)
        dim = self.algebra.dim
        self._pairing = omega.tensor.reshape(m, m * dim)
        self.reality_residuals = omega.reality_residuals()
        # |d omega| block by block, so d omega is never held whole; NaN
        # propagates through the maximum and fails the gate
        worst = 0.0
        for part in differential_chunks(omega):
            worst = np.maximum(worst, max_abs(part))
        self.closed_residual = float(worst)
        scale = max(1.0, omega.norm())
        if not self.closed_residual <= CLOSED_TOL * scale:
            raise SymplecticError(
                f"form is not closed, |d omega| = {self.closed_residual:.3e}"
            )
        declared = self.kind.get("reality")
        if declared is not None:
            defect = self.reality_residuals[declared]
            if defect > REALITY_TOL * scale:
                raise SymplecticError(f"form is not {declared} (defect {defect:.3e})")
        if numerical_rank(self._pairing) != m:
            raise SymplecticError("form is degenerate on the family")
        # i_Y omega = -d e_i for every basis element in one batch.  Y has the
        # parity of e_i since the form is even, and
        # (d e_i)(X_l) = (-1)**(e_l e_i) X_l(e_i).
        mats = self.family.matrices
        basis_par = self.algebra.parity
        signs = koszul_signs(basis_par, self.family.parities)
        rhs = -(signs[:, :, None] * mats.transpose(2, 0, 1)).reshape(dim, m * dim)
        coeffs = np.zeros((dim, m), dtype=complex)
        for t in (0, 1):
            rows = np.flatnonzero(basis_par == t)
            cols = np.flatnonzero(self.family.parities == t)
            if rows.size and cols.size:
                pinv = np.linalg.pinv(self._pairing[cols].T)
                coeffs[np.ix_(rows, cols)] = rhs[rows] @ pinv.T
        # row i: family coefficients of Y_{e_i}; its solve residual; and the
        # bracket tensor (convention in the module docstring)
        self.hamiltonian_basis = coeffs
        self.solve_residual = coeffs @ self._pairing - rhs
        self.solve_residual.flags.writeable = False
        # C order, so left_action's unfolding is a view and no call copies
        # the dim^3 tensor
        self.pb_tensor = np.einsum("il,lkj->ijk", coeffs, mats, order="C")
        # row t selects the basis elements of parity t
        self._parity_masks = np.array([basis_par == 0, basis_par == 1], dtype=float)
        # row t: max_j |R_ij| for the basis elements i of parity t, inflated
        # by 1 + 4 dim eps, which exceeds the rounding (Higham's gamma_n) of
        # both |a| . r and the exact product of _check_solve
        rows = np.abs(self.solve_residual).max(axis=1)
        self._solve_bound = self._parity_masks * (rows * (1 + 4 * dim * np.finfo(float).eps))

    # -- hamiltonian derivations and brackets --------------------------------

    def _check_solve(self, a: Element) -> None:
        """Raise unless i_Y omega = -dA closes for each parity part of A.

        The solve residual is linear in each part: part t's residual row is
        sum_i a_i R_i over the basis elements of parity t, so by the triangle
        inequality it is at most sum_i |a_i| max_j |R_ij|.  When that bound
        passes for both parts the residual does too; otherwise (or for a
        NaN, which makes the bound NaN) both parts' residuals are computed
        exactly, in one product of the masked coefficients with the residual
        rows, and decide.  A zero part has residual exactly 0."""
        bound = self._solve_bound @ np.abs(a.coeffs)
        if bound[0] <= HAMILTONIAN_SOLVE_TOL and bound[1] <= HAMILTONIAN_SOLVE_TOL:
            return
        res = np.abs((a.coeffs * self._parity_masks) @ self.solve_residual).max(axis=1)
        for t in (0, 1):
            if res[t] <= HAMILTONIAN_SOLVE_TOL:
                continue
            if not np.any(self.family.parities == t):
                raise SymplecticError("no family directions of the required parity")
            raise SymplecticError(f"hamiltonian solve failed, residual {res[t]:.3e}")

    def hamiltonian_coeffs(self, a: Element) -> np.ndarray:
        """Family coefficients of Y_A solving i_{Y_A} omega = -dA for
        homogeneous A; raises when the solve does not close."""
        if a.parity is None:
            raise SymplecticError("need a homogeneous element")
        self._check_solve(a)
        return a.coeffs @ self.hamiltonian_basis

    def poisson(self, a: Element, b: Element) -> Element:
        """{A, B} = Y_A(B), extended bilinearly over parity parts of A.

        The solve gate runs on every call, for each parity part of A: the
        per-basis residual bound first, then the exact residual when the
        bound does not pass."""
        self._check_solve(a)
        return Element(self.algebra, bilinear(self.pb_tensor, a.coeffs, b.coeffs))

    def poisson_operator(self, h: Element) -> np.ndarray:
        """Matrix of B -> {H, B} (sum over parity parts of H).

        The solve gate runs on every call, for each parity part of H: the
        per-basis residual bound first, then the exact residual when the
        bound does not pass."""
        self._check_solve(h)
        return left_action(self.pb_tensor, h.coeffs)


def _commutator_cochain(alg: Superalgebra) -> Cochain:
    """The 2-cochain (D_A, D_B) -> [A, B] on the inner family of a special
    algebra.  Well defined because [A + z, B + w] = [A, B] for central
    shifts z, w, so the value depends only on the derivations."""
    info, fam = _special_evidence(alg)
    if not info["special"]:
        raise SymplecticError(
            "algebra is not special (trivial graded center + all "
            f"superderivations inner); evidence: {info}"
        )
    # [A, B] = sum_uv a_u b_v [e_u, e_v] for every pair of sources at once
    sources = np.array([x.source.coeffs for x in fam.members])
    comm = alg.commutator_constants.dense()
    t = np.tensordot(np.tensordot(sources, comm, axes=(1, 0)), sources, axes=(1, 1))
    return Cochain(fam, 2, 0, t.transpose(0, 2, 1))


def quantum_form(alg: Superalgebra, hbar: float) -> SymplecticStructure:
    """omega_q = (-i hbar) omega_c; real, with {A,B} = (i/hbar)[A, B]."""
    if not (np.isfinite(hbar) and hbar > 0):
        raise SymplecticError(f"hbar must be finite and positive, got {hbar}")
    omega = (-1j * hbar) * _commutator_cochain(alg)
    return SymplecticStructure(
        omega, {"kind": "quantum", "hbar": float(hbar), "reality": "real"}
    )


# -- dynamics ---------------------------------------------------------------------


class HamiltonianSystem:
    """dA/dt = {H, A} for an even hermitian Hamiltonian H.

    ``structure`` is any bracket holder with an ``algebra`` and a
    ``poisson_operator``: a :class:`SymplecticStructure` or a
    :class:`ncsym.coupling.ProductStructure`."""

    def __init__(self, structure, h: Element) -> None:
        self.structure = structure
        self.algebra = structure.algebra
        if h.algebra is not self.algebra:
            raise SymplecticError("hamiltonian lives in the wrong algebra")
        if h.parity != 0:
            raise SymplecticError("hamiltonian must be even")
        herm = max_abs(h.star().coeffs - h.coeffs)
        if not herm <= HERMITIAN_TOL:
            raise SymplecticError(f"hamiltonian is not hermitian ({herm:.3e})")
        self.liouville = structure.poisson_operator(h)
        self._scale = max_abs(self.liouville)
        # (V, w, V^-1) when the decomposition passes its gate, else None;
        # cond(V) and the residual are not formed (inf) for a Liouvillian
        # that is not skew-adjoint, and the residual neither when cond(V)
        # already fails.  L_H is factored by eigh of i S, S its skew part
        # (see the module docstring)
        self.eigen = None
        self.eig_cond = self.eig_residual = math.inf
        scale = max(1.0, self._scale)
        adj = self.liouville.conj().T
        if max_abs(self.liouville + adj) <= EIG_RESIDUAL_TOL * scale:
            lam, v = np.linalg.eigh(0.5j * (self.liouville - adj))
            w = -1j * lam
            # delta = dim max|V^H V - I| >= |V^H V - I|_2, so the singular
            # values of V lie in [sqrt(1 - delta), sqrt(1 + delta)]
            delta = len(w) * max_abs(v.conj().T @ v - np.eye(len(w)))
            if delta < 1:
                self.eig_cond = math.sqrt((1 + delta) / (1 - delta))
        if self.eig_cond <= EIG_COND_MAX:
            vinv = np.linalg.inv(v)
            self.eig_residual = max_abs((v * w) @ vinv - self.liouville) / scale
            if self.eig_residual <= EIG_RESIDUAL_TOL:
                self.eigen = (v, w, vinv)

    def _reachable(self, times) -> np.ndarray:
        """The times as a float array; raises for one that is not finite or
        at which the phase t L_H has lost every digit."""
        times = np.asarray(times, dtype=float).reshape(-1)
        for t in times.tolist():
            if not math.isfinite(t) or abs(t) * self._scale > MAX_PHASE:
                raise SymplecticError(f"cannot evolve to time {t} (|L_H| = {self._scale:.3e})")
        return times

    def heisenberg_matrix(self, t: float) -> np.ndarray:
        """expm(t L_H) acting on observable coefficients; raises for a time
        the flow cannot reach."""
        (t,) = self._reachable([t])
        if self.eigen is None:
            return expm(t * self.liouville)
        v, w, vinv = self.eigen
        return (v * np.exp(t * w)) @ vinv

    def flow(self, vector: np.ndarray, times, dual: bool = False) -> np.ndarray:
        """expm(t L_H) applied to a coefficient vector, one row per time;
        with ``dual`` its transpose, which moves a functional.  Raises for a
        time the flow cannot reach."""
        times = self._reachable(times)
        if self.eigen is None:
            mats = (self.heisenberg_matrix(t) for t in times)
            rows = [(m.T if dual else m) @ vector for m in mats]
            return np.array(rows, dtype=complex).reshape(times.size, self.algebra.dim)
        v, w, vinv = self.eigen
        if dual:
            v, vinv = vinv.T, v.T
        return (np.exp(times[:, None] * w) * (vinv @ vector)) @ v.T

    def evolve_heisenberg(self, a: Element, t: float) -> Element:
        """Observable evolution dA/dt = {H, A}, in closed form."""
        return Element(self.algebra, self.flow(a.coeffs, [t])[0])

    def evolve_functional(self, functional: np.ndarray, t: float) -> np.ndarray:
        """State evolution by duality: phi_t(A) = phi(A(t))."""
        return self.flow(functional, [t], dual=True)[0]
