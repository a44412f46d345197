"""States, observable-valued measures, compatibility checks and the GNS
build.

A state is a normalized positive even linear functional: phi(1) = 1,
phi(A*A) >= 0, phi hermitian (phi(A*) = conj(phi(A))) and vanishing on odd
elements.  Positivity over the whole algebra is equivalent to positive
semidefiniteness of the Gram matrix G[i, j] = phi(e_i* e_j), which is what
gets checked, with an explicit witness element when it fails.

Realizations accepted by :func:`make_state`:

* ``densityMatrix``: a density matrix in the algebra's matrix realization,
  phi(A) = Tr(rho A);
* ``functional``: the raw vector phi(e_i);
* ``berezinDensity``: a density element rho of a Grassmann algebra,
  phi(f) = integral of f rho over the generators (top-coefficient
  extraction, integration measure d theta_1 .. d theta_n applied from the
  right, so the integral of theta_n .. theta_1 is +1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import max_abs, nullspace
from .algebra import Element, Superalgebra, realization_defects

STATE_TOL = 1e-10
# Gate on normalization, hermiticity and positivity of a state and of a
# density matrix, and on the effects and probabilities of a PObVM;
# odd-vanishing alone is gated at STATE_TOL.
STATE_GATE = 1e-9
# Values closer than this count as equal in the separation check.
SEPARATION_TOL = 1e-9
# Relative eigenvalue threshold for GNS rank decisions.
GNS_RANK_RTOL = 1e-10


class StateError(ValueError):
    pass


@dataclass
class State:
    """A state stored by its values on the basis, phi(e_i)."""

    algebra: Superalgebra
    functional: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.functional, dtype=complex).reshape(-1)
        if f.shape != (self.algebra.dim,):
            raise StateError("functional vector has wrong length")
        f.flags.writeable = False
        object.__setattr__(self, "functional", f)

    def expectation(self, a: Element) -> complex:
        if a.algebra is not self.algebra:
            raise StateError("element lives in a different algebra")
        return complex(self.functional @ a.coeffs)


def gram_matrix(alg: Superalgebra, functional: np.ndarray) -> np.ndarray:
    """G[i, j] = phi(e_i* e_j)."""
    f = np.asarray(functional, dtype=complex)
    # phi(e_a e_j) = sum_b c[a, j, b] f[b], scattered from the nonzero
    # constants; column i of the involution matrix holds star(e_i)
    c = alg.constants
    values = np.zeros((alg.dim, alg.dim), dtype=complex)
    np.add.at(values, (c.i, c.j), c.v * f[c.k])
    return alg.involution_matrix.T @ values


def validate_state_functional(alg: Superalgebra, functional: np.ndarray) -> dict:
    """Normalization, hermiticity, odd-vanishing, Gram positivity.

    All are gated at STATE_GATE (positivity relative to the largest Gram
    eigenvalue when that exceeds 1) except odd-vanishing alone, which is
    gated at STATE_TOL.
    Returns an evidence dict; raises StateError with a witness description
    on the first violated condition.
    """
    f = np.asarray(functional, dtype=complex).reshape(-1)
    norm = f @ alg.unit_coeffs
    if abs(norm - 1.0) > STATE_GATE:
        raise StateError(f"state is not normalized, phi(1) = {norm}")
    odd = max_abs(f[alg.parity == 1])
    if odd > STATE_TOL:
        idx = int(np.argmax(np.abs(f * (alg.parity == 1))))
        raise StateError(
            f"state does not vanish on the odd part (phi({alg.labels[idx]}) "
            f"= {f[idx]:.3e})"
        )
    herm = max_abs(alg.involution_matrix.T @ f - np.conj(f))
    if herm > STATE_GATE:
        raise StateError(f"state is not hermitian (defect {herm:.3e})")
    g = gram_matrix(alg, f)
    evals = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    scale = max(1.0, float(evals[-1]))
    if evals[0] < -STATE_GATE * scale:
        # produce a witness element A with phi(A* A) < 0
        _, vecs = np.linalg.eigh(0.5 * (g + g.conj().T))
        witness = vecs[:, 0]
        raise StateError(
            f"state is not positive: phi(A*A) = {evals[0]:.3e} for the "
            f"witness coefficient vector {np.round(witness, 6).tolist()}"
        )
    return {"gram_min": float(evals[0]), "gram_max": float(evals[-1])}


def make_state(alg: Superalgebra, realization: str, data) -> State:
    if realization == "functional":
        f = np.asarray(data, dtype=complex)
        validate_state_functional(alg, f)
        return State(alg, f)
    if realization == "densityMatrix":
        rho = np.asarray(data, dtype=complex)
        if alg.rep_basis is None:
            raise StateError("algebra has no matrix realization")
        tr = np.trace(rho)
        if abs(tr - 1.0) > STATE_GATE:
            raise StateError(f"density matrix has trace {tr}")
        if max_abs(rho - rho.conj().T) > STATE_GATE:
            raise StateError("density matrix is not hermitian")
        evals = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if evals[0] < -STATE_GATE:
            raise StateError(f"density matrix has negative eigenvalue {evals[0]:.3e}")
        f = np.array(
            [np.trace(rho @ alg.rep_basis[k]) for k in range(alg.dim)]
        )
        validate_state_functional(alg, f)
        return State(alg, f)
    if realization == "berezinDensity":
        rho = data.coeffs if isinstance(data, Element) else np.asarray(data, dtype=complex)
        f = berezin_pairing(alg) @ rho
        validate_state_functional(alg, f)
        return State(alg, f)
    raise StateError(f"unknown realization {realization!r}")


def berezin_integral_coeffs(alg: Superalgebra, coeffs: np.ndarray):
    """Integral over all generators: top-monomial coefficient with the sign
    (-1)**(n(n-1)/2) (the measure d theta_1 .. d theta_n acts from the right,
    so the integral of theta_1 .. theta_n in ascending order carries that
    reordering sign while theta_n .. theta_1 integrates to +1).  A stack of
    coefficient vectors (..., dim) gives the stack of their integrals."""
    n = int(alg.kind["n"])
    sign = -1.0 if (n * (n - 1) // 2) % 2 else 1.0
    return sign * coeffs[..., alg.dim - 1]


def berezin_pairing(alg: Superalgebra) -> np.ndarray:
    """P[i, j] = integral of e_i e_j: the density rho gives the functional
    phi = P @ rho, phi(e_i) = integral of e_i rho."""
    if alg.kind.get("form") != "grassmann":
        raise StateError("berezin densities need a Grassmann algebra")
    # left_mult_matrix(e_i)[k, j] is the e_k coefficient of e_i e_j
    return berezin_integral_coeffs(alg, alg.left_mult_matrix(np.eye(alg.dim)).swapaxes(1, 2))


def vector_state(alg: Superalgebra, psi: np.ndarray) -> State:
    """The pure state of a unit vector in the matrix realization."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    return make_state(alg, "densityMatrix", np.outer(psi, psi.conj()))


def tracial_state(alg: Superalgebra) -> State:
    if alg.rep_basis is None:
        raise StateError("algebra has no matrix realization")
    n = alg.rep_basis.shape[1]
    return make_state(alg, "densityMatrix", np.eye(n) / n)


# -- positive operator valued measures --------------------------------------------


class PObVM:
    """A positive-observable-valued measure with finitely many outcomes."""

    def __init__(self, alg: Superalgebra, effects: dict[str, Element]) -> None:
        self.algebra = alg
        self.effects = dict(effects)
        total = np.zeros(alg.dim, dtype=complex)
        for label, e in self.effects.items():
            if max_abs(e.star().coeffs - e.coeffs) > STATE_GATE:
                raise StateError(f"effect {label!r} is not hermitian")
            if alg.rep_basis is not None:
                evs = np.linalg.eigvalsh(
                    0.5 * (e.realize() + e.realize().conj().T)
                )
                if evs[0] < -STATE_GATE:
                    raise StateError(
                        f"effect {label!r} has negative part {evs[0]:.3e}"
                    )
            total = total + e.coeffs
        if max_abs(total - alg.unit_coeffs) > STATE_GATE:
            raise StateError("effects do not resolve the unit")

    def probability(self, phi: State, event) -> float:
        """phi(nu(E)) for an outcome label or an iterable of labels."""
        labels = [event] if isinstance(event, str) else list(event)
        total = 0.0 + 0.0j
        for lab in labels:
            total += phi.expectation(self.effects[lab])
        if abs(total.imag) > STATE_GATE:
            raise StateError("probability came out non-real")
        p = float(total.real)
        if p < -STATE_GATE or p > 1 + STATE_GATE:
            raise StateError(f"probability {p} outside [0, 1]")
        return min(1.0, max(0.0, p))


# -- compatibility (separation) check ----------------------------------------------


def cc_check(obs: list[Element], states: list[State]) -> dict:
    """Do pure states separate observables and observables separate states?

    Clause (i): for any two different observables there is a state telling
    them apart.  Clause (ii): for any two different states there is an
    observable telling them apart.  Both clauses are scanned pairwise over
    the given observables and pure states, and the first unseparated pair is
    returned as a witness.  Values closer than SEPARATION_TOL count as equal.
    """
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            if max_abs(obs[i].coeffs - obs[j].coeffs) < SEPARATION_TOL:
                continue
            if not any(
                abs(phi.expectation(obs[i]) - phi.expectation(obs[j])) > SEPARATION_TOL
                for phi in states
            ):
                return {
                    "verdict": False,
                    "clause": "statesSeparateObservables",
                    "witness": {"observables": [i, j]},
                }
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            if max_abs(states[i].functional - states[j].functional) < SEPARATION_TOL:
                continue
            if not any(
                abs(states[i].expectation(a) - states[j].expectation(a)) > SEPARATION_TOL
                for a in obs
            ):
                return {
                    "verdict": False,
                    "clause": "observablesSeparateStates",
                    "witness": {"states": [i, j]},
                }
    return {"verdict": True, "witness": None}


# -- GNS construction ---------------------------------------------------------------


@dataclass
class GnsResult:
    dimension: int
    cyclic_vector: np.ndarray
    irreducible: bool
    commutant_dimension: int
    null_space_dimension: int
    reproduction_residual: float
    homomorphism_residual: float
    star_residual: float


def gns(alg: Superalgebra, phi: State) -> GnsResult:
    """Cyclic representation from a state.

    The carrier space is the algebra modulo the null space of the Gram
    matrix G[i,j] = phi(e_i* e_j); coordinates xi(a) = S**(1/2) V^dag a
    where G = V S V^dag is the spectral decomposition restricted to
    eigenvalues above GNS_RANK_RTOL times the largest.
    """
    g = gram_matrix(alg, phi.functional)
    g = 0.5 * (g + g.conj().T)
    evals, vecs = np.linalg.eigh(g)
    smax = float(evals[-1])
    keep = evals > GNS_RANK_RTOL * smax
    s = evals[keep]
    v = vecs[:, keep]
    d = int(keep.sum())
    sqrt_s = np.sqrt(s)
    down = sqrt_s[:, None] * v.conj().T        # xi: C^dim -> C^d
    lift = v / sqrt_s[None, :]                 # section: C^d -> C^dim
    ops = down @ alg.left_mult_matrix(np.eye(alg.dim)) @ lift
    chi = down @ alg.unit_coeffs
    # diagnostics: state reproduction, homomorphism, star compatibility
    rep_res = 0.0
    for k in range(alg.dim):
        val = chi.conj() @ (ops[k] @ chi)
        rep_res = max(rep_res, abs(val - phi.functional[k]))
    hom_res = max_abs(realization_defects(alg.constants, ops))
    # column k of the involution matrix holds star(e_k)
    starred = np.tensordot(alg.involution_matrix.T, ops, axes=1)
    star_res = max_abs(starred - ops.conj().transpose(0, 2, 1))
    # commutant: all T with [pi(e_k), T] = 0
    eye = np.eye(d)
    rows = []
    for k in range(alg.dim):
        rows.append(np.kron(ops[k], eye) - np.kron(eye, ops[k].T))
    comm_dim = nullspace(np.vstack(rows)).shape[1]
    return GnsResult(
        dimension=d,
        cyclic_vector=chi,
        irreducible=(comm_dim == 1),
        commutant_dimension=int(comm_dim),
        null_space_dimension=alg.dim - d,
        reproduction_residual=float(rep_res),
        homomorphism_residual=float(hom_res),
        star_residual=float(star_res),
    )
