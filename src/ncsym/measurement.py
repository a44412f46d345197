"""Measurement models: pointer decoherence, the Stern-Gerlach numbers, a
discrete matrix apparatus cross-check and the hybrid interaction bracket.

The measured observable has eigenvalues lambda_j; the apparatus couples
through an impulsive interaction over a time tau, and the apparatus ready
state is the uniform density on a dimensionless unit interval.  Each
off-diagonal term of the final state carries the oscillatory integral
|int rho_0(s) exp(i kappa s) ds| with

    kappa_jk = |eta_jk| / hbar,    eta_jk = (lambda_k - lambda_j) <K> tau,

which for that density is |2 sin(kappa/2) / kappa|, bounded by
min(1, 2/kappa).  The same action eta separates the pointer branches, so
one number controls both: |eta| >> hbar makes the pointer resolve the
outcomes and simultaneously kills the interference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import expi_hermitian
from .algebra import _basis_vec, kron_element, matrix_algebra
from .coupling import ProductStructure, quantum_factor
from .moyal import hbar_orders, moyal_bracket, star, star_terms
from .states import PObVM, make_state
from .superclassical import SuperFunction, SuperPBMatrix, super_poisson
from .symplectic import HamiltonianSystem

SUPPRESSION_SERIES_CUT = 1e-8
# Largest gap between the two routes of the matrix apparatus cross-check.
CROSSCHECK_TOL = 1e-6
# Largest off-diagonal residual that still counts as a statistical mixture.
MIXTURE_TOL = 1e-7
# Midpoint-rule nodes for a pointer readout averaged over its interval.
POINTER_QUADRATURE_POINTS = 513


class MeasurementError(ValueError):
    pass


def _check_positive(**values: float) -> None:
    """Raise unless every value is finite and positive."""
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0):
            raise MeasurementError(f"{name} must be finite and positive, got {value}")


def uniform_suppression(kappa: float) -> float:
    """|2 sin(kappa/2) / kappa| with a series for tiny arguments."""
    kappa = abs(float(kappa))
    if kappa < SUPPRESSION_SERIES_CUT:
        return 1.0 - kappa**2 / 24.0
    return abs(2.0 * np.sin(0.5 * kappa) / kappa)


def suppression_sweep(kappas) -> np.ndarray:
    return np.array([uniform_suppression(k) for k in np.asarray(kappas, dtype=float)])


@dataclass
class MeasurementModel:
    """Impulsive coupling of eigenvalues lambda_j to an apparatus variable
    with ready-state mean <K> = k_mean over the interaction time tau."""

    lambdas: np.ndarray
    amplitudes: np.ndarray
    k_mean: float
    tau: float
    hbar: float

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float)
        if not np.all(np.isfinite(lam)):
            raise MeasurementError("eigenvalues must be finite")
        if lam.size != np.unique(lam).size:
            raise MeasurementError("eigenvalues must be pairwise distinct")
        self.lambdas = lam
        c = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(c)
        if not (np.isfinite(norm) and norm > 0):
            raise MeasurementError("amplitudes must be finite and not all zero")
        if c.size != lam.size:
            raise MeasurementError("one amplitude per eigenvalue")
        self.amplitudes = c / norm
        _check_positive(tau=self.tau, hbar=self.hbar)
        if not np.isfinite(self.k_mean):
            raise MeasurementError(f"k_mean must be finite, got {self.k_mean}")
        # a vanishing coupling mean never separates the branches; keep the
        # model constructible but flag it
        self.degenerate_signal = self.k_mean == 0.0

    def eta(self, j: int, k: int) -> float:
        """Action separating branches j and k through the mean coupling."""
        return (self.lambdas[k] - self.lambdas[j]) * self.k_mean * self.tau

    def kappa(self, j: int, k: int) -> float:
        return abs(self.eta(j, k)) / self.hbar

    def interference_magnitude(self, j: int, k: int) -> float:
        if j == k:
            raise MeasurementError("interference needs two distinct branches")
        return uniform_suppression(self.kappa(j, k))

    def reduced_final_state(self) -> dict:
        """Pointer-traced density after the interaction.

        Diagonal entries are exactly |c_j|**2; every off-diagonal entry is
        bounded by |c_j c_k| times the interference magnitude; the largest
        bound, ``offDiagonalResidual``, makes the result a statistical mixture
        at MIXTURE_TOL when it is at most that, and ``pointerResolved`` says
        whether the pointer actually separates the branches.
        """
        n = self.lambdas.size
        probs = np.abs(self.amplitudes) ** 2
        residual = 0.0
        ratios = []
        for j in range(n):
            for k in range(j + 1, n):
                mag = self.interference_magnitude(j, k)
                residual = max(
                    residual, abs(self.amplitudes[j] * self.amplitudes[k]) * mag
                )
                ratios.append(self.kappa(j, k))
        pointer_ok = (not self.degenerate_signal) and all(r > 1.0 for r in ratios)
        return {
            "probabilities": probs,
            "offDiagonalResidual": float(residual),
            "pointerResolved": bool(pointer_ok),
            "signalRatios": ratios,
        }


# -- classical pointer readout ---------------------------------------------------


class PointerObservable:
    """A classical pointer: disjoint labeled intervals with assigned values."""

    def __init__(self, intervals: dict[str, tuple[float, float]], values: dict[str, float]):
        items = sorted(intervals.items(), key=lambda kv: kv[1][0])
        for (_, (a1, b1)), (_, (a2, b2)) in zip(items, items[1:]):
            if b1 > a2:
                raise MeasurementError("pointer intervals overlap")
        for lab, (a, b) in intervals.items():
            if not a < b:
                raise MeasurementError(f"empty interval for {lab!r}")
        if set(values) != set(intervals):
            raise MeasurementError("interval and value labels differ")
        vals = list(values.values())
        if len(vals) != len(set(vals)):
            raise MeasurementError("duplicate values: outcomes must be distinguishable")
        self.intervals = dict(intervals)
        self.values = dict(values)

    def classify(self, z: float) -> str | None:
        for lab, (a, b) in self.intervals.items():
            if a <= z <= b:
                return lab
        return None

    def value(self, z: float) -> float:
        lab = self.classify(z)
        if lab is None:
            raise MeasurementError(f"pointer position {z} is outside every interval")
        return self.values[lab]

    def uniform_expectation(self, label: str) -> float:
        """Expected readout value for a branch spread uniformly over its
        interval.

        The value function is constant on the interval, so the quadrature
        average reproduces the assigned value exactly; computing it by
        integration anyway keeps the readout honest about what is being
        averaged."""
        a, b = self.intervals[label]
        n = POINTER_QUADRATURE_POINTS
        zs = a + (np.arange(n) + 0.5) * (b - a) / n
        vals = np.array([self.value(z) for z in zs])
        return float(vals.mean())


# -- the Stern-Gerlach numbers (CGS) ------------------------------------------------


def stern_gerlach() -> dict:
    """Order-of-magnitude audit of a silver-atom beam apparatus, CGS units.

    Geometry is given by stations along the beam axis: the magnet gap runs
    from z1 to z2 transversally, the beam enters at x1, leaves the magnet at
    x2 and hits the screen at x3.  The branch-separating action is
    eta = mu |b1| (z2 - z1) tau with mu the magnetic moment, b1 the field
    gradient and tau = (x3 - x1) / velocity the time of flight.  A huge
    eta / hbar is what makes the device a measurement rather than an
    interference experiment.
    """
    params = {
        "magneticMoment": 0.9e-20,   # erg / gauss
        "fieldGradient": 1.0e5,      # gauss / cm
        "z1": -0.05,                 # cm, magnet gap bottom
        "z2": 0.05,                  # cm, magnet gap top
        "x1": 0.0,                   # cm, magnet entry
        "x2": 3.0,                   # cm, magnet exit
        "x3": 23.0,                  # cm, detection screen
        "velocity": 5.0e4,           # cm / s
        "hbar": 1.1e-27,             # erg s
    }
    tau = (params["x3"] - params["x1"]) / params["velocity"]
    eta = (
        params["magneticMoment"]
        * abs(params["fieldGradient"])
        * (params["z2"] - params["z1"])
        * tau
    )
    ratio = abs(eta) / params["hbar"]
    return {"tau": tau, "eta": eta, "ratio": ratio, "params": params}


# -- discrete matrix apparatus -------------------------------------------------------


def matrix_apparatus_crosscheck() -> dict:
    """A finite apparatus where the measurement dynamics is exact.

    The pointer is a cyclic register of size d = 3 and the measured
    observable F has eigenvalues 0 and 1 with amplitudes (0.6, 0.8i); the
    interaction runs for tau = 0.9 at hbar = 1.  With K diagonalized by the
    discrete Fourier basis at frequencies nu_q = 2 pi hbar q / (tau d), the
    coupled evolution exp(-i tau (F (x) K) / hbar) shifts the pointer by
    exactly lambda_j (mod d) on branch j.  The check runs the same dynamics
    twice: once by direct matrix exponentiation, once through the product
    bracket and functional evolution, and reads pointer probabilities
    through a positive observable resolution.
    """
    lambdas = np.array([0.0, 1.0])
    c = np.array([0.6, 0.8j])
    c = c / np.linalg.norm(c)
    tau, hbar = 0.9, 1.0
    n, d = lambdas.size, 3
    fmat = np.diag(lambdas)
    q = np.arange(d)
    w = np.exp(2j * np.pi * np.outer(q, q) / d) / np.sqrt(d)
    kmat = w @ np.diag(2 * np.pi * hbar * q / (tau * d)) @ w.conj().T
    hmat = np.kron(fmat, kmat)

    # direct route
    psi0 = np.kron(c, _basis_vec(d, 0))
    psi_t = expi_hermitian(-tau * hmat / hbar) @ psi0
    direct = np.zeros(d)
    for m in range(d):
        block = psi_t.reshape(n, d)[:, m]
        direct[m] = float(np.sum(np.abs(block) ** 2))

    # product bracket route
    sys_alg = matrix_algebra(n)
    app_alg = matrix_algebra(d)
    prod = ProductStructure(quantum_factor(sys_alg, hbar), quantum_factor(app_alg, hbar))
    f_el = sys_alg.element(sys_alg.coeffs_from_matrix(fmat))
    k_el = app_alg.element(app_alg.coeffs_from_matrix(kmat))
    h_el = kron_element(prod.algebra, f_el, k_el)
    rho0 = np.outer(psi0, psi0.conj())
    phi0 = np.array(
        [np.trace(rho0 @ prod.algebra.rep_basis[i]) for i in range(prod.algebra.dim)]
    )
    phi_t = HamiltonianSystem(prod, h_el).evolve_functional(phi0, tau)
    state_t = make_state(prod.algebra, "functional", phi_t)
    effects = {}
    eye_sys = sys_alg.unit
    for m in range(d):
        proj = np.outer(_basis_vec(d, m), _basis_vec(d, m))
        effects[str(m)] = kron_element(
            prod.algebra, eye_sys, app_alg.element(app_alg.coeffs_from_matrix(proj))
        )
    povm = PObVM(prod.algebra, effects)
    bracket_route = np.array(
        [povm.probability(state_t, str(m)) for m in range(d)]
    )

    expected = np.zeros(d)
    for j, lam in enumerate(lambdas):
        expected[int(lam) % d] += abs(c[j]) ** 2
    return {"direct": direct, "bracketRoute": bracket_route, "expected": expected}


# -- hybrid interaction bracket -------------------------------------------------------


def hybrid_interaction_bracket(
    fmat: np.ndarray,
    amat: np.ndarray,
    kpoly: SuperFunction,
    jpoly: SuperFunction,
    hbar: float,
    route: str = "star",
) -> np.ndarray:
    """{F (x) K, A (x) J} for a matrix factor and a phase space factor.

    ``route="star"`` is the exact product bracket: the matrix bracket pairs
    with the symmetrized star product and the matrix symmetric product
    pairs with the Moyal bracket.  ``route="classical"`` replaces both
    phase space combinations by their hbar -> 0 limits, so the routes
    share their hbar**-1 and hbar**0 orders.  Entries of the
    returned object array are phase space polynomials.
    """
    fmat = np.asarray(fmat, dtype=complex)
    amat = np.asarray(amat, dtype=complex)
    qbr = (1j / hbar) * (fmat @ amat - amat @ fmat)
    sym = 0.5 * (fmat @ amat + amat @ fmat)
    if route == "star":
        pol_sym = 0.5 * (star(kpoly, jpoly, hbar) + star(jpoly, kpoly, hbar))
        pol_br = moyal_bracket(kpoly, jpoly, hbar)
    elif route == "classical":
        pol_sym = kpoly * jpoly
        pol_br = super_poisson(kpoly, jpoly, SuperPBMatrix.canonical_even(1))
    else:
        raise MeasurementError(f"unknown route {route!r}")
    n = fmat.shape[0]
    out = np.empty((n, n), dtype=object)
    for r in range(n):
        for s in range(n):
            out[r, s] = qbr[r, s] * pol_sym + sym[r, s] * pol_br
    return out


def hybrid_order_report(fmat, amat, kpoly, jpoly) -> dict:
    """The hbar orders of both bracket routes, read off by ``hbar_orders``
    from hbar**-1 to hbar**2 (both routes times hbar are polynomials of
    degree at most three in hbar when K or J has degree two or less).

    The hbar**-1 and hbar**0 orders must agree between the routes; the
    star route's hbar**1 order must be i[F, A] S_2, with S_2 the
    symmetrized order-2 star term, and its hbar**2 order must vanish, as
    must every classical order above hbar**0.  ``residual`` is the worst of
    these, relative to max(1, the largest star order); ``orderOneSize`` is
    the hbar**1 order on the same scale, which is zero when [F, A] S_2 is.
    """
    kj, jk = star_terms(kpoly, jpoly), star_terms(jpoly, kpoly)
    if len(kj) > 3:
        raise MeasurementError("the star series of K and J has more than three orders")
    sym2 = 0.5 * (kj[2] + jk[2]) if len(kj) == 3 else SuperFunction(2, 0)
    fmat = np.asarray(fmat, dtype=complex)
    amat = np.asarray(amat, dtype=complex)

    def route(name):
        return lambda hb: list(
            hybrid_interaction_bracket(fmat, amat, kpoly, jpoly, hb, name).flat
        )

    quantum = hbar_orders(route("star"), lowest=-1)
    classical = hbar_orders(route("classical"), lowest=-1)
    want = [1j * c * sym2 for c in (fmat @ amat - amat @ fmat).flat]
    gaps = [(q - c).norm() for n in (0, 1) for q, c in zip(quantum[n], classical[n])]
    gaps += [(q - w).norm() for q, w in zip(quantum[2], want)]
    gaps += [f.norm() for f in quantum[3] + classical[2] + classical[3]]
    scale = max(1.0, max(f.norm() for order in quantum for f in order))
    return {
        "residual": max(gaps) / scale,
        "orderOneSize": max(f.norm() for f in quantum[2]) / scale,
    }
