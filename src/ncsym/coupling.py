"""Coupling two mechanical systems on the graded tensor product algebra.

Each factor carries a bracket {,} and the compatibility question is whether
one product bracket restricts correctly to both factors.  The obstruction is
scalar: on each factor a least-squares fit of

    lam * {e_i, e_j} = -[e_i, e_j]        (over all basis pairs)

either succeeds with a factor constant lam (0 exactly when the factor is
supercommutative) or the factor is rejected outright.  A product bracket
exists precisely when the two constants agree:

* both zero            -> ExistsCommutative (ordinary product mechanics);
* exactly one zero     -> NoneExistsMixed (no consistent product bracket);
* equal and nonzero    -> ExistsQuantum, with the common lam reported
  (lam = i hbar for brackets of commutator type);
* nonzero and unequal  -> MismatchedParameters.

When the product exists the bracket on Kronecker basis pairs is

    {x (x) y, u (x) v} =
        (-1)**(e_y e_u) ( {x,u} (x) sym(y,v) + sym(x,u) (x) {y,v} )

with sym the graded symmetric product.  For commutator-type factors this is
equal to -[E, F]/lam on the product algebra, which tests exploit as an
independent route.  A second independent route is the operator form

    Y_{A (x) B} = Y_A (x) mu(B) + mu(A) (x) Y_B + lam Y_A (x) Y_B

(mu = left multiplication), valid verbatim for trivially graded factors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import bilinear, left_action, max_abs
from .algebra import (
    Coo,
    Element,
    Superalgebra,
    grassmann_algebra,
    grassmann_derivative_matrices,
    graded_kron,
    tensor_algebra,
)
from .symplectic import HamiltonianSystem, SymplecticStructure, quantum_form

LAMBDA_FIT_TOL = 1e-9


class CouplingError(ValueError):
    pass


@dataclass
class FactorSpec:
    """One side of a coupling: an algebra with a bracket tensor.

    ``pb_tensor`` is the bracket tensor in the convention of
    :mod:`ncsym.symplectic`.  ``lam`` is the fitted proportionality constant
    against minus the supercommutator.
    """

    label: str
    algebra: Superalgebra
    pb_tensor: np.ndarray
    lam: complex
    fit_residual: float
    commutative: bool
    structure: SymplecticStructure | None = None


def _fit_lambda(alg: Superalgebra, pb: np.ndarray) -> tuple[complex, float, bool]:
    """Least squares for lam {e_i,e_j} = -[e_i,e_j]; raises if the bracket
    is not proportional to the supercommutator at all."""
    target = (-alg.commutator_constants).dense()
    den = np.vdot(pb, pb).real
    if den < LAMBDA_FIT_TOL * LAMBDA_FIT_TOL:
        raise CouplingError("factor bracket vanishes identically")
    lam = complex(np.vdot(pb, target) / den)
    residual = float(max_abs(lam * pb - target))
    if residual > LAMBDA_FIT_TOL:
        raise CouplingError(
            f"factor bracket is not proportional to the supercommutator "
            f"(best fit lam = {lam:.6g}, residual {residual:.3e})"
        )
    commutative = bool(alg.is_supercommutative)
    if commutative and abs(lam) > LAMBDA_FIT_TOL:
        raise CouplingError("supercommutative factor fitted a nonzero lam")
    return lam, residual, commutative


def _structure_factor(ss: SymplecticStructure, label: str) -> FactorSpec:
    lam, res, comm = _fit_lambda(ss.algebra, ss.pb_tensor)
    return FactorSpec(label, ss.algebra, ss.pb_tensor, lam, res, comm, structure=ss)


def quantum_factor(alg: Superalgebra, hbar: float) -> FactorSpec:
    return _structure_factor(quantum_form(alg, hbar), f"quantum(hbar={hbar})")


def grassmann_classical_factor(n: int) -> FactorSpec:
    """A supercommutative factor: the Grassmann algebra on n generators with
    the odd canonical bracket {f, g} = -sum_a (right d_a f)(left d_a g),
    normalized so {theta_a, theta_b} = -delta_ab."""
    alg = grassmann_algebra(n)
    dim = alg.dim
    dl, dr = grassmann_derivative_matrices(alg)
    pb = np.zeros((dim, dim, dim), dtype=complex)
    for right, left in zip(dr, dl):
        # pb[i, j] -= (right d e_i)(left d e_j), from the multiplication
        # matrices of the columns of the right derivative
        pb -= (alg.left_mult_matrix(right.T) @ left).transpose(0, 2, 1)
    lam, res, comm = _fit_lambda(alg, pb)
    return FactorSpec(f"grassmannClassical({n})", alg, pb, lam, res, comm)


# -- compatibility verdict ------------------------------------------------------


@dataclass
class CompatibilityReport:
    verdict: str
    lam: complex | None
    factor_lambdas: tuple
    factor_residuals: tuple
    evidence: dict = field(default_factory=dict)

    @property
    def exists(self) -> bool:
        return self.verdict.startswith("Exists")


def product_symplectic(f1: FactorSpec, f2: FactorSpec) -> CompatibilityReport:
    """Decide whether a product bracket exists and with which constant."""
    l1, l2 = f1.lam, f2.lam
    evidence = {
        "factorLabels": [f1.label, f2.label],
        "commutative": [f1.commutative, f2.commutative],
        "lambdaGap": abs(l1 - l2),
    }
    if f1.commutative and f2.commutative:
        verdict, lam = "ExistsCommutative", 0.0 + 0.0j
    elif f1.commutative != f2.commutative:
        # one factor forces lam = 0, the other forces lam != 0
        verdict, lam = "NoneExistsMixed", None
    elif abs(l1 - l2) <= LAMBDA_FIT_TOL:
        verdict, lam = "ExistsQuantum", 0.5 * (l1 + l2)
    else:
        verdict, lam = "MismatchedParameters", None
    return CompatibilityReport(
        verdict, lam, (l1, l2), (f1.fit_residual, f2.fit_residual), evidence
    )


# -- the product structure -------------------------------------------------------


class ProductStructure:
    """The coupled system on tensor_algebra(f1.algebra, f2.algebra)."""

    def __init__(self, f1: FactorSpec, f2: FactorSpec):
        report = product_symplectic(f1, f2)
        if not report.exists:
            raise CouplingError(
                f"no product bracket for these factors: {report.verdict}"
            )
        self.f1 = f1
        self.f2 = f2
        self.report = report
        self.lam = report.lam
        self.algebra = tensor_algebra(f1.algebra, f2.algebra)
        self.pb_tensor = _product_pb_tensor(f1, f2)

    def poisson(self, a: Element, b: Element) -> Element:
        return Element(self.algebra, bilinear(self.pb_tensor, a.coeffs, b.coeffs))

    def poisson_operator(self, h: Element) -> np.ndarray:
        """Matrix of E -> {H, E} on product coefficients."""
        return left_action(self.pb_tensor, h.coeffs)

    def hamiltonian_operator(self, a: Element, b: Element) -> np.ndarray:
        """The three-term operator route for H = A (x) B.

        Only valid verbatim when both factors are trivially graded (the
        Koszul-free case); raises otherwise.
        """
        if np.any(self.f1.algebra.parity) or np.any(self.f2.algebra.parity):
            raise CouplingError(
                "operator form needs trivially graded factors"
            )
        if self.f1.structure is None or self.f2.structure is None:
            raise CouplingError("operator form needs symplectic factors")
        ya = self.f1.structure.poisson_operator(a)
        yb = self.f2.structure.poisson_operator(b)
        la = self.f1.algebra.left_mult_matrix(a.coeffs)
        lb = self.f2.algebra.left_mult_matrix(b.coeffs)
        return np.kron(ya, lb) + np.kron(la, yb) + self.lam * np.kron(ya, yb)


def _product_pb_tensor(f1: FactorSpec, f2: FactorSpec) -> np.ndarray:
    a1, a2 = f1.algebra, f2.algebra
    sym1 = 0.5 * (a1.constants + a1.swapped_structure())
    sym2 = 0.5 * (a2.constants + a2.swapped_structure())
    pb1, pb2 = Coo.of_dense(f1.pb_tensor), Coo.of_dense(f2.pb_tensor)
    return (graded_kron(a1, a2, pb1, sym2) + graded_kron(a1, a2, sym1, pb2)).dense()


# -- coupled dynamics ----------------------------------------------------------


def coupled_evolution(
    prod: ProductStructure, h: Element, observable: Element, times
) -> np.ndarray:
    """Heisenberg trajectory dE/dt = {H, E} on the product algebra, in
    closed form: one row of coefficients per requested time."""
    return HamiltonianSystem(prod, h).flow(observable.coeffs, times)
