"""Named check suites.

Each suite runs a fixed battery of numerical certifications and returns a
:class:`ncsym.report.Report`.  Every suite is deterministic given its seed,
so reports can be compared byte for byte.  The command line tool and the
acceptance tests both call these functions.
"""
from __future__ import annotations

import itertools

import numpy as np

from ._linalg import expi_hermitian, rk4_trajectory, worst
from .algebra import Element, grassmann_algebra, koszul_signs, matrix_algebra
from .calculus import (
    _CHUNK_ENTRIES,
    DERIVATION_TOL,
    AlgebraIsomorphism,
    Cochain,
    DerivationFamily,
    exterior_derivative,
    interior,
    lie_derivative,
    pullback,
    superderivation_residuals,
    wedge,
)
from .coupling import (
    ProductStructure,
    grassmann_classical_factor,
    product_symplectic,
    quantum_factor,
)
from .measurement import (
    CROSSCHECK_TOL,
    MIXTURE_TOL,
    MeasurementModel,
    PointerObservable,
    hybrid_order_report,
    matrix_apparatus_crosscheck,
    stern_gerlach,
    suppression_sweep,
    uniform_suppression,
)
from .moyal import (
    associator_residuals,
    classical_limit_report,
    moyal_bracket,
    oscillator_first_excited,
    oscillator_ground_state,
    star,
    star_integral,
    wigner_function,
)
from .report import Report, merge
from .states import (
    STATE_TOL,
    berezin_integral_coeffs,
    berezin_pairing,
    gns,
    tracial_state,
    vector_state,
)
from .superclassical import (
    SuperPBMatrix,
    SuperFunction,
    berezin_integral,
    g3_unique_state,
    super_poisson,
    superfunction_from_element,
    variables,
)
from .symplectic import HamiltonianSystem, quantum_form

IDENTITY_TOL = 1e-9
CALCULUS_TOL = 1e-10
CALCULUS_ROWS = ("ddZero", "cartan", "lieBracket", "wedgeLeibniz", "pullbackWedge",
                 "pullbackDifferential")
COUPLING_KRON_TOL = 1e-12
GNS_TOL = 1e-10
MOYAL_ASSOC_TOL = 1e-10
EVOLVE_TOL = 1e-8
EVOLVE_TMAX = 10.0
# The exact hbar-order rows: pinned tolerance on the order residuals, and the
# relative size the first order beyond the classical limit must exceed.
ORDER_TOL, ORDER_FLOOR = 1e-12, 1e-8
# The Wigner and integral kernel routes of moyal-limit: pinned tolerance,
# phase space grids (span and points per axis) and the kernel's points xi.
WIGNER_TOL = 1e-6
WIGNER_SPAN, WIGNER_POINTS = 7.0, 101
KERNEL_SPAN, KERNEL_POINTS = 6.0, 81
KERNEL_XI = ((0.0, 0.0), (0.3, -0.5), (1.1, 0.4))


ALGEBRA_ALIASES = {
    "m2": "matrix2",
    "m3": "matrix3",
    "m11": "graded11",
    "g11": "graded11",
}


# the algebra presets: matrix_algebra arguments by name
BRACKET_CASES = {
    "matrix2": (2, None),
    "matrix3": (3, None),
    "graded11": (2, (1, 1)),
}


def _bracket_case_algebras(only: str | None = None, default=tuple(BRACKET_CASES)):
    """(name, algebra) for the preset ``only`` names, or for the ``default``
    names; only the picked presets are built."""
    names = default
    if only is not None:
        names = (ALGEBRA_ALIASES.get(only, only),)
        if names[0] not in BRACKET_CASES:
            raise ValueError(f"unknown algebra preset {only!r}")
    return [(name, matrix_algebra(*BRACKET_CASES[name])) for name in names]


def identity_suite(
    seed: int = 0,
    tol: float = IDENTITY_TOL,
    only: str | None = None,
) -> Report:
    """Bracket axioms for the quantum structure on small (super)matrix
    algebras, on every basis pair and triple: graded antisymmetry, the
    Leibniz rule, the Jacobi identity, reality, annihilation of the unit and
    the operator compatibility [Y_a, Y_b] = Y_{a,b}.  Each axiom is
    multilinear in its arguments (reality antilinear), so the basis check
    is exact for every homogeneous input."""
    rep = Report("identity", seed, meta={"hbar": 1.0})
    for label, alg in _bracket_case_algebras(only):
        ss = quantum_form(alg, 1.0)
        par = alg.parity
        # ys[a] = Y_a, the matrix of B -> {e_a, B}, through the gated public
        # call; pb[a, b] = {e_a, e_b} is its column b
        ys = np.array([ss.poisson_operator(alg.basis_element(a)) for a in range(alg.dim)])
        pb = ys.transpose(0, 2, 1)
        eta = koszul_signs(par, par)
        m = alg.involution_matrix
        # {e_a, {e_b, e_c}}, {{e_a, e_b}, e_c} and {e_b, {e_a, e_c}} at [a, b, c]
        inner = np.einsum("akl,bcl->abck", ys, pb)
        outer = np.einsum("abl,lck->abck", pb, pb)
        swapped = inner.transpose(1, 0, 2, 3)
        # [Y_a, Y_b] against Y_{e_a, e_b}, which is linear in {e_a, e_b}
        y_of_pb = np.tensordot(pb, ys, axes=(2, 0))
        comm = ys[:, None] @ ys[None, :] - eta[:, :, None, None] * (ys[None, :] @ ys[:, None])
        leibniz = np.empty(alg.dim)
        for t in (0, 1):
            leibniz[par == t] = superderivation_residuals(alg, ys[par == t], t)
        # per input: the largest output coefficient, one axis per basis slot
        residuals = {
            "antisymmetry": np.abs(pb + eta[:, :, None] * pb.swapaxes(0, 1)).max(axis=-1),
            "leibniz": leibniz,
            "jacobi": np.abs(inner - outer - eta[:, :, None, None] * swapped).max(axis=-1),
            # {e_a, e_b}* against {e_a*, e_b*}; column a of m is e_a*
            "reality": np.abs(
                np.conj(pb) @ m.T - np.einsum("ia,jb,ijk->abk", m, m, pb)
            ).max(axis=-1),
            # {e_a, 1} and {1, e_a}
            "unit": np.maximum(
                np.abs(ys @ alg.unit_coeffs).max(axis=1),
                np.abs(ss.poisson_operator(alg.unit)).max(axis=0),
            ),
            "hamiltonianBracket": np.abs(comm - y_of_pb).max(axis=(2, 3)),
        }
        for axiom, values in residuals.items():
            rep.residual(f"{label}.{axiom}", values, tol, labels=[alg.labels] * values.ndim)
    return rep


def _note(rows: dict, name: str, gap: np.ndarray, slots: int) -> None:
    """Append a block's largest |entry| per input to a row: the ``slots``
    argument axes (first) and the algebra axis (last) are reduced, and the
    stack axes between them (members, basis cochains) stay in order.  The
    reduction runs on re**2 + im**2, with one square root per input; a NaN
    stays NaN."""
    sq = np.square(gap.real)
    sq += np.square(gap.imag)
    sq = sq.max(axis=-1)
    if slots:
        sq = sq.reshape((-1,) + sq.shape[slots:]).max(axis=0)
    rows[name].append(np.sqrt(sq).ravel())


def _lie_bracket_gap(w: Cochain, lw: np.ndarray) -> np.ndarray:
    """L_[Xa, Xb] w - [L_Xa, L_Xb] w for every ordered member pair (a, b),
    as (m,) * p + (a, b) + S + (dim,), from lw = L_Xc w along the family:
    L_Xa L_Xb w is one more call on lw, whose entry b has parity
    e_w + e_b, and L_[Xa, Xb] w = f[a, b, c] L_Xc w."""
    fam, p = w.family, w.degree
    fp, m = fam.parities, len(fam)
    lw_stack = Cochain(fam, p, w.parity, lw, check=False)
    llw = lie_derivative(fam, lw_stack, parity=(w.parity + fp)[:, None])
    # (L_Xa L_Xb - (-1)**(e_a e_b) L_Xb L_Xa) w, subtracted from the bracket side
    gap = np.multiply(koszul_signs(fp, fp)[:, :, None, None], llw.swapaxes(p, p + 1), order="C")
    np.subtract(llw, gap, out=gap)
    lhs = fam.bracket.reshape(m * m, m) @ lw.reshape(m**p, m, -1)
    return np.subtract(lhs.reshape(gap.shape), gap, out=gap)


def _calculus_stack_rows(rows: dict, iso, basis: Cochain):
    """The ddZero, cartan, lieBracket and pullbackDifferential rows on the
    basis stack of one degree and parity, with the family members as a
    stack axis: Cartan for every member X, [L_X, L_Y] = L_[X, Y] for every
    ordered member pair ([X, Y] from the family's bracket table).  Every
    kernel runs on blocks of the stack, so that d(d w) and L L w of a block
    stay within the differential's chunk bound.  Below degree 2 it returns
    d and the pullback of the basis, joined over the blocks."""
    fam, degree = basis.family, basis.degree
    fp, m = fam.parities, len(fam)
    # Cartan's sign (-1)**(e_X e_w) per member
    eta = np.where(fp * basis.parity, -1.0, 1.0)[:, None, None]
    per = max(1, _CHUNK_ENTRIES // (m ** (degree + 2) * fam.algebra.dim))
    kept = []
    for lo in range(0, basis.stack[0], per):
        w = basis.member(slice(lo, lo + per))
        dw = exterior_derivative(w)
        _note(rows, "ddZero", exterior_derivative(dw).tensor, degree + 2)
        # lw[.., a, s, :] = L_Xa w_s, of parity e_w + e_a
        lw = lie_derivative(fam, w)
        # i_X d w + d i_X w, with d once per member parity
        homotopy = interior(fam, dw)
        if degree:
            iw = interior(fam, w)
            for t in np.unique(fp):
                on = fp == t
                part = Cochain(fam, degree - 1, w.parity + t, iw[..., on, :, :], check=False)
                homotopy[..., on, :, :] += exterior_derivative(part).tensor
        _note(rows, "cartan", homotopy - eta * lw, degree)
        _note(rows, "lieBracket", _lie_bracket_gap(w, lw), degree)
        if degree <= 1:
            pw = pullback(iso, w)
            gap = pullback(iso, dw) - exterior_derivative(pw)
            _note(rows, "pullbackDifferential", gap.tensor, degree + 1)
            kept.append((dw, pw))
    joined = [np.concatenate([c.tensor for c in made], axis=-2) for made in zip(*kept)]
    return [Cochain(fam, t.ndim - 2, basis.parity, t, check=False) for t in joined]


def _wedge_rows(rows: dict, iso, ones: list[tuple]) -> None:
    """wedgeLeibniz and pullbackWedge on every pair of basis 1-cochains of
    every two parities: a block of left factors is wedged with the whole
    right stack, the block sized so that its d stays within the chunk bound,
    and each row takes pair (i, j) as input i * nb + j.  ``ones`` holds, per
    parity, the basis 1-cochains with their d and their pullback."""
    fam = ones[0][0].family
    budget = _CHUNK_ENTRIES // (len(fam) ** 3 * fam.algebra.dim)
    for (left, d_left, p_left), (right, d_right, p_right) in itertools.product(ones, ones):
        per = max(1, budget // right.stack[0])
        for lo in range(0, left.stack[0], per):
            block = slice(lo, lo + per)
            a = left.member(block)
            ab = wedge(a, right)
            leibniz = exterior_derivative(ab) - (
                wedge(d_left.member(block), right) - wedge(a, d_right)
            )
            _note(rows, "wedgeLeibniz", leibniz.tensor, 3)
            hom = pullback(iso, ab) - wedge(p_left.member(block), p_right)
            _note(rows, "pullbackWedge", hom.tensor, 2)


def calculus_suite(
    seed: int = 0,
    tol: float = CALCULUS_TOL,
    only: str | None = None,
) -> Report:
    """Differential calculus on inner derivation families: d is a
    differential, the Cartan homotopy formula, the wedge Leibniz rule,
    Lie derivatives representing the derivation bracket, and pullback
    along automorphisms acting as a homomorphism commuting with d.

    Each identity is linear in its cochain and family members (the wedge
    rows bilinear in their pair), so it runs exactly on the basis stacks of
    degree p <= 2, every member and member pair, and every pair of basis
    1-cochains; each row records how many inputs it evaluated.  The
    automorphism is drawn from the seed."""
    rng = np.random.default_rng(seed)
    rep = Report("calculus", seed)
    # by default the battery runs on matrix2 and graded11; matrix3 by name
    for label, alg in _bracket_case_algebras(only, default=("matrix2", "graded11")):
        fam = DerivationFamily.inner_family(alg)
        rows = {name: [] for name in CALCULUS_ROWS}
        gen = alg.sample_element(rng, parity=0, hermitian=True)
        iso = AlgebraIsomorphism.unitary_conjugation(alg, expi_hermitian(gen.realize()))
        # odd cochains vanish on an algebra with no odd part
        parities = (0, 1) if np.any(alg.parity) else (0,)
        ones = []  # the basis 1-cochains of each parity, with d and pullback
        for p in (0, 1, 2):
            for t in parities:
                basis = Cochain.basis(fam, p, t)
                made = _calculus_stack_rows(rows, iso, basis)
                if p == 1:
                    ones.append((basis, *made))
        _wedge_rows(rows, iso, ones)
        for name, blocks in rows.items():
            rep.residual(f"{label}.{name}", np.concatenate(blocks), tol)
    return rep


def factor_from_token(token: str):
    """Parse a factor description: 'quantum[:hbar]' or 'commutative'."""
    if token == "commutative":
        return grassmann_classical_factor(2)
    if token == "quantum" or token.startswith("quantum:"):
        hbar = float(token.split(":", 1)[1]) if ":" in token else 1.0
        return quantum_factor(matrix_algebra(2), hbar)
    raise ValueError(f"unknown factor token {token!r}")


def _verdict_details(pair) -> dict:
    """A compatibility verdict with the fitted lambda of each factor and
    the residual of each fit, which the verdict rests on."""
    return {
        "verdict": pair.verdict,
        "lambdas": pair.factor_lambdas,
        "fitResiduals": pair.factor_residuals,
    }


def coupling_suite(
    seed: int = 0,
    tol: float = COUPLING_KRON_TOL,
    left: str | None = None,
    right: str | None = None,
) -> Report:
    """Compatibility verdicts and the product bracket on M2 (x) M2.

    The compatibility verdicts for the four factor scenarios, and the
    product bracket checked against the Kronecker commutator route on every
    basis pair of M2 (x) M2.  With ``left``/``right`` factor tokens it
    instead reports the verdict for that single pair."""
    if (left is None) != (right is None):
        raise ValueError("provide both factor tokens or neither")
    if left is not None:
        pair = product_symplectic(factor_from_token(left), factor_from_token(right))
        rep = Report("coupling", seed, meta={"left": left, "right": right})
        rep.add("pairVerdict", True, lam=pair.lam, **_verdict_details(pair))
        return rep
    rep = Report("coupling", seed)
    hbar = 0.5
    q2 = quantum_factor(matrix_algebra(2), hbar)
    q2_double = quantum_factor(matrix_algebra(2), 2.0 * hbar)
    g2 = grassmann_classical_factor(2)
    scenarios = [
        ("bothCommutative", g2, grassmann_classical_factor(2), "ExistsCommutative"),
        ("commutativeTimesQuantum", g2, q2, "NoneExistsMixed"),
        ("bothQuantumSameHbar", q2, q2, "ExistsQuantum"),
        ("quantumTimesDoubledHbar", q2, q2_double, "MismatchedParameters"),
    ]
    for name, f1, f2, expected in scenarios:
        pair = product_symplectic(f1, f2)
        rep.add(f"verdict.{name}", pair.verdict == expected, **_verdict_details(pair))

    prod = ProductStructure(q2, q2)
    lam = prod.lam
    rep.residual("lambdaValue", abs(lam - 1j * hbar), 1e-9)
    # the bracket is bilinear, so every basis pair covers every input
    palg = prod.algebra
    reps = palg.rep_basis
    ys = np.array([prod.poisson_operator(palg.basis_element(a)) for a in range(palg.dim)])
    via_pb = np.tensordot(ys.transpose(0, 2, 1), reps, axes=1)
    via_kron = (1j / hbar) * (reps[:, None] @ reps[None, :] - reps[None, :] @ reps[:, None])
    scale = np.maximum(1.0, np.abs(via_kron).max(axis=(2, 3)))
    rep.residual("productEqualsKronCommutator",
                 np.abs(via_pb - via_kron).max(axis=(2, 3)) / scale, tol,
                 labels=[palg.labels] * 2)

    # the three-term operator of H = A (x) B is bilinear in (A, B), so the
    # basis pairs of M2 x M2 cover every input; the same operator with
    # lam + 0.1 in its last term must fail the Leibniz check
    exact, shifted = [], []
    for i, j in np.ndindex(q2.algebra.dim, q2.algebra.dim):
        a, b = q2.algebra.basis_element(i), q2.algebra.basis_element(j)
        exact.append(prod.hamiltonian_operator(a, b))
        ya = q2.structure.poisson_operator(a)
        yb = q2.structure.poisson_operator(b)
        shifted.append(exact[-1] + 0.1 * np.kron(ya, yb))
    names = q2.algebra.labels
    pair_axes = (len(names),) * 2
    rep.residual("threeTermOperatorIsDerivation",
                 superderivation_residuals(palg, exact, 0).reshape(pair_axes),
                 DERIVATION_TOL, labels=[names] * 2)
    shifted = superderivation_residuals(palg, shifted, 0)
    value, (i, j) = worst(shifted.reshape(pair_axes))
    rep.add(
        "perturbedLambdaDetected",
        value >= 1e-3,
        value=value,
        tolerance=1e-3,
        direction="residual must exceed the tolerance",
        evaluated=shifted.size,
        at=[names[i], names[j]],
    )
    return rep


def gns_suite(seed: int = 0, tol: float = GNS_TOL) -> Report:
    """GNS representations of vector states and of the trace.

    Representation facts recovered numerically: vector states on the
    full matrix algebras give irreducible representations of the expected
    dimension, the trace gives the commutant of a factor."""
    rng = np.random.default_rng(seed)
    rep = Report("gns", seed)
    for n in (2, 3):
        alg = matrix_algebra(n)
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = gns(alg, vector_state(alg, psi))
        rep.add(f"vector{n}.dimension", res.dimension == n, value=res.dimension)
        rep.add(
            f"vector{n}.commutant",
            res.commutant_dimension == 1,
            value=res.commutant_dimension,
        )
        rep.add(
            f"vector{n}.nullSpace",
            res.null_space_dimension == n * (n - 1),
            value=res.null_space_dimension,
        )
        rep.add(f"vector{n}.irreducible", res.irreducible)
        rep.residual(
            f"vector{n}.residuals",
            [res.reproduction_residual, res.homomorphism_residual, res.star_residual],
            tol,
            labels=[("reproduction", "homomorphism", "star")],
        )
    res = gns(matrix_algebra(2), tracial_state(matrix_algebra(2)))
    rep.add("tracial2.dimension", res.dimension == 4, value=res.dimension)
    rep.add(
        "tracial2.commutant", res.commutant_dimension == 4, value=res.commutant_dimension
    )
    rep.add("tracial2.reducible", not res.irreducible)
    return rep


def grassmann_suite(seed: int = 0, tol: float = 1e-12) -> Report:
    """Superclassical brackets, Berezin integrals and the state on G3.

    Superclassical checks: the canonical worked brackets, the Berezin
    integral against the algebraic route on every basis element of G3, and
    uniqueness of the state on three anticommuting generators, exact by a
    rank test on the zero rows of its Gram matrix, with its density
    recovered from that state through the Berezin pairing."""
    rep = Report("grassmann", seed)

    (q, p), _ = variables(2, 0)
    w_even = SuperPBMatrix.canonical_even(1)
    f = q * q * p
    g = p * p
    got = super_poisson(f, g, w_even)
    want = SuperFunction(2, 0, {((1, 2), 0): -4.0})
    rep.residual("canonicalEvenWorkedBracket", (got - want).norm(), tol)

    _, thetas = variables(0, 2)
    w_odd = SuperPBMatrix.unit_odd(2)
    th1, th2 = thetas
    self_bracket = super_poisson(th1, th1, w_odd)
    rep.residual(
        "oddSelfBracket",
        (self_bracket - SuperFunction.scalar(0, 2, -1.0)).norm(),
        tol,
    )

    # both integrals are linear, so the basis covers every input
    alg = grassmann_algebra(3)
    gaps = []
    for i in range(alg.dim):
        el = alg.basis_element(i)
        via_alg = berezin_integral_coeffs(alg, el.coeffs)
        via_super = berezin_integral(superfunction_from_element(el)).coefficient((), 0)
        gaps.append(abs(via_alg - via_super))
    rep.residual("berezinRoutesAgree", gaps, tol, labels=[alg.labels])

    g3 = g3_unique_state(alg)
    rep.add(
        "g3StateUnique", g3["unique"], g3["value"], STATE_TOL,
        evaluated=g3["evaluated"], margin=g3["margin"], zeroRows=g3["zeroRows"],
    )
    functional = g3["state"].functional
    delta = np.zeros(alg.dim)
    delta[0] = 1.0
    rep.residual("g3StateIsDelta", np.abs(functional - delta), tol, labels=[alg.labels])
    # phi = P rho with the pairing P[i, j] = int e_i e_j, so rho = P^-1 phi;
    # the oracle density is the descending top monomial: -1 on the
    # ascending basis element
    want_density = np.zeros(alg.dim, dtype=complex)
    want_density[-1] = -1.0
    density = np.linalg.solve(berezin_pairing(alg), functional)
    rep.residual("g3DensityOracle", np.abs(density - want_density), tol, labels=[alg.labels])
    rep.add(
        "g3SeparationFails",
        g3["ccVerdict"] is False
        and g3["ccReport"]["clause"] == "statesSeparateObservables",
        witness=g3["ccReport"].get("witness"),
    )
    return rep


def moyal_suite(seed: int = 0, tol: float = MOYAL_ASSOC_TOL) -> Report:
    """Star product facts and the Wigner and integral kernel routes.

    Star product facts: associativity on every triple of monomials, the
    exact canonical bracket, a quadratic oracle and the classical limit
    slope; the Wigner symbols of the two lowest oscillator states against
    their closed forms, and the integral kernel on the ground-state symbol,
    a star projector."""
    rep = Report("moyal", seed)
    (x, p), _ = variables(2, 0)

    # the associator (f * g) * h - f * (g * h) is trilinear, so every triple
    # of the monomials x^a p^b with a, b <= 2 covers every polynomial with
    # those exponents
    hbar = 0.7
    exps = [(a, b) for a in range(3) for b in range(3)]
    rep.residual("associativity", associator_residuals(hbar, exps), tol, labels=[exps] * 3)

    hbars = (0.3, 1.0, 2.0)
    gaps = [(moyal_bracket(p, x, hb) - 1.0).norm() for hb in hbars]
    rep.residual("canonicalBracketExact", gaps, 1e-13, labels=[hbars])

    got = star(x * x, p * p, hbar)
    want = x * x * p * p + (2j * hbar) * (x * p) - 0.5 * hbar * hbar
    rep.residual("quadraticOracle", (got - want).norm(), 1e-13)

    limit = classical_limit_report(x * x * p, p * p * x)
    rep.residual("termZeroResidual", limit["term0Residual"], 1e-12)
    rep.residual("termOneResidual", limit["term1Residual"], 1e-12)
    rep.add(
        "classicalOrders",
        limit["orderResidual"] <= ORDER_TOL and limit["orderTwoSize"] > ORDER_FLOOR,
        value=limit["orderResidual"],
        tolerance=ORDER_TOL,
        orderTwoSize=limit["orderTwoSize"],
    )

    # Wigner route: W0 = 2 exp(-r2) and W1 = 2 (2 r2 - 1) exp(-r2) with
    # r2 = (x^2 + p^2) / hbar, on every grid point
    xs = np.linspace(-WIGNER_SPAN, WIGNER_SPAN, WIGNER_POINTS)
    xg, pg = np.meshgrid(xs, xs, indexing="ij")
    r2 = (xg**2 + pg**2) / hbar
    for name, psi, closed in (
        ("wignerGroundState", oscillator_ground_state(xs, hbar), 2.0 * np.exp(-r2)),
        ("wignerFirstExcited", oscillator_first_excited(xs, hbar),
         2.0 * (2.0 * r2 - 1.0) * np.exp(-r2)),
    ):
        gap = np.abs(wigner_function(psi, xs, hbar).values - closed)
        rep.residual(name, gap, WIGNER_TOL, labels=[xs, xs])

    # integral kernel route: W0 * W0 = W0 at each point xi
    def w0(x, p):
        return 2.0 * np.exp(-(x**2 + p**2) / hbar)

    ks = np.linspace(-KERNEL_SPAN, KERNEL_SPAN, KERNEL_POINTS)
    gaps = [abs(star_integral(w0, w0, xi, ks, ks, hbar) - w0(*xi)) for xi in KERNEL_XI]
    rep.residual("kernelStarProjector", gaps, WIGNER_TOL, labels=[KERNEL_XI])
    return rep


def stern_gerlach_suite(seed: int = 0) -> Report:
    """The beam-apparatus magnitude audit and the pointer readout."""
    rep = Report("sternGerlach", seed, meta={"preset": "paper"})
    out = stern_gerlach()
    rep.add(
        "tauWindow",
        4e-4 <= out["tau"] <= 6e-4,
        value=out["tau"],
        window=[4e-4, 6e-4],
    )
    rep.add(
        "etaWindow",
        1e-20 <= abs(out["eta"]) <= 1e-19,
        value=abs(out["eta"]),
        window=[1e-20, 1e-19],
    )
    rep.add(
        "actionRatioWindow",
        1e7 <= out["ratio"] <= 1e9,
        value=out["ratio"],
        window=[1e7, 1e9],
    )
    rep.residual("suppressionAtRatio", uniform_suppression(out["ratio"]), 1e-7)

    # the branch action per unit eigenvalue gap reproduces eta and kappa
    half_action = 0.5 * abs(out["eta"]) / out["tau"]
    model = MeasurementModel(
        lambdas=[-1.0, 1.0],
        amplitudes=[1.0, 1.0],
        k_mean=half_action,
        tau=out["tau"],
        hbar=out["params"]["hbar"],
    )
    verdictrep = model.reduced_final_state()
    rep.residual("modelEtaMatches", abs(abs(model.eta(0, 1)) - abs(out["eta"])), 1e-28)
    rep.residual("modelMixture", verdictrep["offDiagonalResidual"], MIXTURE_TOL)
    rep.add("modelPointerResolved", verdictrep["pointerResolved"])

    pointer = PointerObservable(
        {"minus": (-3.0, -1.0), "plus": (1.0, 3.0)},
        {"minus": -1.0, "plus": 1.0},
    )
    rep.add(
        "pointerReadout",
        pointer.classify(2.0) == "plus"
        and pointer.classify(-2.0) == "minus"
        and pointer.classify(0.0) is None,
    )
    rep.add(
        "pointerExpectations",
        pointer.uniform_expectation("plus") == 1.0
        and pointer.uniform_expectation("minus") == -1.0,
    )
    return rep


def decoherence_suite(seed: int = 0, tol: float = 1e-7) -> Report:
    """Interference suppression and the matrix apparatus cross-check.

    Interference suppression magnitudes, exact pointer probabilities and
    the finite matrix apparatus cross-check."""
    rng = np.random.default_rng(seed)
    rep = Report("decoherence", seed)
    rep.residual("magnitudeAtKappa1e8", uniform_suppression(1e8), tol)
    kappas = np.logspace(-2, 9, 45)
    gap = suppression_sweep(kappas) - np.minimum(1.0, 2.0 / kappas)
    rep.residual("boundHolds", gap, 1e-12, labels=[kappas])

    amps = np.array([0.6, 0.8j])
    model = MeasurementModel(
        lambdas=[0.0, 1.0],
        amplitudes=amps,
        k_mean=1.0,
        tau=1.0,
        hbar=1e-9,
    )
    probs = model.reduced_final_state()["probabilities"]
    rep.residual("probabilitiesExact", np.abs(probs - np.abs(amps) ** 2), 1e-15)

    cross = matrix_apparatus_crosscheck()
    gap = np.abs(cross["direct"] - cross["bracketRoute"])
    rep.residual("matrixApparatusRouteGap", gap, CROSSCHECK_TOL)
    rep.residual(
        "matrixApparatusProbabilities", np.abs(cross["direct"] - cross["expected"]), 1e-9
    )

    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    fmat, amat = a + a.conj().T, b + b.conj().T
    (xx, pp), _ = variables(2, 0)
    orders = hybrid_order_report(fmat, amat, xx * xx + pp, pp * pp * xx)
    rep.add(
        "hybridBracketOrder",
        orders["residual"] <= ORDER_TOL and orders["orderOneSize"] > ORDER_FLOOR,
        value=orders["residual"],
        tolerance=ORDER_TOL,
        orderOneSize=orders["orderOneSize"],
    )
    return rep


def _eigen_meta(system: HamiltonianSystem) -> dict:
    """How a system's flow is evaluated: the gate values of its
    eigendecomposition and whether it fell back to expm."""
    return {
        "eigCond": system.eig_cond,
        "eigResidual": system.eig_residual,
        "expmFallback": system.eigen is None,
    }


def _duality_rows(rep: Report, name: str, structure, h: Element, obs: Element,
                  psi0: np.ndarray, hbar: float, times: np.ndarray, tol: float):
    """The flow of H on the observable A and, by duality, on the vector
    state of psi0, against the density route U rho0 U^+ with
    U = exp(-i t H / hbar): ``meta[name]`` and the rows name.duality and
    name.densityOracle.  Returns the system and A(t) on the times."""
    hmat, omat = h.realize(), obs.realize()
    rho0 = np.outer(psi0, psi0.conj())
    phi0 = np.array([np.trace(rho0 @ e) for e in h.algebra.rep_basis])
    system = HamiltonianSystem(structure, h)
    rep.meta[name] = _eigen_meta(system)
    traj = system.flow(obs.coeffs, times)
    via_obs = traj @ phi0
    via_fun = system.flow(phi0, times, dual=True) @ obs.coeffs
    oracle_gap = []
    for r, t in enumerate(times):
        u = expi_hermitian(-t * hmat / hbar)
        oracle_gap.append(abs(via_obs[r] - np.trace(u @ rho0 @ u.conj().T @ omat)))
    rep.residual(f"{name}.duality", np.abs(via_obs - via_fun), tol, labels=[times])
    rep.residual(f"{name}.densityOracle", oracle_gap, tol, labels=[times])
    return system, traj


def evolve_suite(seed: int = 0, tol: float = EVOLVE_TOL) -> Report:
    """Observable/functional duality for Hamiltonian flows.

    The duality is checked with the matrix-conjugation density route as
    an independent oracle, on one M2 factor and on a coupled M2 x M2 pair.
    The coupled Heisenberg trajectory is also stepped by classical RK4,
    4000 steps over [0, tmax] applied as powers of its step matrix, and
    must match the closed form to 1e-5.  ``meta`` records, for each
    system, the eigen gate values and whether its flow fell back to
    expm."""
    rng = np.random.default_rng(seed)
    rep = Report("evolve", seed, meta={"tmax": EVOLVE_TMAX})
    times = np.linspace(0.0, EVOLVE_TMAX, 21)
    hbar = 0.7
    q = quantum_factor(matrix_algebra(2), hbar)
    # one M2 factor in the |0> state, then the coupled pair in |+> (x) |0>,
    # each under a random hermitian Hamiltonian and observable
    h, obs = (q.algebra.sample_element(rng, hermitian=True) for _ in range(2))
    _duality_rows(rep, "singleFactor", q.structure, h, obs, np.array([1.0, 0.0]),
                  hbar, times, tol)
    prod = ProductStructure(q, q)
    h, obs = (prod.algebra.sample_element(rng, hermitian=True) for _ in range(2))
    psi0 = np.kron([1.0, 1.0], [1.0, 0.0]) / np.sqrt(2.0)
    system, traj = _duality_rows(rep, "coupled", prod, h, obs, psi0, hbar, times, tol)
    rate = 4000 / EVOLVE_TMAX  # RK4 steps per unit time
    rk4 = rk4_trajectory(system.liouville, obs.coeffs, times, rate)
    rep.residual("coupled.rk4MatchesClosedForm", np.abs(rk4 - traj).max(axis=1), 1e-5,
                 labels=[times])
    return rep


def verify_suite(
    seed: int = 0,
    tol: float | None = None,
    algebra: str | None = None,
) -> Report:
    """The identity and calculus batteries in one report, both exact."""
    ident = identity_suite(seed, tol=IDENTITY_TOL if tol is None else tol, only=algebra)
    calc = calculus_suite(seed, tol=CALCULUS_TOL if tol is None else tol, only=algebra)
    return merge([ident, calc], "verify", seed)


SUITES = {
    "verify": verify_suite,
    "coupling": coupling_suite,
    "gns": gns_suite,
    "grassmann": grassmann_suite,
    "moyal-limit": moyal_suite,
    "stern-gerlach": stern_gerlach_suite,
    "decoherence": decoherence_suite,
    "evolve": evolve_suite,
}
