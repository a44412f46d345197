"""Named check suites.

Each suite runs a fixed battery of numerical certifications and returns a
:class:`ncsym.report.Report`.  Every suite is deterministic given its seed,
so reports can be compared byte for byte.  The command line tool and the
acceptance tests both call these functions.
"""
from __future__ import annotations

import numpy as np

from ._linalg import expi_hermitian, max_abs, rk4_trajectory
from .algebra import grassmann_algebra, koszul_signs, matrix_algebra
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
    berezin_integral_coeffs,
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


def _bracket_case_algebras(only: str | None = None):
    cases = [
        ("matrix2", matrix_algebra(2)),
        ("matrix3", matrix_algebra(3)),
        ("graded11", matrix_algebra(2, grading=(1, 1))),
    ]
    if only is None:
        return cases
    name = ALGEBRA_ALIASES.get(only, only)
    picked = [c for c in cases if c[0] == name]
    if not picked:
        raise ValueError(f"unknown algebra preset {only!r}")
    return picked


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
        residuals = {
            "antisymmetry": max_abs(pb + eta[:, :, None] * pb.swapaxes(0, 1)),
            "leibniz": max(
                max_abs(superderivation_residuals(alg, ys[par == t], t)) for t in (0, 1)
            ),
            "jacobi": max_abs(inner - outer - eta[:, :, None, None] * swapped),
            # {e_a, e_b}* against {e_a*, e_b*}; column a of m is e_a*
            "reality": max_abs(
                np.conj(pb) @ m.T - np.einsum("ia,jb,ijk->abk", m, m, pb)
            ),
            "unit": max(
                max_abs(ss.poisson_operator(alg.unit)), max_abs(ys @ alg.unit_coeffs)
            ),
            "hamiltonianBracket": max_abs(comm - y_of_pb),
        }
        for axiom, value in residuals.items():
            rep.residual(f"{label}.{axiom}", value, tol)
    return rep


def _note(rows: dict, name: str, gap: np.ndarray, count: int) -> None:
    """Fold a residual's largest entry and its count of basis inputs into a row."""
    worst, evaluated = rows[name]
    rows[name] = (max(worst, max_abs(gap)), evaluated + count)


def _calculus_stack_rows(rows: dict, iso, basis: Cochain) -> None:
    """The ddZero, cartan, lieBracket and pullbackDifferential rows on the
    basis stack of one degree and parity: Cartan for every family member X,
    [L_X, L_Y] = L_[X, Y] for every ordered member pair ([X, Y] from the
    family's bracket table).  Every kernel runs on blocks of the stack, so
    that d(d w) of a block stays within the differential's chunk bound."""
    fam, degree = basis.family, basis.degree
    members, m = fam.members, len(fam)
    sign = koszul_signs(fam.parities, fam.parities).reshape((m, m) + (1,) * (degree + 2))
    per = max(1, _CHUNK_ENTRIES // (m ** (degree + 2) * fam.algebra.dim))
    for lo in range(0, basis.stack[0], per):
        w = basis.member(slice(lo, lo + per))
        count = w.stack[0]
        dw = exterior_derivative(w)
        _note(rows, "ddZero", exterior_derivative(dw).tensor, count)
        lw = [lie_derivative(x, w) for x in members]
        for x, lxw in zip(members, lw):
            homotopy = interior(x, dw)
            if degree:
                homotopy = homotopy + exterior_derivative(interior(x, w))
            eta = -1.0 if (x.parity and w.parity) else 1.0
            _note(rows, "cartan", (homotopy - eta * lxw).tensor, count)
        # llw[a, b] = L_Xa L_Xb w against L_[Xa, Xb] w = f[a, b, c] L_Xc w
        llw = np.array([[lie_derivative(x, v).tensor for v in lw] for x in members])
        lhs = np.tensordot(fam.bracket, np.array([v.tensor for v in lw]), axes=1)
        _note(rows, "lieBracket", lhs - (llw - sign * llw.swapaxes(0, 1)), m * m * count)
        if degree <= 1:
            gap = pullback(iso, dw) - exterior_derivative(pullback(iso, w))
            _note(rows, "pullbackDifferential", gap.tensor, count)


def _wedge_rows(rows: dict, iso, ones: list[Cochain]) -> None:
    """wedgeLeibniz and pullbackWedge on every pair of basis 1-cochains of
    every two parities, as two stacks of factors, in blocks whose d stays
    within the chunk bound; d and the pullbacks of the basis run once."""
    fam = ones[0].family
    per = max(1, _CHUNK_ENTRIES // (len(fam) ** 3 * fam.algebra.dim))
    d_ones = [exterior_derivative(c) for c in ones]
    pulled = [pullback(iso, c) for c in ones]
    for s, t in np.ndindex(len(ones), len(ones)):
        nb = ones[t].stack[0]
        pairs = np.arange(ones[s].stack[0] * nb)
        for lo in range(0, pairs.size, per):
            i, j = np.divmod(pairs[lo : lo + per], nb)
            a, b = ones[s].member(i), ones[t].member(j)
            ab = wedge(a, b)
            leibniz = exterior_derivative(ab) - (
                wedge(d_ones[s].member(i), b) - wedge(a, d_ones[t].member(j))
            )
            _note(rows, "wedgeLeibniz", leibniz.tensor, i.size)
            hom = pullback(iso, ab) - wedge(pulled[s].member(i), pulled[t].member(j))
            _note(rows, "pullbackWedge", hom.tensor, i.size)


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
    cases = [c for c in _bracket_case_algebras(only) if only or c[0] != "matrix3"]
    for label, alg in cases:
        fam = DerivationFamily.inner_family(alg)
        rows = dict.fromkeys(CALCULUS_ROWS, (0.0, 0))
        gen = alg.sample_element(rng, parity=0, hermitian=True)
        iso = AlgebraIsomorphism.unitary_conjugation(alg, expi_hermitian(gen.realize()))
        # odd cochains vanish on an algebra with no odd part
        parities = (0, 1) if np.any(alg.parity) else (0,)
        bases = {(p, t): Cochain.basis(fam, p, t) for p in (0, 1, 2) for t in parities}
        for basis in bases.values():
            _calculus_stack_rows(rows, iso, basis)
        _wedge_rows(rows, iso, [bases[1, t] for t in parities])
        for name, (value, evaluated) in rows.items():
            rep.residual(f"{label}.{name}", value, tol, evaluated=evaluated)
    return rep


def factor_from_token(token: str):
    """Parse a factor description: 'quantum[:hbar]' or 'commutative'."""
    if token == "commutative":
        return grassmann_classical_factor(2)
    if token == "quantum" or token.startswith("quantum:"):
        hbar = float(token.split(":", 1)[1]) if ":" in token else 1.0
        return quantum_factor(matrix_algebra(2), hbar)
    raise ValueError(f"unknown factor token {token!r}")


def coupling_suite(
    seed: int = 0,
    tol: float = COUPLING_KRON_TOL,
    left: str | None = None,
    right: str | None = None,
) -> Report:
    """The compatibility verdicts for the four factor scenarios, and the
    product bracket checked against the Kronecker commutator route on every
    basis pair of M2 (x) M2.  With ``left``/``right`` factor tokens it
    instead reports the verdict for that single pair."""
    if (left is None) != (right is None):
        raise ValueError("provide both factor tokens or neither")
    if left is not None:
        pair = product_symplectic(factor_from_token(left), factor_from_token(right))
        rep = Report("coupling", seed, meta={"left": left, "right": right})
        rep.add(
            "pairVerdict",
            True,
            verdict=pair.verdict,
            lam=None if pair.lam is None else [pair.lam.real, pair.lam.imag],
        )
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
        verdict = product_symplectic(f1, f2).verdict
        rep.add(f"verdict.{name}", verdict == expected, verdict=verdict)

    prod = ProductStructure(q2, q2)
    lam = prod.lam
    rep.add(
        "lambdaValue",
        abs(lam - 1j * hbar) <= 1e-9,
        value=abs(lam - 1j * hbar),
        tolerance=1e-9,
    )
    # the bracket is bilinear, so every basis pair covers every input
    palg = prod.algebra
    reps = palg.rep_basis
    ys = np.array([prod.poisson_operator(palg.basis_element(a)) for a in range(palg.dim)])
    via_pb = np.tensordot(ys.transpose(0, 2, 1), reps, axes=1)
    via_kron = (1j / hbar) * (reps[:, None] @ reps[None, :] - reps[None, :] @ reps[:, None])
    scale = np.maximum(1.0, np.abs(via_kron).max(axis=(2, 3)))
    worst = float((np.abs(via_pb - via_kron).max(axis=(2, 3)) / scale).max())
    rep.residual("productEqualsKronCommutator", worst, tol)

    # the three-term operator of H = A (x) B is bilinear in (A, B), so the
    # basis pairs of M2 x M2 cover every input; the same operator with
    # lam + 0.1 in its last term must fail the Leibniz check
    pairs, exact, shifted = [], [], []
    for i, j in np.ndindex(q2.algebra.dim, q2.algebra.dim):
        a, b = q2.algebra.basis_element(i), q2.algebra.basis_element(j)
        pairs.append([q2.algebra.labels[i], q2.algebra.labels[j]])
        exact.append(prod.hamiltonian_operator(a, b))
        ya = q2.structure.poisson_operator(a)
        yb = q2.structure.poisson_operator(b)
        shifted.append(exact[-1] + 0.1 * np.kron(ya, yb))
    exact = superderivation_residuals(palg, exact, 0)
    shifted = superderivation_residuals(palg, shifted, 0)
    k = int(np.argmax(exact))
    rep.add(
        "threeTermOperatorIsDerivation",
        exact[k] <= DERIVATION_TOL,
        value=exact[k],
        tolerance=DERIVATION_TOL,
        pairs=len(pairs),
        at=pairs[k],
    )
    k = int(np.argmax(shifted))
    rep.add(
        "perturbedLambdaDetected",
        shifted[k] >= 1e-3,
        value=shifted[k],
        tolerance=1e-3,
        direction="residual must exceed the tolerance",
        pairs=len(pairs),
        at=pairs[k],
    )
    return rep


def gns_suite(seed: int = 0, tol: float = GNS_TOL) -> Report:
    """Representation facts recovered numerically: vector states on the
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
        worst = max(
            res.reproduction_residual, res.homomorphism_residual, res.star_residual
        )
        rep.residual(f"vector{n}.residuals", worst, tol)
    res = gns(matrix_algebra(2), tracial_state(matrix_algebra(2)))
    rep.add("tracial2.dimension", res.dimension == 4, value=res.dimension)
    rep.add(
        "tracial2.commutant", res.commutant_dimension == 4, value=res.commutant_dimension
    )
    rep.add("tracial2.reducible", not res.irreducible)
    return rep


def grassmann_suite(seed: int = 0, samples: int = 300, tol: float = 1e-12) -> Report:
    """Superclassical checks: the canonical worked brackets, the Berezin
    integral against the algebraic route on every basis element of G3, and
    uniqueness of the state on three anticommuting generators, with its
    density recovered from the scanned state through the Berezin pairing."""
    rep = Report("grassmann", seed, meta={"samples": samples})

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
    worst = 0.0
    for i in range(alg.dim):
        el = alg.basis_element(i)
        via_alg = berezin_integral_coeffs(alg, el.coeffs)
        via_super = berezin_integral(superfunction_from_element(el)).coefficient((), 0)
        worst = max(worst, abs(via_alg - via_super))
    rep.residual("berezinRoutesAgree", worst, tol)

    scan = g3_unique_state(rng=np.random.default_rng(seed), samples=samples)
    rep.add(
        "g3StateUnique",
        scan["unique"] and scan["rejected"] == scan["tried"],
        value=sum(scan["rejected"].values()),
        tried=scan["tried"],
    )
    functional = scan["state"].functional
    delta = np.zeros(alg.dim)
    delta[0] = 1.0
    rep.residual("g3StateIsDelta", max_abs(functional - delta), tol)
    # phi(e_i) = int e_i rho = sum_j B[i, j] rho_j with the pairing
    # B[i, j] = int e_i e_j, so rho = B^-1 phi; the oracle density is the
    # descending top monomial: -1 on the ascending basis element
    pairing = np.array([
        [berezin_integral_coeffs(alg, alg.mul_coeffs(ei, ej)) for ej in np.eye(alg.dim)]
        for ei in np.eye(alg.dim)
    ])
    want_density = np.zeros(alg.dim, dtype=complex)
    want_density[-1] = -1.0
    density = np.linalg.solve(pairing, functional)
    rep.residual("g3DensityOracle", max_abs(density - want_density), tol)
    rep.add(
        "g3SeparationFails",
        scan["ccVerdict"] is False
        and scan["ccReport"]["clause"] == "statesSeparateObservables",
        witness=scan["ccReport"].get("witness"),
    )
    return rep


def moyal_suite(seed: int = 0, tol: float = MOYAL_ASSOC_TOL) -> Report:
    """Star product facts: associativity on every triple of monomials, the
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
    residuals = associator_residuals(hbar, exps)
    at = np.unravel_index(int(np.argmax(residuals)), residuals.shape)
    rep.residual("associativity", residuals[at], tol, triples=residuals.size,
                 at=[list(exps[t]) for t in at])

    worst = 0.0
    for hb in (0.3, 1.0, 2.0):
        br = moyal_bracket(p, x, hb)
        worst = max(worst, (br - 1.0).norm())
    rep.residual("canonicalBracketExact", worst, 1e-13)

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
        at = np.unravel_index(int(np.argmax(gap)), gap.shape)
        rep.residual(name, gap[at], WIGNER_TOL, points=gap.size,
                     at=[xs[at[0]], xs[at[1]]])

    # integral kernel route: W0 * W0 = W0 at each point xi
    def w0(x, p):
        return 2.0 * np.exp(-(x**2 + p**2) / hbar)

    ks = np.linspace(-KERNEL_SPAN, KERNEL_SPAN, KERNEL_POINTS)
    gaps = [abs(star_integral(w0, w0, xi, ks, ks, hbar) - w0(*xi)) for xi in KERNEL_XI]
    k = int(np.argmax(gaps))
    rep.residual("kernelStarProjector", gaps[k], WIGNER_TOL, points=len(gaps),
                 at=list(KERNEL_XI[k]))
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
    rep.add(
        "modelEtaMatches",
        abs(abs(model.eta(0, 1)) - abs(out["eta"])) <= 1e-28,
        value=abs(model.eta(0, 1)),
    )
    rep.add("modelMixture", verdictrep["mixtureVerdict"],
            value=verdictrep["offDiagonalResidual"], tolerance=1e-7)
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
    """Interference suppression magnitudes, exact pointer probabilities
    and the finite matrix apparatus cross-check."""
    rng = np.random.default_rng(seed)
    rep = Report("decoherence", seed)
    rep.residual("magnitudeAtKappa1e8", uniform_suppression(1e8), tol)
    kappas = np.logspace(-2, 9, 45)
    gap = float(np.max(suppression_sweep(kappas) - np.minimum(1.0, 2.0 / kappas)))
    rep.add("boundHolds", gap <= 1e-12, value=gap, tolerance=1e-12)

    amps = np.array([0.6, 0.8j])
    model = MeasurementModel(
        lambdas=[0.0, 1.0],
        amplitudes=amps,
        k_mean=1.0,
        tau=1.0,
        hbar=1e-9,
    )
    probs = model.reduced_final_state()["probabilities"]
    rep.residual(
        "probabilitiesExact", max_abs(probs - np.abs(amps) ** 2), 1e-15
    )

    cross = matrix_apparatus_crosscheck()
    rep.residual("matrixApparatusRouteGap", cross["routeGap"], 1e-6)
    rep.residual(
        "matrixApparatusProbabilities",
        max_abs(cross["direct"] - cross["expected"]),
        1e-9,
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


def evolve_suite(seed: int = 0, tol: float = EVOLVE_TOL) -> Report:
    """Observable/functional duality for Hamiltonian flows, with the
    matrix-conjugation density route as an independent oracle.

    Both run on one M2 factor and on a coupled M2 x M2 pair.  The coupled
    Heisenberg trajectory is also stepped by classical RK4, 4000 steps
    over [0, tmax], and must match the closed form to 1e-5."""
    rng = np.random.default_rng(seed)
    rep = Report("evolve", seed, meta={"tmax": EVOLVE_TMAX})
    times = np.linspace(0.0, EVOLVE_TMAX, 21)

    # single factor: a random hermitian Hamiltonian on the 2x2 algebra
    hbar = 0.7
    q = quantum_factor(matrix_algebra(2), hbar)
    alg = q.algebra
    structure = q.structure
    h = alg.sample_element(rng, hermitian=True)
    obs = alg.sample_element(rng, hermitian=True)
    hmat = h.realize()
    omat = obs.realize()
    system = HamiltonianSystem(structure, h)
    phi0 = np.array([1.0, 0.0, 0.0, 0.0])  # the |0> vector state functional
    worst_dual = 0.0
    worst_oracle = 0.0
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    for t in times:
        heis = system.evolve_heisenberg(obs, t).coeffs
        via_obs = complex(np.dot(phi0, heis))
        via_fun = complex(np.dot(system.evolve_functional(phi0, t), obs.coeffs))
        worst_dual = max(worst_dual, abs(via_obs - via_fun))
        u = expi_hermitian(-t * hmat / hbar)
        oracle = np.trace(u @ rho0 @ u.conj().T @ omat)
        worst_oracle = max(worst_oracle, abs(via_obs - oracle))
    rep.residual("singleFactor.duality", worst_dual, tol)
    rep.residual("singleFactor.densityOracle", worst_oracle, tol)

    # coupled pair under a random hermitian product Hamiltonian
    prod = ProductStructure(q, q)
    palg = prod.algebra
    h = palg.sample_element(rng, hermitian=True)
    obs = palg.sample_element(rng, hermitian=True)
    hmat = palg.realize(h.coeffs)
    omat = palg.realize(obs.coeffs)
    psi0 = np.kron([1.0, 1.0], [1.0, 0.0]) / np.sqrt(2.0)
    rho0 = np.outer(psi0, psi0.conj())
    phi0 = np.array([np.trace(rho0 @ palg.rep_basis[i]) for i in range(palg.dim)])
    system = HamiltonianSystem(prod, h)
    traj = np.array([system.evolve_heisenberg(obs, t).coeffs for t in times])
    worst_dual = 0.0
    worst_oracle = 0.0
    for r, t in enumerate(times):
        via_obs = complex(np.dot(phi0, traj[r]))
        via_fun = complex(np.dot(system.evolve_functional(phi0, t), obs.coeffs))
        worst_dual = max(worst_dual, abs(via_obs - via_fun))
        u = expi_hermitian(-t * hmat / hbar)
        oracle = np.trace(u @ rho0 @ u.conj().T @ omat)
        worst_oracle = max(worst_oracle, abs(via_obs - oracle))
    rep.residual("coupled.duality", worst_dual, tol)
    rep.residual("coupled.densityOracle", worst_oracle, tol)

    rate = 4000 / EVOLVE_TMAX  # RK4 steps per unit time
    rk4 = rk4_trajectory(system.liouville, obs.coeffs, times, rate)
    gap = float(np.max(np.abs(rk4 - traj)))
    rep.residual("coupled.rk4MatchesClosedForm", gap, 1e-5)
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
