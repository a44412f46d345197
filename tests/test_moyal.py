import tracemalloc
from math import comb, factorial

import numpy as np
import pytest

from ncsym.moyal import (
    MoyalError,
    WignerGrid,
    associator_residuals,
    classical_limit_report,
    hbar_orders,
    moyal_bracket,
    oscillator_first_excited,
    oscillator_ground_state,
    star,
    star_integral,
    star_table,
    star_terms,
    wigner_function,
)
from ncsym.superclassical import (
    SuperFunction,
    SuperPBMatrix,
    even_derivative,
    super_poisson,
    variables,
)

(X, P), _ = variables(2, 0)
HBAR = 0.7
CANONICAL = SuperPBMatrix.canonical_even(1)


def rand_poly(rng, deg=3):
    terms = {}
    for a in range(deg + 1):
        for b in range(deg + 1 - a):
            terms[((a, b), 0)] = complex(rng.standard_normal(), rng.standard_normal())
    return SuperFunction(2, 0, terms)


def conj(f):
    """Complex conjugation, which fixes x and p: conjugate coefficients."""
    return SuperFunction(f.m, f.n, {k: np.conj(c) for k, c in f.terms.items()})


def dx(f):
    return even_derivative(f, 0)


def dp(f):
    return even_derivative(f, 1)


def reference_star_terms(f, g):
    """The series terms built from explicit derivative chains, one
    polynomial at a time: the oracle for the closed-form kernel."""
    degree = min(
        max((sum(e) for e, _ in h.terms), default=0) for h in (f, g)
    )
    out = []
    for k in range(degree + 1):
        acc = SuperFunction(2, 0, {})
        for j in range(k + 1):
            df = f
            for _ in range(k - j):
                df = dx(df)
            for _ in range(j):
                df = dp(df)
            dg = g
            for _ in range(k - j):
                dg = dp(dg)
            for _ in range(j):
                dg = dx(dg)
            acc = acc + ((-1) ** j * comb(k, j)) * (df * dg)
        out.append(((0.5j) ** k / factorial(k)) * acc)
    return out


def test_star_terms_match_derivative_chain_reference():
    rng = np.random.default_rng(41)
    for _ in range(60):
        f = rand_poly(rng, int(rng.integers(5)))
        g = rand_poly(rng, int(rng.integers(5)))
        got, want = star_terms(f, g), reference_star_terms(f, g)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a - b).norm() <= 1e-12 * max(1.0, b.norm())


def test_canonical_super_poisson_is_the_phase_space_bracket():
    assert (super_poisson(P, X, CANONICAL) - 1.0).norm() == 0.0
    rng = np.random.default_rng(43)
    for _ in range(20):
        f, g = rand_poly(rng), rand_poly(rng)
        want = dp(f) * dx(g) - dx(f) * dp(g)
        got = super_poisson(f, g, CANONICAL)
        assert (got - want).norm() <= 1e-12 * max(1.0, want.norm())


@pytest.mark.parametrize("hbar", [float("nan"), float("inf"), 0.0, -0.5])
def test_star_and_bracket_need_finite_positive_hbar(hbar):
    with pytest.raises(MoyalError, match="hbar"):
        star(X, P, hbar)
    with pytest.raises(MoyalError, match="hbar"):
        moyal_bracket(P, X, hbar)


def test_star_rejects_other_superspaces():
    (q,), (theta,) = variables(1, 1)
    for bad in (q, theta, SuperFunction(2, 1, {((1, 0), 1): 1.0}), 2.0):
        with pytest.raises(MoyalError):
            star_terms(bad, X)
        with pytest.raises(MoyalError):
            star(X, bad, HBAR)
        with pytest.raises(MoyalError):
            moyal_bracket(bad, P, HBAR)


def test_linear_star_oracles():
    xp = star(X, P, HBAR)
    assert (xp - (X * P + 0.5j * HBAR)).norm() < 1e-14
    px = star(P, X, HBAR)
    assert (px - (X * P - 0.5j * HBAR)).norm() < 1e-14


def test_moyal_bracket_of_p_and_x_is_one():
    for hb in (0.1, 0.7, 2.0):
        mb = moyal_bracket(P, X, hb)
        assert (mb - 1.0).norm() < 1e-13


def test_quadratic_star_oracle():
    # x^2 * p^2 = x^2 p^2 + 2 i hbar x p - hbar^2 / 2
    out = star(X * X, P * P, HBAR)
    expect = X * X * P * P + (2j * HBAR) * (X * P) - HBAR**2 / 2
    assert (out - expect).norm() < 1e-13


def test_star_associativity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        f, g, h = (rand_poly(rng) for _ in range(3))
        lhs = star(star(f, g, HBAR), h, HBAR)
        rhs = star(f, star(g, h, HBAR), HBAR)
        scale = max(1.0, lhs.norm())
        assert (lhs - rhs).norm() < 1e-10 * scale


def test_star_hermiticity():
    rng = np.random.default_rng(23)
    f, g = rand_poly(rng), rand_poly(rng)
    lhs = conj(star(f, g, HBAR))
    rhs = star(conj(g), conj(f), HBAR)
    assert (lhs - rhs).norm() < 1e-12 * max(1.0, lhs.norm())


def test_moyal_bracket_reduces_to_classical():
    rng = np.random.default_rng(29)
    f, g = rand_poly(rng), rand_poly(rng)
    pb = super_poisson(f, g, CANONICAL)
    hbars = np.geomspace(1e-4, 1e-1, 6)
    gaps = [(moyal_bracket(f, g, hb) - pb).norm() for hb in hbars]
    slope = np.polyfit(np.log(hbars), np.log(gaps), 1)[0]
    assert abs(slope - 2.0) < 0.05


def test_classical_limit_report():
    rng = np.random.default_rng(31)
    f, g = rand_poly(rng), rand_poly(rng)
    rep = classical_limit_report(f, g)
    assert rep["term0Residual"] < 1e-12
    assert rep["term1Residual"] < 1e-12
    assert rep["orderResidual"] <= 1e-12
    assert rep["orderTwoSize"] > 1e-8
    # four hbar nodes fix four orders; a fifth would alias onto them
    with pytest.raises(MoyalError, match="more than 4 orders"):
        classical_limit_report(rand_poly(rng, 4), rand_poly(rng, 4))


def test_hbar_orders_recover_a_laurent_polynomial():
    rng = np.random.default_rng(37)
    coeffs = [rand_poly(rng) for _ in range(4)]
    orders = hbar_orders(
        lambda hb: [sum((hb**n * c for n, c in zip(range(-1, 3), coeffs)), X * 0.0)],
        lowest=-1,
    )
    for (got,), want in zip(orders, coeffs):
        assert (got - want).norm() <= 1e-12


GRID = 7  # exponents 0..6 of x and of p


def test_star_table_matches_star_on_every_grid_pair():
    table = star_table(HBAR, GRID)
    cube = table.dense()
    exps = [(a, b) for a in range(GRID) for b in range(GRID)]
    on_grid = 0
    for u, (a1, b1) in enumerate(exps):
        for v, (a2, b2) in enumerate(exps):
            if a1 + a2 >= GRID or b1 + b2 >= GRID:
                assert not cube[u, v].any()
                continue
            on_grid += 1
            f = SuperFunction(2, 0, {((a1, b1), 0): 1.0})
            g = SuperFunction(2, 0, {((a2, b2), 0): 1.0})
            want = np.zeros(GRID * GRID, dtype=complex)
            for ((a, b), _), c in star(f, g, HBAR).terms.items():
                want[a * GRID + b] = c
            assert np.abs(cube[u, v] - want).max() <= 1e-15
    assert on_grid == 28**2 and table.v.size == 2348
    keys = (table.i * GRID**2 + table.j) * GRID**2 + table.k
    assert np.all(np.diff(keys) > 0)


def test_associator_residuals_match_the_triple_loop():
    # the reference: every triple through star on SuperFunction dicts
    exps = [(a, b) for a in range(3) for b in range(3)]
    monos = [SuperFunction(2, 0, {(e, 0): 1.0}) for e in exps]
    pairs = [[star(f, g, HBAR) for g in monos] for f in monos]
    want = np.zeros((9, 9, 9))
    for i, j, k in np.ndindex(want.shape):
        lhs = star(pairs[i][j], monos[k], HBAR)
        rhs = star(monos[i], pairs[j][k], HBAR)
        want[i, j, k] = (lhs - rhs).norm() / max(1.0, lhs.norm())
    got = associator_residuals(HBAR, exps)
    assert got.shape == (9, 9, 9)
    assert np.abs(got - want).max() <= 1e-15


def test_associator_residuals_peak_near_one_megabyte():
    exps = [(a, b) for a in range(3) for b in range(3)]
    associator_residuals(HBAR, exps)  # fill the weight cache first
    tracemalloc.start()
    try:
        associator_residuals(HBAR, exps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def phase_average(w, values):
    """The dx dp/(2 pi hbar) average of an array of values on the grid."""
    return float(np.sum(values * w.values) * w.dx * w.dp / (2 * np.pi * w.hbar))


def test_wigner_ground_state():
    hb = 0.9
    xs = np.linspace(-7.0, 7.0, 201)
    w = wigner_function(oscillator_ground_state(xs, hb), xs, hb)
    assert abs(w.normalization() - 1.0) < 1e-3
    xg, pg = np.meshgrid(w.xs, w.ps, indexing="ij")
    oracle = 2.0 * np.exp(-(xg**2 + pg**2) / hb)
    assert np.abs(w.values - oracle).max() < 1e-6
    assert abs(phase_average(w, xg**2) - hb / 2) < 1e-3
    assert abs(phase_average(w, pg**2) - hb / 2) < 1e-3


def test_wigner_first_excited_is_negative_at_origin():
    hb = 0.9
    xs = np.linspace(-7.0, 7.0, 201)
    w = wigner_function(oscillator_first_excited(xs, hb), xs, hb)
    assert abs(w.normalization() - 1.0) < 1e-3
    xg, pg = np.meshgrid(w.xs, w.ps, indexing="ij")
    r2 = (xg**2 + pg**2) / hb
    oracle = 2.0 * (2.0 * r2 - 1.0) * np.exp(-r2)
    assert np.abs(w.values - oracle).max() < 1e-6
    assert w.values.min() < -1.9  # -2 at the origin


def test_integral_kernel_projector_identity():
    hb = 0.7
    xs = np.linspace(-6.0, 6.0, 401)

    def w0(x, p):
        return 2.0 * np.exp(-(x**2 + p**2) / hb)

    for xi in ((0.0, 0.0), (0.3, -0.5), (1.1, 0.4)):
        val = star_integral(w0, w0, xi, xs, xs, hb)
        oracle = w0(*xi)
        assert abs(val - oracle) < 1e-6


def test_integral_kernel_classical_slope():
    span = 4.5
    xs = np.linspace(-span, span, 541)

    def f(x, p):
        return np.exp(-(x**2 + p**2))

    def g(x, p):
        return np.exp(-((x - 0.4) ** 2 + (p + 0.2) ** 2) / 1.5)

    def pb_at(x, p):
        # {f, g} = f_p g_x - f_x g_p with analytic gaussian gradients
        fx, fp = -2.0 * x * f(x, p), -2.0 * p * f(x, p)
        gx = -(2.0 / 1.5) * (x - 0.4) * g(x, p)
        gp = -(2.0 / 1.5) * (p + 0.2) * g(x, p)
        return fp * gx - fx * gp

    xi = (0.25, -0.15)
    hbars = np.array([0.3, 0.45, 0.7])
    gaps = []
    for hb in hbars:
        val = star_integral(f, g, xi, xs, xs, hb)
        first = f(*xi) * g(*xi) + hb * (-0.5j) * pb_at(*xi)
        gaps.append(abs(val - first))
    slope = np.polyfit(np.log(hbars), np.log(np.array(gaps)), 1)[0]
    assert 1.6 < slope < 2.4


BAD_HBARS = [float("nan"), float("inf"), 0.0, -0.5]


@pytest.mark.parametrize("hbar", BAD_HBARS)
def test_wigner_route_needs_finite_positive_hbar(hbar):
    xs = np.linspace(-7.0, 7.0, 51)
    psi = oscillator_ground_state(xs, 1.0)
    with pytest.raises(MoyalError, match="hbar"):
        wigner_function(psi, xs, hbar)
    with pytest.raises(MoyalError, match="hbar"):
        oscillator_ground_state(xs, hbar)
    with pytest.raises(MoyalError, match="hbar"):
        oscillator_first_excited(xs, hbar)
    with pytest.raises(MoyalError, match="hbar"):
        star_integral(lambda x, p: x + p, lambda x, p: x * p, (0.0, 0.0), xs, xs, hbar)


def test_wigner_gates_fail_on_nan(monkeypatch):
    xs = np.linspace(-7.0, 7.0, 51)
    psi = oscillator_ground_state(xs, 1.0)
    bad = psi.copy()
    bad[25] = np.nan
    with pytest.raises(MoyalError, match="non-finite"):
        wigner_function(bad, xs, 1.0)
    monkeypatch.setattr(WignerGrid, "normalization", lambda self: float("nan"))
    with pytest.raises(MoyalError, match="normalization"):
        wigner_function(psi, xs, 1.0)


def test_wigner_rejects_a_zero_wave_function():
    xs = np.linspace(-7.0, 7.0, 51)
    with pytest.raises(MoyalError, match=r"norm\*\*2 on the grid is 0\.0"):
        wigner_function(np.zeros(51), xs, 1.0)
