import numpy as np
import pytest

from ncsym._linalg import bilinear
from ncsym.algebra import grassmann_algebra, grassmann_derivative_matrices
from ncsym.calculus import Derivation, superderivation_residuals
from ncsym.coupling import grassmann_classical_factor
from ncsym.states import berezin_integral_coeffs
from ncsym.superclassical import (
    SuperFunction,
    SuperPBMatrix,
    SuperspaceError,
    berezin_integral,
    even_derivative,
    g3_unique_state,
    odd_derivative_left,
    odd_derivative_right,
    super_poisson,
    superfunction_from_element,
    variables,
)

G3 = grassmann_algebra(3)


def grassmann_coeffs(f):
    """Coefficients of a purely odd superfunction on the Grassmann basis,
    which is indexed by generator bitmask."""
    coeffs = np.zeros(1 << f.n, dtype=complex)
    for (_, mask), c in f.terms.items():
        coeffs[mask] = c
    return coeffs


def body_value(f, x):
    """Value of a superfunction at one point x of the even body, every
    generator set to zero."""
    return sum(
        c * np.prod(np.asarray(x, dtype=complex) ** np.array(exps))
        for (exps, mask), c in f.terms.items() if not mask
    )


def hamilton_flow(h, w, x0, times):
    """d xi / dt = {H, xi} on the even body, one row per time of the
    increasing ``times``: the four-stage classical RK4, since the flow is
    nonlinear, with max(1, ceil(200 dt)) equal steps on each stretch dt."""
    coords = [SuperFunction.coordinate(w.m, 0, a) for a in range(w.m)]
    fields = [super_poisson(h, xa, w) for xa in coords]

    def f(x):
        return np.array([body_value(v, x) for v in fields])

    x = np.asarray(x0, dtype=complex)
    rows, t_now = [], 0.0
    for t in times:
        n = max(1, int(np.ceil((t - t_now) * 200)))
        dt = (t - t_now) / n
        for _ in range(n):
            k1 = f(x)
            k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2)
            k4 = f(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rows.append(x)
        t_now = t
    return np.array(rows)


def random_superfunction(rng, m, n, parity=None, max_exp=2):
    terms = {}
    for _ in range(6):
        exps = tuple(int(e) for e in rng.integers(0, max_exp + 1, size=m))
        mask = int(rng.integers(0, 1 << n))
        if parity is not None and bin(mask).count("1") % 2 != parity:
            continue
        terms[(exps, mask)] = complex(rng.standard_normal(), rng.standard_normal())
    out = SuperFunction(m, n, terms)
    if parity is not None and not out.terms:
        base = ((0,) * m, (1 << parity) - 1 if parity else 0)
        out = SuperFunction(m, n, {base: 1.0})
    return out


def test_grassmann_sign_rules():
    _, (t1, t2, t3) = variables(0, 3)
    assert (t1 * t1).norm() == 0.0
    assert ((t1 * t2) + (t2 * t1)).norm() == 0.0
    prod = t1 * t2 * t3
    assert prod.coefficient((), 0b111) == 1.0
    rev = t3 * t2 * t1
    assert rev.coefficient((), 0b111) == -1.0


def test_even_variables_commute_with_everything():
    (x,), (t1,) = variables(1, 1)
    assert ((x * t1) - (t1 * x)).norm() == 0.0
    sq = x * x
    assert sq.coefficient((2,), 0) == 1.0
    assert even_derivative(sq, 0).coefficient((1,), 0) == 2.0


def test_left_right_derivative_relation():
    rng = np.random.default_rng(8)
    for parity in (0, 1):
        for _ in range(10):
            f = random_superfunction(rng, 2, 3, parity=parity)
            sign = -1.0 if parity == 0 else 1.0
            for a in range(3):
                lhs = odd_derivative_right(f, a)
                rhs = sign * odd_derivative_left(f, a)
                assert (lhs - rhs).norm() < 1e-12


def test_canonical_even_bracket():
    w = SuperPBMatrix.canonical_even(1)
    (q, p), _ = variables(2, 0)
    assert super_poisson(p, q, w).coefficient((0, 0), 0) == 1.0
    assert super_poisson(q, p, w).coefficient((0, 0), 0) == -1.0
    # {f, g} = d_p f d_q g - d_q f d_p g on a worked example
    f = q * q * p
    g = p * p
    out = super_poisson(f, g, w)
    expect = {((1, 2), 0): -4.0}  # -(d_q f)(d_p g) = -(2qp)(2p)
    assert (out - SuperFunction(2, 0, expect)).norm() < 1e-12


def test_unit_odd_bracket():
    w = SuperPBMatrix.unit_odd(2)
    _, (t1, t2) = variables(0, 2)
    assert super_poisson(t1, t1, w).coefficient((), 0) == -1.0
    assert super_poisson(t1, t2, w).norm() == 0.0


def test_mixed_bracket_axioms():
    # the canonical even pair beside two odd generators with a unit bracket
    even = SuperPBMatrix.canonical_even(1).matrix
    w = SuperPBMatrix(2, 2, np.block([[even, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]))
    rng = np.random.default_rng(21)
    for _ in range(15):
        pa, pb, pc = rng.integers(0, 2, size=3)
        f = random_superfunction(rng, 2, 2, parity=int(pa))
        g = random_superfunction(rng, 2, 2, parity=int(pb))
        h = random_superfunction(rng, 2, 2, parity=int(pc))
        eta = lambda s, t: -1.0 if (s and t) else 1.0
        anti = super_poisson(f, g, w) + eta(pa, pb) * super_poisson(g, f, w)
        assert anti.norm() < 1e-10
        leib = (
            super_poisson(f, g * h, w)
            - super_poisson(f, g, w) * h
            - eta(pa, pb) * (g * super_poisson(f, h, w))
        )
        assert leib.norm() < 1e-10
        jac = (
            eta(pa, pc) * super_poisson(f, super_poisson(g, h, w), w)
            + eta(pb, pa) * super_poisson(g, super_poisson(h, f, w), w)
            + eta(pc, pb) * super_poisson(h, super_poisson(f, g, w), w)
        )
        assert jac.norm() < 1e-10


def test_invalid_bracket_matrices_rejected():
    with pytest.raises(SuperspaceError):
        SuperPBMatrix(2, 0, np.eye(2))  # even block not antisymmetric
    with pytest.raises(SuperspaceError):
        SuperPBMatrix(0, 2, np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_berezin_values():
    _, (t1, t2, t3) = variables(0, 3)
    assert berezin_integral(t3 * t2 * t1).coefficient((), 0) == 1.0
    assert berezin_integral(t1 * t2 * t3).coefficient((), 0) == -1.0
    one = SuperFunction.scalar(0, 1, 1.0)
    th = SuperFunction.generator(0, 1, 0)
    assert berezin_integral(one).norm() == 0.0
    assert berezin_integral(th).coefficient((), 0) == 1.0


def test_berezin_matches_algebra_route():
    rng = np.random.default_rng(4)
    for _ in range(10):
        e = G3.sample_element(rng)
        f = superfunction_from_element(e)
        lhs = berezin_integral(f).coefficient((), 0)
        rhs = berezin_integral_coeffs(G3, e.coeffs)
        assert abs(lhs - rhs) < 1e-12
        assert np.abs(grassmann_coeffs(f) - e.coeffs).max() < 1e-12


def test_factor_bracket_matches_superspace_bracket():
    gcl = grassmann_classical_factor(2)
    w = SuperPBMatrix.unit_odd(2)
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = gcl.algebra.sample_element(rng)
        b = gcl.algebra.sample_element(rng)
        lhs = bilinear(gcl.pb_tensor, a.coeffs, b.coeffs)
        sf = super_poisson(
            superfunction_from_element(a), superfunction_from_element(b), w
        )
        rhs = grassmann_coeffs(sf)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_harmonic_flow():
    w = SuperPBMatrix.canonical_even(1)
    (q, p), _ = variables(2, 0)
    h = 0.5 * (q * q + p * p)
    times = np.linspace(0.0, 10.0, 21)
    traj = hamilton_flow(h, w, [1.0, 0.0], times)
    for row, t in zip(traj, times):
        assert abs(row[0] - np.cos(t)) < 1e-6
        assert abs(row[1] + np.sin(t)) < 1e-6
        energy = 0.5 * (row[0] ** 2 + row[1] ** 2)
        assert abs(energy - 0.5) < 1e-8


def test_quartic_conservation():
    w = SuperPBMatrix.canonical_even(1)
    (q, p), _ = variables(2, 0)
    h = 0.5 * (p * p) + 0.25 * (q * q * q * q)
    times = np.linspace(0.0, 8.0, 9)
    traj = hamilton_flow(h, w, [1.2, 0.3], times)
    e0 = body_value(h, traj[0]).real
    for row in traj:
        assert abs(body_value(h, row).real - e0) < 1e-8


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
def test_non_finite_coefficient_rejected(bad):
    with pytest.raises(SuperspaceError, match="non-finite"):
        SuperFunction(2, 0, {((1, 0), 0): bad})


def test_g3_state_is_unique():
    out = g3_unique_state()
    assert out["unique"]
    assert out["rejected"] == out["tried"]
    assert out["tried"]["grid"] > 0 and out["tried"]["random"] > 0
    phi = out["state"]
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.abs(phi.functional - expected).max() < 1e-12
    assert out["ccVerdict"] is False
    assert out["ccReport"]["clause"] == "statesSeparateObservables"


@pytest.mark.parametrize("samples", [0, -5])
def test_g3_unique_state_rejects_zero_samples(samples):
    # no scan may pass on zero random samples
    with pytest.raises(ValueError, match="samples must be at least 1"):
        g3_unique_state(samples=samples)


def test_berezin_expectation_on_g3_state():
    _, (t1, t2, t3) = variables(0, 3)
    rho = t3 * t2 * t1
    one = SuperFunction.scalar(0, 3, 1.0)
    assert abs(berezin_integral(one * rho).coefficient((), 0) - 1.0) < 1e-12
    assert abs(berezin_integral(t1 * t2 * rho).coefficient((), 0)) < 1e-12


def test_vector_fields_are_superderivations():
    dl, _ = grassmann_derivative_matrices(G3)
    assert superderivation_residuals(G3, dl, 1).max() < 1e-12
    # theta1 d/dtheta2 is an even derivation
    even_field = G3.left_mult_matrix(G3.basis_element(1).coeffs) @ dl[1]
    assert superderivation_residuals(G3, [even_field], 0)[0] < 1e-12
    # a second order operator is not a derivation
    assert superderivation_residuals(G3, [dl[0] @ dl[1]], 0)[0] > 1e-2
