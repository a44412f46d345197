"""The exact bracket batteries detect a corrupted bracket tensor, the
coupling and moyal-limit rows detect a corrupted route, moyal-limit's
associativity row detects a corrupted star product weight, the exact
hbar-order rows detect a star product shifted at order 0 or 1, and the Grassmann
density oracle reads the scanned state.  The calculus battery checks every
member of its basis stacks, takes each differential once per stack, counts
the basis inputs of every row, and holds its memory flat in the number of
wedge pairs.
A suite run leaves no cyclic garbage, and no package code reads the dense
cube of structure constants.

Each bracket corruption is a small change to a structure's ``pb_tensor``,
made after construction so the Hamiltonian-solve gate still passes; the
check it breaks must FAIL on every algebra of the battery."""
import gc
import tracemalloc

import numpy as np
import pytest
from unittest import mock

from ncsym import calculus, measurement, moyal, suites
from ncsym.algebra import Superalgebra, matrix_algebra
from ncsym.calculus import (
    AlgebraIsomorphism,
    Cochain,
    DerivationFamily,
    random_cochain,
    wedge,
)
from ncsym.coupling import grassmann_classical_factor
from ncsym.states import State, gns, make_state

EPS = 1e-6


def _phase(alg, t):
    # i{,} is no longer real; every multilinear axiom is homogeneous in t
    return t * (1 + EPS * 1j)


def _graded_symmetric_part(alg, t):
    return t + EPS * (alg.constants + alg.swapped_structure()).dense()


def _one_pair_scaled(alg, t):
    # {e_a, e_b} and {e_b, e_a} on one pair with a nonzero bracket
    a, b = np.argwhere(np.abs(t).max(axis=2) > 0.5)[0]
    t = t.copy()
    t[a, b] *= 1 + EPS
    t[b, a] *= 1 + EPS
    return t


def _one_basis_element_rescaled(alg, t):
    t = t.copy()
    t[1] *= 1 + EPS
    t[:, 1] *= 1 + EPS
    return t


def _unit_shifted(alg, t):
    # Y_a + EPS conj(u_a) Id, so Y_1 = EPS |u|**2 Id
    return t + EPS * np.einsum("a,bk->abk", np.conj(alg.unit_coeffs), np.eye(alg.dim))


def _identity_report(corrupt):
    build = suites.quantum_form

    def corrupted(alg, hbar):
        ss = build(alg, hbar)
        ss.pb_tensor = corrupt(alg, ss.pb_tensor)
        return ss

    with mock.patch.object(suites, "quantum_form", corrupted):
        return suites.identity_suite(seed=0)


@pytest.mark.parametrize(
    "axiom, corrupt",
    [
        ("antisymmetry", _graded_symmetric_part),
        ("leibniz", _one_pair_scaled),
        ("jacobi", _one_basis_element_rescaled),
        ("reality", _phase),
        ("unit", _unit_shifted),
        ("hamiltonianBracket", _one_basis_element_rescaled),
    ],
)
def test_identity_check_fails_on_a_corrupted_bracket(axiom, corrupt):
    assert suites.identity_suite(seed=0).passed
    rep = _identity_report(corrupt)
    verdicts = {c.name: c.passed for c in rep.checks}
    for label in ("matrix2", "matrix3", "graded11"):
        assert verdicts[f"{label}.{axiom}"] is False, label


def test_phase_corruption_breaks_only_reality():
    failed = {c.name.split(".")[1] for c in _identity_report(_phase).checks if not c.passed}
    assert failed == {"reality"}


def test_product_bracket_check_fails_on_a_corrupted_bracket():
    build = suites.ProductStructure

    def corrupted(f1, f2):
        prod = build(f1, f2)
        prod.pb_tensor = prod.pb_tensor * (1 + 1e-10)
        return prod

    assert suites.coupling_suite(seed=0).passed
    with mock.patch.object(suites, "ProductStructure", corrupted):
        rep = suites.coupling_suite(seed=0)
    check = next(c for c in rep.checks if c.name == "productEqualsKronCommutator")
    assert not check.passed
    assert check.value > suites.COUPLING_KRON_TOL


def test_three_term_check_fails_on_a_shifted_lambda():
    # the operator route with lam + 0.1 in place of the fitted lam
    build = suites.ProductStructure

    def shifted(f1, f2):
        prod = build(f1, f2)
        prod.lam = prod.lam + 0.1
        return prod

    with mock.patch.object(suites, "ProductStructure", shifted):
        rep = suites.coupling_suite(seed=0)
    check = next(c for c in rep.checks if c.name == "threeTermOperatorIsDerivation")
    assert not check.passed
    assert check.value > 1e-3


def test_coupling_operator_rows_do_not_depend_on_the_seed():
    rows = ("threeTermOperatorIsDerivation", "perturbedLambdaDetected")
    reports = [suites.coupling_suite(seed=s) for s in (0, 3)]
    first, second = ({c.name: c for c in r.checks if c.name in rows} for r in reports)
    assert set(first) == set(rows)
    for name in rows:
        assert first[name].to_dict() == second[name].to_dict()
        assert first[name].details["pairs"] == 16


def _wrong_width(state):
    return lambda xs, hbar: state(xs, 1.01 * hbar)


def _shifted_point(kernel):
    return lambda f, g, xi, xs, ps, hbar: kernel(f, g, (xi[0] + 1e-3, xi[1]), xs, ps, hbar)


@pytest.mark.parametrize(
    "row, target, corrupt",
    [
        ("wignerGroundState", "oscillator_ground_state", _wrong_width),
        ("wignerFirstExcited", "oscillator_first_excited", _wrong_width),
        ("kernelStarProjector", "star_integral", _shifted_point),
    ],
    ids=["wignerGroundState", "wignerFirstExcited", "kernelStarProjector"],
)
def test_moyal_route_rows_fail_on_a_corrupted_route(row, target, corrupt):
    assert suites.moyal_suite(seed=0).passed
    with mock.patch.object(suites, target, corrupt(getattr(suites, target))):
        rep = suites.moyal_suite(seed=0)
    assert {c.name for c in rep.checks if not c.passed} == {row}
    check = next(c for c in rep.checks if c.name == row)
    assert check.value > 10 * check.tolerance


def test_moyal_associativity_fails_on_a_perturbed_star_weight():
    # the top-order weight of xp * xp is -2; with -1 the series is no
    # longer associative, and only monomial triples through xp * xp see it
    weights = moyal._pair_weights

    def perturbed(a1, b1, a2, b2):
        out = weights(a1, b1, a2, b2)
        if (a1, b1, a2, b2) == (1, 1, 1, 1):
            k, w = out[-1]
            out = out[:-1] + ((k, w + 1),)
        return out

    with mock.patch.object(moyal, "_pair_weights", perturbed):
        rep = suites.moyal_suite(seed=0)
    assert {c.name for c in rep.checks if not c.passed} == {"associativity"}
    check = next(c for c in rep.checks if c.name == "associativity")
    assert check.value > 10 * check.tolerance
    assert check.details["triples"] == 729
    assert [1, 1] in check.details["at"]


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize(
    "suite, module, row",
    [("moyal-limit", moyal, "classicalOrders"), ("decoherence", measurement, "hybridBracketOrder")],
    ids=["classicalOrders", "hybridBracketOrder"],
)
def test_order_rows_fail_on_a_perturbed_star(monkeypatch, suite, module, row, order):
    # star plus EPS hbar**order f g: the shift is commutative, so the Moyal
    # bracket and the rows it feeds stay exact and only the order row sees it
    star = module.star
    monkeypatch.setattr(
        module, "star", lambda f, g, hbar: star(f, g, hbar) + (EPS * hbar**order) * (f * g)
    )
    rep = suites.SUITES[suite](seed=0)
    assert {c.name for c in rep.checks if not c.passed} == {row}
    check = next(c for c in rep.checks if c.name == row)
    assert check.value > 10 * check.tolerance


@pytest.mark.parametrize("seed", [1304, 1058951390])
def test_hybrid_bracket_order_passes_where_a_slope_fit_bent(seed):
    # a small [F, A] here bent the old log-log fit to 1.70 and 1.85
    rep = suites.decoherence_suite(seed=seed)
    assert rep.passed
    check = next(c for c in rep.checks if c.name == "hybridBracketOrder")
    assert check.details["orderOneSize"] > 1e-4


def test_density_oracle_reads_the_scanned_state():
    scan_state = suites.g3_unique_state

    def corrupted(**kwargs):
        scan = scan_state(**kwargs)
        f = scan["state"].functional.copy()
        f[-1] += EPS
        scan["state"] = State(scan["state"].algebra, f)
        return scan

    with mock.patch.object(suites, "g3_unique_state", corrupted):
        rep = suites.grassmann_suite(seed=0)
    check = next(c for c in rep.checks if c.name == "g3DensityOracle")
    assert not check.passed
    assert check.value == pytest.approx(EPS)


def test_rk4_row_fails_on_a_perturbed_generator(monkeypatch):
    # only the RK4 row reads the stepped trajectory, so a wrong generator shows there alone
    stepper = suites.rk4_trajectory
    monkeypatch.setattr(
        suites, "rk4_trajectory", lambda lmat, *args: stepper((1 + 1e-4) * lmat, *args)
    )
    rep = suites.evolve_suite(seed=0)
    verdicts = {c.name: c.passed for c in rep.checks}
    assert verdicts.pop("coupled.rk4MatchesClosedForm") is False
    assert len(verdicts) == 4 and all(verdicts.values())
    check = next(c for c in rep.checks if c.name == "coupled.rk4MatchesClosedForm")
    assert check.value > 10 * check.tolerance


def test_the_last_member_of_every_stack_is_checked(monkeypatch):
    # d moved by EPS on the last cochain of every stack and on nothing else
    d = suites.exterior_derivative

    def shifted(omega):
        out = d(omega)
        if out.stack:
            out.tensor[..., -1, :] += EPS
        return out

    assert suites.verify_suite(seed=0).passed
    monkeypatch.setattr(suites, "exterior_derivative", shifted)
    rep = suites.verify_suite(seed=0)
    failed = {c.name for c in rep.checks if not c.passed}
    for label in ("matrix2", "graded11"):
        for row in ("ddZero", "cartan", "pullbackDifferential"):
            assert f"calculus.{label}.{row}" in failed


def test_the_calculus_battery_takes_each_differential_once_per_stack(monkeypatch):
    # per degree and parity: d w, d d w, d of the pullback and d of the
    # interior products; per parity pair of 1-cochains: d of the wedges;
    # one call per basis cochain would be several hundred calls.
    d = calculus.exterior_derivative
    calls = []

    def counted(omega):
        calls.append(omega.degree)
        return d(omega)

    monkeypatch.setattr(calculus, "exterior_derivative", counted)
    monkeypatch.setattr(suites, "exterior_derivative", counted)
    for seed in range(5):
        calls.clear()
        assert suites.calculus_suite(seed).passed
        assert len(calls) <= 80, seed


@pytest.mark.parametrize(
    "kernel, rows",
    [("wedge", {"wedgeLeibniz", "pullbackWedge"}), ("lie_derivative", {"cartan", "lieBracket"})],
)
def test_a_kernel_perturbed_on_its_last_member_fails_the_rows_that_read_it(
    monkeypatch, kernel, rows
):
    # the kernel moved by EPS on the last member of every stack and on nothing
    # else; every other row still passes
    run = getattr(suites, kernel)

    def shifted(*args):
        out = run(*args)
        if out.stack:
            out.tensor[..., -1, :] += EPS
        return out

    monkeypatch.setattr(suites, kernel, shifted)
    rep = suites.calculus_suite(seed=0)
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {f"{label}.{row}" for label in ("matrix2", "graded11") for row in rows}


# basis inputs per row: basis cochains of degree <= 2 (28 on matrix2, 36 on
# graded11), times the 3 family members (cartan) or the 9 ordered member
# pairs (lieBracket); basis cochains of degree <= 1 (pullbackDifferential);
# pairs of basis 1-cochains (the wedge rows)
EVALUATED = {
    "matrix2": {"ddZero": 28, "cartan": 84, "lieBracket": 252,
                "wedgeLeibniz": 144, "pullbackWedge": 144, "pullbackDifferential": 16},
    "graded11": {"ddZero": 36, "cartan": 108, "lieBracket": 324,
                 "wedgeLeibniz": 144, "pullbackWedge": 144, "pullbackDifferential": 16},
}


def test_every_calculus_row_counts_the_basis_inputs_it_evaluated():
    rep = suites.calculus_suite(seed=0)
    assert all(c.details["evaluated"] > 0 for c in rep.checks)
    got = {}
    for c in rep.checks:
        label, row = c.name.split(".")
        got.setdefault(label, {})[row] = c.details["evaluated"]
    assert got == EVALUATED


def _wedge_rows_peak(samples):
    # the wedge rows on every pair of the first `samples` even basis
    # 1-cochains of matrix3
    fam = DerivationFamily.inner_family(matrix_algebra(3))
    ones = Cochain.basis(fam, 1, 0).member(slice(0, samples))
    iso = AlgebraIsomorphism.unitary_conjugation(fam.algebra, np.eye(3))
    rows = dict.fromkeys(suites.CALCULUS_ROWS, (0.0, 0))
    tracemalloc.start()
    try:
        suites._wedge_rows(rows, iso, [ones])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows["wedgeLeibniz"][1] == samples * samples
    return peak


def test_the_calculus_battery_memory_is_flat_in_samples():
    # the wedge pairs are cut into blocks of 79, so four times the pairs adds
    # only the d and pullbacks of the larger basis
    peak_16, peak_32 = _wedge_rows_peak(16), _wedge_rows_peak(32)
    assert peak_32 <= 64e6
    assert peak_32 <= 1.15 * peak_16


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_a_suite_run_leaves_no_cyclic_garbage(name):
    # nothing a suite keeps points back at an algebra, so reference
    # counting frees every algebra it builds
    run = suites.SUITES[name]
    run(seed=0)  # fill the module-level caches first
    gc.collect()
    gc.disable()
    try:
        run(seed=0)
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed == 0


def _dense_cube(alg):
    raise AssertionError("package code read the dense structure cube")


def test_no_package_code_reads_the_dense_cube(monkeypatch):
    monkeypatch.setattr(Superalgebra, "structure", property(_dense_cube))
    for name, run in suites.SUITES.items():
        assert run(seed=0).passed, name
    rng = np.random.default_rng(0)
    fam = DerivationFamily.inner_family(matrix_algebra(2, grading=(1, 1)))
    one, two = random_cochain(fam, 1, 1, rng), random_cochain(fam, 2, 0, rng)
    assert wedge(one, two).degree == wedge(two, one).degree == 3
    m2 = matrix_algebra(2)
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert gns(m2, make_state(m2, "densityMatrix", rho)).dimension == 4
    grassmann_classical_factor(3)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    AlgebraIsomorphism.unitary_conjugation(m2, u)
