"""The exact bracket batteries detect a corrupted bracket tensor, the
coupling and moyal-limit rows detect a corrupted route, moyal-limit's
associativity row detects a corrupted star product weight, the exact
hbar-order rows detect a star product shifted at order 0 or 1, and the Grassmann
density oracle reads the scanned state.  The calculus battery checks every
member of its basis stacks, takes each differential once per stack and the
Lie derivatives along every family member at once, fails a row on a NaN,
counts the basis inputs of every row, and holds its memory flat in the
number of wedge pairs.
Every row with a tolerance in the default reports counts the inputs it
evaluated.  A suite run leaves no cyclic garbage, and no package code reads
the dense cube of structure constants.

Each bracket corruption is a small change to a structure's ``pb_tensor``,
made after construction so the Hamiltonian-solve gate still passes; the
check it breaks must FAIL on every algebra of the battery."""
import gc
import tracemalloc
from itertools import product

import numpy as np
import pytest
from unittest import mock

from ncsym import calculus, measurement, moyal, superclassical, suites
from ncsym._linalg import expi_hermitian
from ncsym.algebra import Superalgebra, matrix_algebra
from ncsym.calculus import (
    AlgebraIsomorphism,
    Cochain,
    DerivationFamily,
    random_cochain,
    wedge,
)
from ncsym.coupling import grassmann_classical_factor
from ncsym.report import Report
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
        assert first[name].details["evaluated"] == 16


def test_coupling_verdicts_carry_their_lambda_fits():
    # each verdict rests on both factors' fitted lambda and fit residual;
    # hbar 0.5 gives lambda = i hbar on M2, and 0 on the Grassmann factor
    rep = suites.coupling_suite(seed=0)
    rows = {c.name: c.details for c in rep.checks if c.name.startswith("verdict.")}
    want = {
        "verdict.bothCommutative": (0.0, 0.0),
        "verdict.commutativeTimesQuantum": (0.0, 0.5j),
        "verdict.bothQuantumSameHbar": (0.5j, 0.5j),
        "verdict.quantumTimesDoubledHbar": (0.5j, 1.0j),
    }
    assert set(rows) == set(want)
    for name, lambdas in want.items():
        assert np.allclose(rows[name]["lambdas"], lambdas, rtol=0, atol=1e-12), name
        assert max(rows[name]["fitResiduals"]) <= 1e-12, name
    pair = suites.coupling_suite(seed=0, left="quantum:2.0", right="commutative").checks[0]
    assert pair.details["verdict"] == "NoneExistsMixed"
    assert np.allclose(pair.details["lambdas"], (2.0j, 0.0), rtol=0, atol=1e-12)
    assert len(pair.details["fitResiduals"]) == 2


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
    assert check.details["evaluated"] == 729
    assert (1, 1) in check.details["at"]


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

    def corrupted(alg):
        scan = scan_state(alg)
        f = scan["state"].functional.copy()
        f[-1] += EPS
        scan["state"] = State(scan["state"].algebra, f)
        return scan

    with mock.patch.object(suites, "g3_unique_state", corrupted):
        rep = suites.grassmann_suite(seed=0)
    check = next(c for c in rep.checks if c.name == "g3DensityOracle")
    assert not check.passed
    assert check.value == pytest.approx(EPS)


def test_uniqueness_fails_without_the_normalization_rows(monkeypatch):
    # the top monomial keeps the other conditions and its Gram matrix
    # vanishes off the unit, so the zero Gram rows no longer pin it
    conditions = superclassical._linear_conditions
    monkeypatch.setattr(
        superclassical, "_linear_conditions",
        lambda alg, a: {k: v for k, v in conditions(alg, a).items() if k != "normalization"},
    )
    rep = suites.grassmann_suite(seed=0)
    assert {c.name for c in rep.checks if not c.passed} == {"g3StateUnique"}
    check = next(c for c in rep.checks if c.name == "g3StateUnique")
    assert check.details["evaluated"] == 4
    assert check.details["margin"] < 1e-12


def test_uniqueness_fails_on_a_nonzero_entry_in_a_zero_gram_row(monkeypatch):
    # the entry (theta1, theta2) of the state's own Gram matrix, whose
    # theta1 diagonal is zero; a direction's Gram matrix has phi(1) = 0
    gram = superclassical.gram_matrix

    def perturbed(alg, functional):
        g = gram(alg, functional)
        if functional[0] == 1.0:
            g[1, 2] += EPS
        return g

    monkeypatch.setattr(superclassical, "gram_matrix", perturbed)
    rep = suites.grassmann_suite(seed=0)
    assert {c.name for c in rep.checks if not c.passed} == {"g3StateUnique"}
    check = next(c for c in rep.checks if c.name == "g3StateUnique")
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
    # interior products once per member parity; per parity pair of
    # 1-cochains: d of the wedges (d and the pullback of the basis
    # 1-cochains come from the stack rows).  One call per basis cochain
    # would be several hundred calls.
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
        assert len(calls) <= 39, seed


def test_the_calculus_battery_takes_lie_along_every_member_at_once(monkeypatch):
    # two Lie kernel calls per basis block, L w and L L w, each along the
    # whole family: 3 basis stacks on matrix2 and 6 on graded11, one block
    # each, so 18 calls where one call per member and member pair made 108;
    # the interior products are taken along the family too
    kernels = {"lie_derivative": [], "interior": []}

    def counting(name):
        run = getattr(suites, name)

        def counted(y, omega, *args, **kwargs):
            kernels[name].append(y is omega.family)
            return run(y, omega, *args, **kwargs)

        return counted

    for name in kernels:
        monkeypatch.setattr(suites, name, counting(name))
    for seed in range(5):
        for calls in kernels.values():
            calls.clear()
        assert suites.calculus_suite(seed).passed
        assert len(kernels["lie_derivative"]) <= 18, seed
        assert all(kernels["lie_derivative"]) and all(kernels["interior"]), seed


@pytest.mark.parametrize(
    "kernel, rows",
    [
        ("wedge", {"wedgeLeibniz", "pullbackWedge"}),
        ("lie_derivative", {"cartan", "lieBracket"}),
        ("interior", {"cartan"}),
    ],
)
def test_a_kernel_perturbed_on_its_last_member_fails_the_rows_that_read_it(
    monkeypatch, kernel, rows
):
    # the kernel moved by EPS on the last member of every stack and on nothing
    # else; every other row still passes.  wedge returns a cochain, and the
    # Lie and interior kernels along the family the tensor of the member
    # stack.  The cartan row reads exactly 0.0 on both algebras, so the
    # interior case shows that it still sees a perturbed interior product.
    run = getattr(suites, kernel)

    def shifted(*args, **kwargs):
        out = run(*args, **kwargs)
        getattr(out, "tensor", out)[..., -1, :] += EPS
        return out

    monkeypatch.setattr(suites, kernel, shifted)
    rep = suites.calculus_suite(seed=0)
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {f"{label}.{row}" for label in ("matrix2", "graded11") for row in rows}


def test_a_bracket_table_entry_perturbed_for_the_lie_kernel_fails_lie_bracket(monkeypatch):
    # the Lie kernel reads [X_a, X_i] from the family's bracket table; one
    # entry of the table it reads, moved by EPS (d and the bracket side
    # L_[Xa, Xb] w keep the true table), breaks [L_X, L_Y] = L_[X, Y], and
    # Cartan's formula, which reads L too
    run = suites.lie_derivative

    def shifted(y, omega, *args, **kwargs):
        fam = omega.family
        true = fam.bracket
        fam.bracket = true.copy()
        fam.bracket[0, 1, 2] += EPS
        try:
            return run(y, omega, *args, **kwargs)
        finally:
            fam.bracket = true

    monkeypatch.setattr(suites, "lie_derivative", shifted)
    rep = suites.calculus_suite(seed=0)
    failed = {c.name for c in rep.checks if not c.passed}
    assert failed == {f"{label}.{row}" for label in ("matrix2", "graded11")
                      for row in ("cartan", "lieBracket")}


def test_a_nan_in_a_calculus_block_fails_its_row_at_that_input():
    # one NaN, in the imaginary part of one entry of the second input of a
    # block of 2 slots x (3 members, 2 cochains) x 4 algebra coefficients
    gap = np.full((3, 3, 3, 2, 4), 1e-12 + 1e-12j)
    gap[1, 2, 0, 1, 3] = complex(0.0, np.nan)
    rows = {"cartan": []}
    suites._note(rows, "cartan", gap, 2)
    rep = Report("calculus", 0)
    check = rep.residual("cartan", np.concatenate(rows["cartan"]), 1e-10)
    assert not check.passed
    assert np.isnan(check.value)
    assert check.details["at"] == [1] and check.details["evaluated"] == 6


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


def test_the_calculus_battery_builds_only_the_algebras_it_runs():
    built = []
    with mock.patch.object(
        suites, "matrix_algebra", side_effect=lambda *args: built.append(args) or matrix_algebra(*args)
    ):
        rep = suites.calculus_suite(seed=0)
    assert built == [(2, None), (2, (1, 1))]
    assert {c.name.split(".")[0] for c in rep.checks} == {"matrix2", "graded11"}


def _wedge_rows_peak(samples):
    # the wedge rows on every pair of the first `samples` even basis
    # 1-cochains of matrix3
    fam = DerivationFamily.inner_family(matrix_algebra(3))
    ones = Cochain.basis(fam, 1, 0).member(slice(0, samples))
    iso = AlgebraIsomorphism.unitary_conjugation(fam.algebra, np.eye(3))
    rows = {name: [] for name in suites.CALCULUS_ROWS}
    tracemalloc.start()
    try:
        d, pulled = calculus.exterior_derivative(ones), calculus.pullback(iso, ones)
        suites._wedge_rows(rows, iso, [(ones, d, pulled)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(block.size for block in rows["wedgeLeibniz"]) == samples * samples
    return peak


def test_the_calculus_battery_memory_is_flat_in_samples():
    # each block wedges 113 // nb left factors with all nb right ones (7 and
    # 3 here), so four times the pairs adds only the d and pullbacks of the
    # larger basis
    peak_16, peak_32 = _wedge_rows_peak(16), _wedge_rows_peak(32)
    assert peak_32 <= 64e6
    assert peak_32 <= 1.15 * peak_16


def _perturbed_ones(fam, iso, rng):
    """Per parity, the basis 1-cochains with their d and pullback, each
    plus a random cochain per member, so that every pair of the wedge rows
    has its own residual, of order 1."""
    ones = []
    for t in (0, 1) if np.any(fam.algebra.parity) else (0,):
        basis = Cochain.basis(fam, 1, t)
        made = []
        for exact in (calculus.exterior_derivative(basis), calculus.pullback(iso, basis)):
            degree, n = exact.degree, basis.stack[0]
            noise = [random_cochain(fam, degree, t, rng).tensor for _ in range(n)]
            made.append(exact + Cochain(fam, degree, t, np.stack(noise, axis=-2)))
        ones.append((basis, *made))
    return ones


@pytest.mark.parametrize("label", ["matrix2", "graded11"])
def test_the_wedge_rows_take_pair_i_j_as_input_i_nb_plus_j(label):
    alg = matrix_algebra(*suites.BRACKET_CASES[label])
    fam = DerivationFamily.inner_family(alg)
    rng = np.random.default_rng(29)
    gen = alg.sample_element(rng, parity=0, hermitian=True)
    iso = AlgebraIsomorphism.unitary_conjugation(alg, expi_hermitian(gen.realize()))
    ones = _perturbed_ones(fam, iso, rng)
    rows = {name: [] for name in suites.CALCULUS_ROWS}
    suites._wedge_rows(rows, iso, ones)
    # the same residuals pair by pair on lone cochains, in the order of the
    # parity pairs, then of (i, j) in C order
    want = {"wedgeLeibniz": [], "pullbackWedge": []}
    for (left, d_left, p_left), (right, d_right, p_right) in product(ones, ones):
        for i, j in product(range(left.stack[0]), range(right.stack[0])):
            a, b = left.member(i), right.member(j)
            ab = wedge(a, b)
            leibniz = calculus.exterior_derivative(ab) - (
                wedge(d_left.member(i), b) - wedge(a, d_right.member(j))
            )
            want["wedgeLeibniz"].append(leibniz.norm())
            hom = calculus.pullback(iso, ab) - wedge(p_left.member(i), p_right.member(j))
            want["pullbackWedge"].append(hom.norm())
    for name, values in want.items():
        got, values = np.concatenate(rows[name]), np.array(values)
        assert got.shape == values.shape
        # most pairs have a residual of their own, so an order slip shows
        assert np.unique(values.round(9)).size > values.size / 2
        assert np.abs(got - values).max() <= 1e-12 * values.max()


@pytest.mark.parametrize("label", list(suites.BRACKET_CASES))
def test_one_left_factor_with_every_right_one_fits_the_pair_budget(label):
    # the wedge rows wedge at least one left basis 1-cochain with the whole
    # right stack per block; on every preset that block's d stays within
    # the differential's chunk bound
    fam = DerivationFamily.inner_family(matrix_algebra(*suites.BRACKET_CASES[label]))
    m, dim = len(fam), fam.algebra.dim
    budget = calculus._CHUNK_ENTRIES // (m**3 * dim)
    for t in (0, 1):
        assert Cochain.basis(fam, 1, t).stack[0] <= budget


# rows whose verdict adds a second condition to a tolerance on one value
TOLERANCE_WITHOUT_INPUTS = {"classicalOrders", "hybridBracketOrder", "perturbedLambdaDetected"}


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_every_row_with_a_tolerance_counts_its_inputs(name):
    rep = suites.SUITES[name](seed=0)
    rows = [c for c in rep.checks if c.tolerance is not None]
    assert rows
    for c in rows:
        if c.name not in TOLERANCE_WITHOUT_INPUTS:
            assert c.details["evaluated"] >= 1, c.name


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
