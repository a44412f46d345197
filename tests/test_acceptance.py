"""Acceptance battery: one test per pinned criterion.

Each test drives a deterministic suite and asserts its verdict at the
pinned tolerance, so `pytest tests/test_acceptance.py -v` prints exactly
one pass/fail line per criterion.
"""
import time


from ncsym.suites import (
    SUITES,
    calculus_suite,
    coupling_suite,
    decoherence_suite,
    evolve_suite,
    gns_suite,
    grassmann_suite,
    identity_suite,
    moyal_suite,
    stern_gerlach_suite,
)
from ncsym.symplectic import EIG_COND_MAX, EIG_RESIDUAL_TOL

SEED = 20250825


def _failures(report):
    return "\n".join(c.line() for c in report.checks if not c.passed) or "all checks ok"


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"missing check {name!r}")


def test_criterion_01_bracket_identities_at_1e9():
    t0 = time.perf_counter()
    rep = identity_suite(seed=SEED, tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert rep.passed, _failures(rep)
    assert {c.name.split(".")[0] for c in rep.checks} == {
        "matrix2",
        "matrix3",
        "graded11",
    }
    assert elapsed < 30.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_02_calculus_identities_at_1e10():
    rep = calculus_suite(seed=SEED, tol=1e-10)
    assert rep.passed, _failures(rep)
    assert any(c.name.startswith("graded11.") for c in rep.checks)


def test_criterion_03_coupling_verdicts_and_bracket_routes():
    rep = coupling_suite(seed=SEED, tol=1e-12)
    assert rep.passed, _failures(rep)
    assert _check(rep, "productEqualsKronCommutator").value <= 1e-12
    assert _check(rep, "perturbedLambdaDetected").value >= 1e-3
    for name in (
        "verdict.bothCommutative",
        "verdict.commutativeTimesQuantum",
        "verdict.bothQuantumSameHbar",
        "verdict.quantumTimesDoubledHbar",
    ):
        assert _check(rep, name).passed


def test_criterion_04_gns_representation_oracles():
    rep = gns_suite(seed=SEED, tol=1e-10)
    assert rep.passed, _failures(rep)
    assert _check(rep, "vector2.residuals").value <= 1e-10
    assert _check(rep, "vector3.residuals").value <= 1e-10
    assert _check(rep, "tracial2.commutant").value == 4


def test_criterion_05_unique_state_on_three_odd_generators():
    rep = grassmann_suite(seed=SEED)
    assert rep.passed, _failures(rep)
    sep = _check(rep, "g3SeparationFails")
    assert sep.details["witness"] is not None
    assert _check(rep, "g3StateIsDelta").value <= 1e-12


def test_criterion_06_star_product_and_classical_limit():
    rep = moyal_suite(seed=SEED, tol=1e-10)
    assert rep.passed, _failures(rep)
    assert _check(rep, "canonicalBracketExact").value <= 1e-13
    orders = _check(rep, "classicalOrders")
    assert orders.value <= 1e-12
    assert orders.details["orderTwoSize"] > 1e-8


def test_criterion_07_stern_gerlach_magnitudes():
    rep = stern_gerlach_suite(seed=SEED)
    assert rep.passed, _failures(rep)
    assert 4e-4 <= _check(rep, "tauWindow").value <= 6e-4
    assert 1e-20 <= _check(rep, "etaWindow").value <= 1e-19
    assert 1e7 <= _check(rep, "actionRatioWindow").value <= 1e9


def test_criterion_08_decoherence_and_matrix_apparatus():
    rep = decoherence_suite(seed=SEED, tol=1e-7)
    assert rep.passed, _failures(rep)
    assert _check(rep, "magnitudeAtKappa1e8").value <= 1e-7
    assert _check(rep, "probabilitiesExact").value <= 1e-15
    assert _check(rep, "matrixApparatusRouteGap").value <= 1e-6
    assert _check(rep, "hybridBracketOrder").value <= 1e-12


def test_criterion_09_evolution_duality_to_ten_seconds():
    rep = evolve_suite(seed=SEED, tol=1e-8)
    assert rep.passed, _failures(rep)
    eigen = {"eigCond", "eigResidual", "expmFallback"}
    assert rep.meta.keys() == {"tmax", "singleFactor", "coupled"}
    assert rep.meta["tmax"] == 10.0
    for system in ("singleFactor", "coupled"):
        meta = rep.meta[system]
        assert meta.keys() == eigen and not meta["expmFallback"]
        assert meta["eigCond"] <= EIG_COND_MAX and meta["eigResidual"] <= EIG_RESIDUAL_TOL
    assert _check(rep, "coupled.duality").value <= 1e-8
    assert _check(rep, "coupled.densityOracle").value <= 1e-8
    assert _check(rep, "coupled.rk4MatchesClosedForm").value <= 1e-6


def test_criterion_10_reports_deterministic_per_seed():
    for name, fn in SUITES.items():
        first = fn(seed=7).to_json_bytes()
        second = fn(seed=7).to_json_bytes()
        assert first == second, f"suite {name} is not byte-deterministic"
        assert b'"passed": true' in first
