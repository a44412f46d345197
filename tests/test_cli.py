import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ncsym import suites
from ncsym._linalg import expi_hermitian
from ncsym.algebra import matrix_algebra
from ncsym.calculus import AlgebraIsomorphism, Cochain, DerivationFamily
from ncsym.cli import main
from ncsym.suites import SUITES


def test_verify_exits_zero(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS suite=verify" in out
    assert "ok  " in out


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-suite"])
    assert exc.value.code == 2


def test_missing_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_flag_rejected_when_suite_lacks_it(capsys):
    assert main(["stern-gerlach", "--samples", "5"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_coupling_takes_no_samples(capsys):
    # the coupling battery runs on every basis pair, so there is no count
    assert main(["coupling", "--samples", "5"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_moyal_limit_takes_no_samples(capsys):
    # associativity runs on every monomial triple, so there is no count
    assert main(["moyal-limit", "--samples", "5"]) == 2
    assert "--samples" in capsys.readouterr().err


def test_json_report_round_trip(tmp_path, capsys):
    out = tmp_path / "gns.json"
    assert main(["gns", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["suite"] == "gns"
    assert data["seed"] == 3
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_reports_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        assert main(["coupling", "--seed", "11", "--out", str(path)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_csv_output(tmp_path, capsys):
    out = tmp_path / "m.csv"
    assert main(["moyal-limit", "--seed", "0", "--out", str(out), "--format", "csv"]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,name,passed,value,tolerance"
    assert len(lines) > 1
    assert all(row.split(",")[2] == "true" for row in lines[1:])


def test_verify_algebra_restriction(capsys):
    assert main(["verify", "--algebra", "m2"]) == 0
    out = capsys.readouterr().out
    assert "identity.matrix2" in out
    assert "matrix3" not in out
    assert "graded11" not in out


def test_coupling_pair_query(capsys):
    assert main(["coupling", "--left", "quantum:1.0", "--right", "commutative"]) == 0
    out = capsys.readouterr().out
    assert "NoneExistsMixed" in out


def test_coupling_pair_query_at_large_hbar(capsys):
    # the closedness and reality gates scale with |omega| = hbar
    assert main(["coupling", "--left", "quantum:1e6", "--right", "quantum:1e6"]) == 0
    assert "ExistsQuantum" in capsys.readouterr().out


def test_coupling_pair_query_needs_both_tokens(capsys):
    assert main(["coupling", "--left", "quantum:1.0"]) == 2
    assert "both factor tokens" in capsys.readouterr().err


def test_unknown_preset_is_usage_error(capsys):
    # the paper scenario is the only one, so the suite takes no --preset
    for preset in ("upside-down", "paper"):
        with pytest.raises(SystemExit) as exc:
            main(["stern-gerlach", "--preset", preset])
        assert exc.value.code == 2
        assert "--preset" in capsys.readouterr().err


def test_every_suite_passes_quickly(capsys):
    # the smoke pass used by the batch runner: all suites, default seed
    for name in SUITES:
        assert main([name, "--seed", "0"]) == 0, name
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv", [["grassmann", "--samples", "0"], ["grassmann", "--samples", "-5"]]
)
def test_samples_below_one_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "samples must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
def test_tol_must_be_finite_and_positive(tol, capsys):
    assert main(["gns", f"--tol={tol}"]) == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("hbar", ["nan", "inf", "-1"])
def test_factor_hbar_must_be_finite_and_positive(hbar, capsys):
    assert main(["coupling", "--left", f"quantum:{hbar}", "--right", "quantum"]) == 2
    assert "hbar must be finite and positive" in capsys.readouterr().err


def test_grassmann_routes_compared_below_ten_samples():
    with mock.patch.object(
        suites, "berezin_integral_coeffs", wraps=suites.berezin_integral_coeffs
    ) as via_alg:
        rep = suites.grassmann_suite(seed=0, samples=5)
    assert via_alg.call_count >= 1
    assert rep.passed


def test_grassmann_tol_gates_the_residual_checks():
    rep = suites.grassmann_suite(seed=0, samples=5, tol=1e-6)
    gated = {
        "canonicalEvenWorkedBracket", "oddSelfBracket", "berezinRoutesAgree",
        "g3StateIsDelta", "g3DensityOracle",
    }
    tols = {c.name: c.tolerance for c in rep.checks if c.name in gated}
    assert tols == dict.fromkeys(gated, 1e-6)


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    suite = mock.Mock(wraps=SUITES["gns"])
    with mock.patch.dict(SUITES, gns=suite):
        code = main(["gns", "--out", str(tmp_path / "missing" / "x.json")])
    assert code == 2
    assert suite.call_count == 0
    assert "ncsym: --out directory does not exist" in capsys.readouterr().err


def test_out_naming_a_directory_is_usage_error(tmp_path, capsys):
    suite = mock.Mock(wraps=SUITES["gns"])
    with mock.patch.dict(SUITES, gns=suite):
        code = main(["gns", "--out", str(tmp_path)])
    assert code == 2
    assert suite.call_count == 0
    assert f"ncsym: --out is a directory: {tmp_path}" in capsys.readouterr().err



def test_calculus_battery_runs_on_an_explicit_matrix3():
    # the opt-in matrix3 battery: 333 basis cochains and 5,184 wedge pairs,
    # run in blocks, so its peak stays bounded
    tracemalloc.start()
    try:
        rep = suites.calculus_suite(0, only="m3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.checks and all(c.name.startswith("matrix3.") for c in rep.checks)
    assert rep.passed
    assert all(c.details["evaluated"] > 0 for c in rep.checks)
    evaluated = {c.name: c.details["evaluated"] for c in rep.checks}
    assert evaluated["matrix3.ddZero"] == 9 + 72 + 252
    assert evaluated["matrix3.wedgeLeibniz"] == evaluated["matrix3.pullbackWedge"] == 72 * 72
    assert peak <= 64e6


@pytest.mark.parametrize("samples", [1, 5])
@pytest.mark.parametrize("seed", range(5))
def test_ungraded_calculus_battery_samples_even_wedge_factors(seed, samples):
    # an odd 1-cochain on M3 is identically zero, so its odd basis is empty
    # and the wedge rows take even factors only; on the first `samples` even
    # basis 1-cochains, under an automorphism drawn from the seed, they
    # evaluate every pair and pass
    alg = matrix_algebra(3)
    fam = DerivationFamily.inner_family(alg)
    assert Cochain.basis(fam, 1, 1).stack == (0,)
    gen = alg.sample_element(np.random.default_rng(seed), parity=0, hermitian=True)
    iso = AlgebraIsomorphism.unitary_conjugation(alg, expi_hermitian(gen.realize()))
    rows = dict.fromkeys(suites.CALCULUS_ROWS, (0.0, 0))
    suites._wedge_rows(rows, iso, [Cochain.basis(fam, 1, 0).member(slice(0, samples))])
    for name in ("wedgeLeibniz", "pullbackWedge"):
        value, evaluated = rows[name]
        assert evaluated == samples * samples
        assert value <= suites.CALCULUS_TOL


@pytest.mark.parametrize("samples, seed", [(None, 4), (3, 3)])
def test_verify_samples_reach_the_calculus_battery(samples, seed, capsys):
    # no sample count reaches the calculus battery: without one, verify runs
    # the wedge rows on all 144 basis pairs of matrix2's 1-cochains in one
    # block of four wedge calls; with one, it is refused before any battery
    argv = ["verify", "--seed", str(seed), "--algebra", "m2"]
    if samples is not None:
        argv += ["--samples", str(samples)]
    with mock.patch.object(suites, "wedge", wraps=suites.wedge) as wedge:
        code = main(argv)
    if samples is None:
        assert code == 0
        assert wedge.call_count == 4
        assert "PASS suite=verify" in capsys.readouterr().out
    else:
        assert code == 2
        assert wedge.call_count == 0
        assert "does not take --samples" in capsys.readouterr().err
