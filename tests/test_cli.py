import inspect
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ncsym import suites
from ncsym._linalg import expi_hermitian
from ncsym.algebra import matrix_algebra
from ncsym.calculus import (
    AlgebraIsomorphism,
    Cochain,
    DerivationFamily,
    exterior_derivative,
    pullback,
)
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
    assert main(["stern-gerlach", "--tol", "1e-9"]) == 2
    assert "does not take --tol" in capsys.readouterr().err


def _unknown_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return "unrecognized arguments" in capsys.readouterr().err


def test_coupling_takes_no_samples(capsys):
    # the coupling battery runs on every basis pair, so there is no count
    assert _unknown_flag(["coupling", "--samples", "5"], capsys)


def test_moyal_limit_takes_no_samples(capsys):
    # associativity runs on every monomial triple, so there is no count
    assert _unknown_flag(["moyal-limit", "--samples", "5"], capsys)


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
    "argv", [["grassmann", "--samples", n] for n in ("0", "-5", "5")]
)
def test_samples_below_one_is_usage_error(argv, capsys):
    # no suite samples, so argparse refuses every sample count
    assert _unknown_flag(argv, capsys)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_negative_seed_is_usage_error(suite, capsys):
    assert main([suite, "--seed", "-1"]) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err


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
        rep = suites.grassmann_suite(seed=0)
    assert via_alg.call_count >= 1
    assert rep.passed


def test_grassmann_tol_gates_the_residual_checks():
    rep = suites.grassmann_suite(seed=0, tol=1e-6)
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


def test_an_out_path_that_cannot_be_written_is_usage_error(tmp_path, capsys):
    # a file name past the file system's 255-byte limit fails at open()
    path = tmp_path / ("x" * 300 + ".json")
    assert main(["grassmann", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"ncsym: cannot write --out {path}" in captured.err
    assert "report written" not in captured.out
    assert list(tmp_path.iterdir()) == []



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
    assert peak <= 40e6


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
    rows = {name: [] for name in suites.CALCULUS_ROWS}
    ones = Cochain.basis(fam, 1, 0).member(slice(0, samples))
    suites._wedge_rows(rows, iso, [(ones, exterior_derivative(ones), pullback(iso, ones))])
    for name in ("wedgeLeibniz", "pullbackWedge"):
        values = np.concatenate(rows[name])
        assert values.size == samples * samples
        assert values.max() <= suites.CALCULUS_TOL


@pytest.mark.parametrize("samples, seed", [(None, 4), (3, 3)])
def test_verify_samples_reach_the_calculus_battery(samples, seed, capsys):
    # no sample count reaches the calculus battery: without one, verify runs
    # the wedge rows on all 144 basis pairs of matrix2's 1-cochains in one
    # block of four wedge calls; with one, argparse refuses it before any battery
    argv = ["verify", "--seed", str(seed), "--algebra", "m2"]
    with mock.patch.object(suites, "wedge", wraps=suites.wedge) as wedge:
        if samples is None:
            assert main(argv) == 0
            assert "PASS suite=verify" in capsys.readouterr().out
        else:
            assert _unknown_flag(argv + ["--samples", str(samples)], capsys)
    assert wedge.call_count == (4 if samples is None else 0)


SUITE_FLAGS = {"tol": "1e-9", "algebra": "m2", "left": "quantum:1.0", "right": "commutative"}


@pytest.mark.parametrize(
    "suite, flag",
    [(suite, flag) for suite, fn in SUITES.items() for flag in SUITE_FLAGS
     if flag not in inspect.signature(fn).parameters],
)
def test_a_suite_specific_flag_is_refused_by_a_suite_that_lacks_it(suite, flag, capsys):
    # one rule for every suite-specific flag, checked before the suite runs
    fn = mock.Mock(wraps=SUITES[suite])
    with mock.patch.dict(SUITES, {suite: fn}):
        assert main([suite, f"--{flag}", SUITE_FLAGS[flag]]) == 2
    assert fn.call_count == 0
    assert f"ncsym: suite {suite!r} does not take --{flag}" in capsys.readouterr().err


def test_every_suite_specific_flag_is_taken_by_some_suite():
    taken = {flag for fn in SUITES.values() for flag in inspect.signature(fn).parameters}
    assert set(SUITE_FLAGS) <= taken


def test_verify_algebra_all_is_no_restriction(tmp_path, capsys):
    plain, every = tmp_path / "plain.json", tmp_path / "all.json"
    assert main(["verify", "--out", str(plain)]) == 0
    assert main(["verify", "--algebra", "all", "--out", str(every)]) == 0
    capsys.readouterr()
    assert plain.read_bytes() == every.read_bytes()


def test_help_lists_every_suite_with_its_summary(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, fn in SUITES.items():
        summary = fn.__doc__.strip().splitlines()[0]
        assert any(line.split() == [name] + summary.split() for line in lines), name


def test_every_suite_summary_in_help_is_one_whole_sentence(capsys):
    # each epilog line is its suite's whole first docstring paragraph, a
    # sentence that starts with a capital and ends in a full stop
    with pytest.raises(SystemExit):
        main(["-h"])
    lines = capsys.readouterr().out.splitlines()
    listed = lines[lines.index("suites:") + 1 :]
    assert [line.split()[0] for line in listed] == list(SUITES)
    for line, fn in zip(listed, SUITES.values()):
        summary = line.split(None, 1)[1]
        assert summary[0].isupper() and summary.endswith("."), line
        assert " ".join(fn.__doc__.strip().split("\n\n")[0].split()) == summary, line


def test_an_unwritable_out_path_is_refused_before_the_suite_runs(tmp_path, capsys):
    suite = mock.Mock(wraps=SUITES["grassmann"])
    path = tmp_path / ("x" * 300 + ".json")
    with mock.patch.dict(SUITES, grassmann=suite):
        assert main(["grassmann", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert suite.call_count == 0
    assert captured.out == ""
    assert f"ncsym: cannot write --out {path}" in captured.err


def test_a_usage_error_in_the_suite_leaves_no_out_file(tmp_path, capsys):
    # the --out probe made the file; no report reached it, so it is removed
    path = tmp_path / "pair.json"
    assert main(["coupling", "--left", "quantum:1.0", "--out", str(path)]) == 2
    assert "both factor tokens" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_usage_error_in_the_suite_keeps_an_existing_out_file(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_bytes(b"earlier report")
    assert main(["coupling", "--left", "quantum:1.0", "--out", str(path)]) == 2
    capsys.readouterr()
    assert path.read_bytes() == b"earlier report"
