import json

import numpy as np
import pytest

from ncsym.report import Report, jsonable, merge


def test_jsonable_conversions():
    out = jsonable(
        {
            "arr": np.arange(3.0),
            "cplx": 1.0 + 2.0j,
            "flag": np.bool_(True),
            "count": np.int64(7),
            "nested": [np.float64(0.5), {"z": np.complex128(1j)}],
        }
    )
    assert out["arr"] == [0.0, 1.0, 2.0]
    assert out["cplx"] == [1.0, 2.0]
    assert out["flag"] is True
    assert out["count"] == 7
    assert out["nested"][1]["z"] == [0.0, 1.0]
    json.dumps(out)  # must be serializable as-is


def test_residual_convenience_and_passed():
    rep = Report("demo", 3)
    rep.residual("small", 1e-12, 1e-10)
    rep.residual("big", 1e-8, 1e-10)
    assert not rep.passed
    assert [c.passed for c in rep.checks] == [True, False]
    assert "FAIL" in rep.checks[1].line()


def test_a_residual_over_no_inputs_fails():
    rep = Report("demo", 0)
    row = rep.residual("empty", np.zeros((3, 0)), 1.0)
    assert not row.passed and not rep.passed
    assert row.value is None and row.tolerance == 1.0
    assert row.details == {"evaluated": 0}


def test_a_residual_row_counts_its_inputs_and_names_no_witness_at_zero():
    rep = Report("demo", 0)
    row = rep.residual("zero", np.zeros((2, 3)), 1e-10, labels=[("a", "b"), ("x", "y", "z")])
    assert row.passed and row.value == 0.0
    assert row.details == {"evaluated": 6}


def test_a_nan_residual_fails_and_is_the_witness():
    rep = Report("demo", 0)
    row = rep.residual("nan", [0.5, np.nan, 0.25], 1.0)
    assert not row.passed and np.isnan(row.value)
    assert row.details == {"evaluated": 3, "at": [1]}


def test_a_residual_witness_reads_each_axis_through_its_labels():
    rep = Report("demo", 0)
    values = np.zeros((2, 3))
    values[1, 2] = 1e-12
    row = rep.residual("labelled", values, 1e-10, labels=[("a", "b"), ("x", "y", "z")])
    assert row.passed and row.value == 1e-12
    assert row.details == {"evaluated": 6, "at": ["b", "z"]}
    assert rep.residual("indexed", values, 1e-10).details["at"] == [1, 2]


def test_empty_report_does_not_pass():
    rep = Report("demo", 0)
    assert not rep.passed
    assert rep.summary_lines()[-1].startswith("FAIL")


def test_json_bytes_parse_and_schema():
    rep = Report("demo", 0, meta={"alpha": np.float64(2.0)})
    rep.add("named", True, value=0.25, tolerance=0.5)
    data = json.loads(rep.to_json_bytes())
    assert data["schema"] == 2
    assert data["suite"] == "demo"
    assert data["checks"][0]["value"] == 0.25
    assert data["meta"]["alpha"] == 2.0


def test_csv_has_fixed_header_and_rows():
    rep = Report("demo", 0)
    rep.residual("a", 0.0, 1.0)
    rep.add("b", True)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "suite,name,passed,value,tolerance"
    assert lines[1] == "demo,a,true,0.0,1.0"
    assert lines[2] == "demo,b,true,,"


def test_merge_prefixes_names():
    r1 = Report("one", 0)
    r1.add("x", True)
    r2 = Report("two", 0)
    r2.add("y", False)
    merged = merge([r1, r2], "both", 0)
    assert [c.name for c in merged.checks] == ["one.x", "two.y"]
    assert not merged.passed


def test_write_rejects_unknown_format(tmp_path):
    rep = Report("demo", 0)
    with pytest.raises(ValueError):
        rep.write(str(tmp_path / "x.bin"), fmt="parquet")
