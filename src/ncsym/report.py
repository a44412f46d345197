"""Deterministic result records for the check suites.

Reports carry no timestamps and serialize with sorted keys, so two runs of
the same suite with the same seed produce byte-identical JSON.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from ._linalg import worst


def jsonable(x):
    """Recursively convert numpy scalars/arrays and complex numbers to
    plain JSON-friendly values (complex becomes [real, imag])."""
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.complexfloating, complex)):
        return [float(np.real(x)), float(np.imag(x))]
    return x


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float | None = None
    tolerance: float | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": jsonable(self.value),
            "tolerance": jsonable(self.tolerance),
            "details": jsonable(self.details),
        }

    def line(self) -> str:
        tag = "ok  " if self.passed else "FAIL"
        extra = ""
        if isinstance(self.value, (int, float)) and isinstance(self.tolerance, (int, float)):
            extra = f"  ({self.value:.3e} vs tol {self.tolerance:.3e})"
        elif isinstance(self.value, (int, float)):
            extra = f"  ({self.value:.6g})"
        elif self.value is not None:
            extra = f"  ({self.value!r})"
        elif self.details:
            parts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
            extra = f"  [{parts}]"
        return f"{tag} {self.name}{extra}"


@dataclass
class Report:
    suite: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list, init=False)
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when there is at least one check and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def add(self, name, passed, value=None, tolerance=None, **details) -> CheckResult:
        res = CheckResult(name, bool(passed), value, tolerance, details)
        self.checks.append(res)
        return res

    def residual(self, name, values, tolerance, labels=None, **details) -> CheckResult:
        """One row for a residual over the inputs checked.

        ``values`` holds one real residual per input, with one axis per
        input slot (a scalar is one input, with no axis for ``at``).  The row passes iff its largest
        value is at most ``tolerance``; a NaN fails.  It records
        ``evaluated``, the number of inputs, and, when the largest value is
        above 0 or NaN, ``at``: that input's index on each axis, read
        through ``labels[axis]`` where labels are given.  An empty
        ``values`` fails, with ``evaluated`` 0 and no value."""
        values = np.asarray(values, dtype=float)
        details["evaluated"] = values.size
        if not values.size:
            return self.add(name, False, None, float(tolerance), **details)
        value, at = worst(values)
        if values.ndim and not value <= 0.0:
            details["at"] = [k if labels is None else labels[axis][k] for axis, k in enumerate(at)]
        return self.add(name, value <= tolerance, value, float(tolerance), **details)

    SCHEMA = 2

    def to_dict(self) -> dict:
        return {
            "schema": self.SCHEMA,
            "suite": self.suite,
            "seed": int(self.seed),
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "meta": jsonable(self.meta),
        }

    def to_json_bytes(self) -> bytes:
        return (
            json.dumps(self.to_dict(), sort_keys=True, indent=2, ensure_ascii=True)
            + "\n"
        ).encode("ascii")

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["suite", "name", "passed", "value", "tolerance"])
        for c in self.checks:
            w.writerow(
                [
                    self.suite,
                    c.name,
                    "true" if c.passed else "false",
                    "" if c.value is None else repr(float(c.value)),
                    "" if c.tolerance is None else repr(float(c.tolerance)),
                ]
            )
        return buf.getvalue()

    def write(self, path: str, fmt: str = "json") -> None:
        if fmt == "json":
            with open(path, "wb") as fh:
                fh.write(self.to_json_bytes())
        elif fmt == "csv":
            with open(path, "w", newline="") as fh:
                fh.write(self.to_csv())
        else:
            raise ValueError(f"unknown format {fmt!r}")

    def summary_lines(self) -> list[str]:
        lines = [c.line() for c in self.checks]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict} suite={self.suite} checks={len(self.checks)} seed={self.seed}"
        )
        return lines


def merge(reports: list[Report], suite: str, seed: int) -> Report:
    out = Report(suite, seed, meta={"merged": [r.suite for r in reports]})
    for r in reports:
        for c in r.checks:
            out.checks.append(
                CheckResult(f"{r.suite}.{c.name}", c.passed, c.value, c.tolerance, c.details)
            )
    return out
