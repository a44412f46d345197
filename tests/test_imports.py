"""Every name a module of the package imports is used in that module, every
module-level constant is read somewhere in the package, and importing the
package pulls in no heavy optional module."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ncsym"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)",
        "tau (line 2)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_constants(sources: dict[str, str]) -> list[str]:
    """Module-level UPPER_CASE names that no module of ``sources`` reads."""
    defined = {}
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.isupper():
                    defined[t.id] = module
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{mod}: {name}" for name, mod in defined.items() if name not in read)


def test_checker_flags_a_dead_constant():
    sources = {
        "a": "TOL = 1e-9\nSTEPS: int = 4\nUNUSED = 2\nx = 1\n",
        "b": "from a import TOL\nimport a\nprint(TOL, a.STEPS)\n",
    }
    assert dead_constants(sources) == ["a: UNUSED"]


def test_every_constant_is_read():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_constants(sources) == []


def test_package_import_leaves_scipy_sparse_out():
    # scipy.sparse costs tens of ms of import time and MBs of memory; the
    # package needs none of it, so a fresh interpreter must not load it
    code = (
        "import sys, ncsym, ncsym.suites\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert out.stdout.strip() == "[]"
