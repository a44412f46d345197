"""Every name a module of the package imports is used in that module, every
module-level constant is read somewhere in the package, every defaulted
parameter is set by some call, every function, method and class is reached
from the command line or the benchmark, and importing the package pulls in
no heavy optional module."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ncsym"


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


def _defaulted_parameters(source: str):
    """(qualified name, call name, positional names, defaulted names) for
    every function in ``source``.  A method drops its self or cls slot and
    an ``__init__`` is called by its class name."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = [p.arg for p in a.posonlyargs + a.args]
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                if in_class and not static:
                    pos = pos[1:]
                defaulted = pos[len(pos) - len(a.defaults):] if a.defaults else []
                defaulted += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                name = prefix[-1] if child.name == "__init__" and in_class else child.name
                out.append((".".join(prefix + [child.name]), name, pos, defaulted))
                visit(child, prefix + [child.name], False)
            else:
                visit(child, prefix, in_class)

    visit(ast.parse(source), [], False)
    return out


def _cli_settings(cli_source: str, suites_source: str) -> dict[str, set]:
    """The keys cli.main stores in its ``kwargs`` dict, directly or through
    a loop over a tuple of names, for each suite function in ``SUITES``."""
    keys, loops = set(), {}
    for node in ast.walk(ast.parse(cli_source)):
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            loops[getattr(node.target, "id", None)] = {
                e.value for e in node.iter.elts if isinstance(e, ast.Constant)
            }
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            if any(getattr(t, "id", None) == "kwargs" for t in node.targets):
                keys.update(k.value for k in node.value.keys)
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "kwargs"
        ):
            key = node.slice
            keys.update({key.value} if isinstance(key, ast.Constant) else loops.get(key.id, ()))
    suites = set()
    for node in ast.parse(suites_source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SUITES":
            suites.update(v.id for v in node.value.values)
    return {name: keys for name in suites}


def dead_keywords(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the functions in ``sources`` that no call in
    ``callers`` sets, by keyword, by position, or (for a suite) through a
    ``cli.main`` kwargs key.  Calls match by name; ``cls(..)`` in a class
    body calls that class."""
    keywords: dict[str, set] = _cli_settings(
        sources.get("cli.py", ""), sources.get("suites.py", "")
    )
    positions: dict[str, int] = {}

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                name = cls if name == "cls" else name
                starred = any(isinstance(a, ast.Starred) for a in child.args)
                keywords.setdefault(name, set()).update(k.arg for k in child.keywords)
                npos = float("inf") if starred else len(child.args)
                positions[name] = max(positions.get(name, 0), npos)
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    for source in callers:
        visit(ast.parse(source), None)
    dead = []
    for module, source in sources.items():
        for qualname, name, pos, defaulted in _defaulted_parameters(source):
            for param in defaulted:
                by_keyword = {param, None} & keywords.get(name, set())
                by_position = param in pos and pos.index(param) < positions.get(name, 0)
                if not (by_keyword or by_position):
                    dead.append(f"{module}: {qualname}({param}=)")
    return sorted(dead)


def test_checker_flags_a_dead_keyword():
    sources = {
        "a.py": (
            "def f(x, y=1, z=2, *, w=3): pass\n"
            "class C:\n"
            "    def __init__(self, k=0, j=0): pass\n"
            "    def m(self, q=1): pass\n"
            "    @classmethod\n"
            "    def make(cls): return cls(k=1)\n"
        ),
        "suites.py": "def s(seed=0, tol=1.0, n=3): pass\nSUITES = {'s': s}\n",
        "cli.py": (
            "def main():\n"
            "    kwargs = {'seed': 0}\n"
            "    for flag in ('tol',):\n"
            "        kwargs[flag] = 1\n"
        ),
    }
    callers = list(sources.values()) + ["f(0, 5)\nobj.m(2)\n"]
    assert dead_keywords(sources, callers) == [
        "a.py: C.__init__(j=)",
        "a.py: f(w=)",
        "a.py: f(z=)",
        "suites.py: s(n=)",
    ]


def test_every_default_is_set_by_some_call():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    callers = [
        path.read_text()
        for folder in (SRC, ROOT / "tests", ROOT / "perfbench")
        for path in sorted(folder.glob("*.py"))
    ]
    assert dead_keywords(sources, callers) == []


def _names(nodes) -> set[str]:
    """Every name and attribute name read or written anywhere in ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def dead_functions(sources: dict[str, str], roots: list[str]) -> list[str]:
    """Functions, methods and classes of ``sources`` that no root reaches.

    The roots are the module-level statements of ``sources`` and every name
    in the ``roots`` sources (an entry point such as ``"main"``, or a module
    that drives the package).  A reached function reaches the names its body
    uses; a reached class reaches its bases, decorators, class-level
    statements and dunder methods, which are never reported themselves.
    Names match by their simple name, so a method counts as reached once any
    reached code reads an attribute of that name."""
    defs: dict[str, list] = {}

    def scan(body, prefix):
        """Register the defs of a module or class body; return the rest."""
        rest = []
        for node in body:
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if named and not (node.name.startswith("__") and node.name.endswith("__")):
                defs.setdefault(node.name, []).append((prefix + node.name, node))
                if isinstance(node, ast.ClassDef):
                    node.rest = scan(node.body, prefix + node.name + ".")
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                rest.append(node)
        return rest

    todo = _names(ast.parse(source) for source in roots)
    for module, source in sources.items():
        todo |= _names(scan(ast.parse(source).body, f"{module}: "))
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        for _, node in defs.get(name, ()):
            if isinstance(node, ast.ClassDef):
                todo |= _names(node.rest + node.bases + node.decorator_list) - reached
            else:
                todo |= _names([node]) - reached
    return sorted(q for name, entries in defs.items() if name not in reached for q, _ in entries)


def test_checker_flags_a_dead_function():
    sources = {
        "a.py": (
            "LIMIT = limit()\n"
            "def limit(): return 1\n"
            "def used(): return _inner()\n"
            "def _inner(): return 2\n"
            "def chain(): return _only_chain()\n"
            "def _only_chain(): return 3\n"
            "def bench_only(): pass\n"
            "class K(Base):\n"
            "    SIZE = size()\n"
            "    def __init__(self): self.live()\n"
            "    def live(self): pass\n"
            "    def dead_method(self): pass\n"
            "class Base: pass\n"
            "def size(): return 4\n"
            "class Unused:\n"
            "    def __repr__(self): return _for_repr()\n"
            "def _for_repr(): return 'u'\n"
        ),
        "cli.py": "def main(): return used(), K()\ndef other(): chain()\n",
    }
    roots = ["main", "from a import bench_only\nbench_only()\n"]
    assert dead_functions(sources, roots) == [
        "a.py: K.dead_method",
        "a.py: Unused",
        "a.py: _for_repr",
        "a.py: _only_chain",
        "a.py: chain",
        "cli.py: other",
    ]


def test_every_function_is_reached():
    # roots: the console entry point ncsym.cli:main and the benchmark
    # harness; the tests are not a root, so nothing lives only for them
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    roots = ["main"] + [p.read_text() for p in bench if not p.name.startswith("test_")]
    assert dead_functions(sources, roots) == []


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
