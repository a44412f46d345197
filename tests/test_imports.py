"""Every name a module of the package imports is used in that module, every
module-level constant is read somewhere in the package, every defaulted
parameter and dataclass field is set by some call outside the tests, every
function, method and class is reached from the command line or the
benchmark, and importing the package pulls in no heavy optional module."""
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


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name
)
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d, "id", None) == "dataclass"
        or getattr(getattr(d, "func", None), "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _init_false(value) -> bool:
    """True for a ``field(..., init=False)`` default, which no call sets."""
    return isinstance(value, ast.Call) and any(
        k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords
    )


def _defaulted_parameters(source: str):
    """(qualified name, call name, positional names, defaulted names) for
    every function in ``source``.  A method drops its self or cls slot and
    an ``__init__`` is called by its class name, as is a dataclass, whose
    annotated fields are its parameters."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [
                        f for f in child.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                        and not _init_false(f.value)
                    ]
                    pos = [f.target.id for f in fields]
                    defaulted = [f.target.id for f in fields if f.value is not None]
                    out.append((".".join(prefix + [child.name]), child.name, pos, defaulted))
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


def caller_sources(root: Path) -> list[str]:
    """The modules whose calls count as uses: the package and the benchmark
    harness without its tests, so nothing lives only for the tests."""
    paths = sorted((root / "src" / "ncsym").glob("*.py")) + [
        p for p in sorted((root / "perfbench").glob("*.py")) if not p.name.startswith("test_")
    ]
    return [p.read_text() for p in paths]


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
            "@dataclass\n"
            "class D:\n"
            "    x: int\n"
            "    y: int = 0\n"
            "    z: list = field(default_factory=list)\n"
            "    w: int = 1\n"
            "    v: list = field(default_factory=list, init=False)\n"
            "D(1, 2)\n"
            "D(0, w=3)\n"
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
        "a.py: D(z=)",
        "a.py: f(w=)",
        "a.py: f(z=)",
        "suites.py: s(n=)",
    ]


def test_checker_ignores_calls_from_tests(tmp_path):
    # a default that only a test sets, in tests/ or in perfbench's own
    # tests, is flagged; one the harness sets is not
    files = {
        "src/ncsym/a.py": "def f(x, k=1, j=2): pass\n",
        "perfbench/run.py": "from ncsym.a import f\nf(0, j=3)\n",
        "perfbench/test_run.py": "from ncsym.a import f\nf(0, k=3)\n",
        "tests/test_a.py": "from ncsym.a import f\nf(0, 5)\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    sources = {"a.py": files["src/ncsym/a.py"]}
    assert dead_keywords(sources, caller_sources(tmp_path)) == ["a.py: f(k=)"]


def test_every_default_is_set_by_some_call():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_keywords(sources, caller_sources(ROOT)) == []


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


def _annotated_class(annotation, classes) -> str | None:
    """The one class of ``classes`` that an annotation names, as ``C``,
    ``"C"``, ``C | None`` or ``list[C]``; None when it names none or two."""
    found = set()
    for sub in ast.walk(annotation) if annotation is not None else ():
        if isinstance(sub, ast.Name) and sub.id in classes:
            found.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found |= set(sub.value.replace("|", " ").split()) & set(classes)
    return found.pop() if len(found) == 1 else None


def dead_functions(sources: dict[str, str], roots: list[str]) -> list[str]:
    """Functions, methods and classes of ``sources`` that no root reaches.

    The roots are the module-level statements of ``sources`` and every name
    in the ``roots`` sources (an entry point such as ``"main"``, or a module
    that drives the package).  A reached function reaches what its body
    uses; a reached class reaches its bases, decorators, class-level
    statements and dunder methods, which are never reported themselves.

    A name or module attribute reaches the function or class of that name.
    A method matches as ``Class.method``: reading ``x.method`` reaches the
    method of the class that ``x`` holds where the code shows it (``self``
    or ``cls`` in the class's own methods, the class name itself, a
    parameter or class field annotated with the class, or a name bound by
    assignment or a for loop to such a value, to a constructor call or to a
    call whose return annotation names the class; an element of a
    ``list[C]`` counts as a C).  A receiver of unknown class stands for the
    classes that known receivers of that method name reach, or for every
    class defining it when no known receiver does."""
    defs: dict = {}  # function or class name, or (class, method) -> [(label, node)]
    owners: dict[str, set] = {}  # method name -> the classes defining it
    classes: dict[str, ast.ClassDef] = {}

    def scan(body, prefix, cls=None):
        """Register the defs of a module or class body; return the rest."""
        rest = []
        for node in body:
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if named:
                node.cls = cls
            if named and not (node.name.startswith("__") and node.name.endswith("__")):
                key = node.name if cls is None else (cls, node.name)
                defs.setdefault(key, []).append((prefix + node.name, node))
                if cls is not None:
                    owners.setdefault(node.name, set()).add(cls)
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = node
                    node.rest = scan(node.body, prefix + node.name + ".", node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                rest.append(node)
        return rest

    module_rest = []
    for module, source in sources.items():
        module_rest += scan(ast.parse(source).body, f"{module}: ")
    fields = {
        (name, stmt.target.id): _annotated_class(stmt.annotation, classes)
        for name, node in classes.items() for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }

    def returns(key):
        """The class a call of the def at ``key`` returns, if annotated."""
        for _, node in defs.get(key, ()):
            if isinstance(node, ast.ClassDef):
                return node.name
            return _annotated_class(node.returns, classes)
        return None

    def infer(expr, env):
        """The class an expression holds, or None when the code does not show it."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id, expr.id if expr.id in classes else None)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return returns(expr.func.id)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            owner = infer(expr.func.value, env)
            return owner and returns((owner, expr.func.attr))
        if isinstance(expr, ast.Attribute):
            owner = infer(expr.value, env)
            return owner and (fields.get((owner, expr.attr)) or returns((owner, expr.attr)))
        if isinstance(expr, ast.Subscript):
            return infer(expr.value, env)
        return None

    def uses(nodes, cls=None) -> set:
        """Names, and (class or None, attribute) pairs, that ``nodes`` read."""
        out = set()
        for node in nodes:
            env = {}
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for k, arg in enumerate(sub.args.posonlyargs + sub.args.args):
                        own = cls if sub is node and k == 0 else None
                        env[arg.arg] = _annotated_class(arg.annotation, classes) or own
            for _ in range(2):  # a binding may use one that comes later in the walk
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        target, value = sub.targets[0], sub.value
                    elif isinstance(sub, (ast.For, ast.comprehension)):
                        target, value = sub.target, sub.iter
                    else:
                        continue
                    if isinstance(target, ast.Name) and infer(value, env):
                        env[target.id] = infer(value, env)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    out.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    out |= {sub.attr, (infer(sub.value, env), sub.attr)}
        return out

    todo = uses([ast.parse(source) for source in roots]) | uses(module_rest)
    reached: set = set()
    unknown: set = set()  # method names read on receivers of unknown class
    while todo:
        key = todo.pop()
        if isinstance(key, tuple) and key[0] is None:
            unknown.add(key[1])
        elif key not in reached:
            reached.add(key)
            for _, node in defs.get(key, ()):
                if isinstance(node, ast.ClassDef):
                    todo |= uses(node.rest + node.bases + node.decorator_list, node.name)
                else:
                    todo |= uses([node], node.cls)
        if not todo:
            # names with known receivers first, then the rest to every owner
            known = {m: owners.get(m, set()) & {k[0] for k in reached if k[1:] == (m,)}
                     for m in unknown}
            todo = {(c, m) for m in unknown for c in known[m]} - reached
            if not todo:
                todo = {(c, m) for m in unknown if not known[m] for c in owners.get(m, ())}
                todo -= reached
    return sorted(q for key, entries in defs.items() if key not in reached for q, _ in entries)


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
            # same-name methods: Grid.mean is read on no Grid, and
            # State.direct only shares its name with a local variable
            "class Grid:\n"
            "    def mean(self): return 0\n"
            "class State:\n"
            "    def mean(self): return 1\n"
            "    def spread(self): return 2\n"
            "    def direct(self): return 3\n"
            "def make() -> State: return State()\n"
            "def scan(s: State, many):\n"
            "    direct = make().spread()\n"
            "    return s.mean(), [x.mean() for x in many], direct\n"
        ),
        "cli.py": "def main(): return used(), K(), Grid(), scan\ndef other(): chain()\n",
    }
    roots = ["main", "from a import bench_only\nbench_only()\n"]
    assert dead_functions(sources, roots) == [
        "a.py: Grid.mean",
        "a.py: K.dead_method",
        "a.py: State.direct",
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


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this tree."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    return out.stdout


def test_package_import_leaves_scipy_sparse_out():
    # scipy costs about 0.3 s of import time, more than a suite's checks;
    # numpy is the only runtime dependency, so no scipy module may load
    code = (
        "import sys, ncsym, ncsym.suites, ncsym.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert run_fresh(code).strip() == "[]"


def test_every_suite_runs_with_scipy_blocked():
    # a finder ahead of every other refuses scipy, as on a numpy-only install
    code = (
        "import contextlib, io, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'blocked: {name}')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from ncsym import cli\n"
        "from ncsym.suites import SUITES\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = {name: cli.main([name]) for name in SUITES}\n"
        "print(codes)\n"
    )
    codes = ast.literal_eval(run_fresh(code))
    assert len(codes) == 8 and codes == dict.fromkeys(codes, 0), codes
