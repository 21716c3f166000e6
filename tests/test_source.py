"""Source guards: no module-level memoisation and no dead code outside
fixed allow-lists, and no scipy at run time.

Work shared between the checks of one campaign case lives on its ``Case``;
a process-wide cache would carry it into later cases and campaigns.  Only
pure functions over a small fixed key set may be cached for the process.

``src/dampex`` holds only what a subcommand runs: every function, class
and method there is used by other code of the package.  Helpers that only
tests call belong in ``tests/oracles.py``.

The package runs on numpy alone; scipy stays a test-only reference.

The benchmark's tracer counts transforms by wrapping the
``fourier_transform`` attributes of ``InitialDatum`` and ``SumDatum``; a
definition on any other class would hide its calls from those counts.

``initial_data.as_points`` is the one place that decides what a point
array is; no other function checks a trailing dimension of its own.

One function forks, and it ends its child with ``os._exit``: a child that
returned into the caller would run its code, and flush its buffers, twice.
"""

import ast
from pathlib import Path

import dampex

SRC = Path(dampex.__file__).parent
CACHE_NAMES = {"cache", "lru_cache"}
ALLOWED = {("quadrature", "_angular_rule"), ("quadrature", "_probe_directions"),
           ("norms", "sphere_monomial_integral")}
# names no package code uses that stay: the public single-time norm (the
# benchmark traces it) and the rule list the benchmark's tracer reads
UNREFERENCED_ALLOWED = {("norms", "region_l2_norm"),
                        ("quadrature", "_angular_levels")}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _cache_uses(tree):
    """(function name or None, line) of every use of a cache decorator."""
    allowed_nodes, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                for sub in ast.walk(deco):
                    allowed_nodes.add(id(sub))
                    if _is_cache(sub):
                        uses.append((node.name, sub.lineno))
    for node in ast.walk(tree):
        if _is_cache(node) and id(node) not in allowed_nodes:
            uses.append((None, node.lineno))
    return uses


def _is_cache(node):
    return ((isinstance(node, ast.Name) and node.id in CACHE_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES))


def test_caches_only_on_the_allow_list():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for name, line in _cache_uses(ast.parse(path.read_text(encoding="utf-8"))):
            found.add((path.stem, name, line))
    stray = sorted(f"{module}.py:{line} ({name or 'not a decorator'})"
                   for module, name, line in found
                   if (module, name) not in ALLOWED)
    assert not stray, "module-level caches outside the allow-list: " + ", ".join(stray)
    assert {(module, name) for module, name, _ in found} == ALLOWED


def test_guard_sees_decorators_and_calls():
    tree = ast.parse("import functools\n"
                     "@functools.lru_cache(maxsize=None)\ndef f(x): return x\n"
                     "@cache\ndef g(x): return x\n"
                     "h = functools.cache(len)\n")
    assert sorted(_cache_uses(tree), key=lambda u: u[1]) == [
        ("f", 2), ("g", 4), (None, 6)]


def _definitions(tree):
    """(name, line) of every top-level function or class and every method
    that is not a dunder."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, DEFINITIONS)
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))):
                    yield sub.name, sub.lineno


def _references(node, enclosing=frozenset()):
    """Every name used as an ast ``Name`` or ``Attribute`` outside the
    definitions of that same name."""
    if isinstance(node, DEFINITIONS):
        enclosing = enclosing | {node.name}
    found = set()
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    if name is not None and name not in enclosing:
        found.add(name)
    for child in ast.iter_child_nodes(node):
        found |= _references(child, enclosing)
    return found


def _unreferenced(trees):
    """(module, name, line) of every definition no other code refers to."""
    used = set().union(*(_references(tree) for tree in trees.values()))
    return sorted((module, name, line) for module, tree in trees.items()
                  for name, line in _definitions(tree) if name not in used)


def test_every_definition_is_used_by_the_package():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    unused = _unreferenced(trees)
    stray = [f"{module}.py:{line} {name}" for module, name, line in unused
             if (module, name) not in UNREFERENCED_ALLOWED]
    assert not stray, "code no package code uses: " + ", ".join(stray)
    assert {(module, name) for module, name, _ in unused} == UNREFERENCED_ALLOWED


def test_guard_sees_only_uses_outside_the_definition():
    tree = ast.parse("def used(): return helper()\n"
                     "def helper(): return 1\n"
                     "def recursive(n): return recursive(n - 1)\n"
                     "class Box:\n"
                     "    def __len__(self): return 0\n"
                     "    def size(self): return self.size\n"
                     "    def area(self): return self.size()\n"
                     "x = used, Box\n")
    assert _unreferenced({"m": tree}) == [
        ("m", "area", 7), ("m", "recursive", 3)]


def _imported_packages(tree):
    """The top-level package of every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_no_module_imports_scipy():
    # the runtime needs numpy alone; scipy is a test-only reference
    found = sorted(path.name for path in SRC.glob("*.py")
                   if "scipy" in _imported_packages(
                       ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, "modules importing scipy: " + ", ".join(found)


def test_import_guard_sees_every_import_form():
    tree = ast.parse("import scipy.special\n"
                     "from scipy import integrate\n"
                     "from . import norms\n"
                     "def f():\n    import numpy as np\n")
    assert list(_imported_packages(tree)) == ["scipy", "scipy", "numpy"]


def _classes_defining(tree, name):
    """Names of the classes in ``tree`` whose body defines or assigns
    ``name``."""
    def binds(stmt):
        if isinstance(stmt, DEFINITIONS):
            return stmt.name == name
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        return any(isinstance(t, ast.Name) and t.id == name for t in targets)

    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and any(map(binds, node.body)))


def test_transforms_are_defined_where_the_tracer_wraps_them():
    # perfbench/tracer.py wraps InitialDatum.fourier_transform and
    # SumDatum.fourier_transform; an override elsewhere escapes its counts
    found = {(path.stem, cls) for path in SRC.glob("*.py")
             for cls in _classes_defining(
                 ast.parse(path.read_text(encoding="utf-8")),
                 "fourier_transform")}
    assert found == {("initial_data", "InitialDatum"),
                     ("initial_data", "SumDatum")}


def test_definition_guard_sees_class_bodies_only():
    tree = ast.parse("def fourier_transform(x): return x\n"
                     "class A:\n    def fourier_transform(self): pass\n"
                     "class B(A):\n    def fourier_phase(self): pass\n"
                     "    class C:\n        fourier_transform = None\n"
                     "class D:\n    def f(self): fourier_transform = 1\n")
    assert _classes_defining(tree, "fourier_transform") == ["A", "C"]


def _holders(node, match, enclosing=None):
    """Names of the innermost functions (None at module level) holding a
    node for which ``match`` is true."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = node.name
    found = {enclosing} if match(node) else set()
    for child in ast.iter_child_nodes(node):
        found |= _holders(child, match, enclosing)
    return found


def _raisers(tree, text):
    """Names of the innermost functions (None at module level) holding a
    ``raise`` whose message contains ``text``."""
    return _holders(tree, lambda node: isinstance(node, ast.Raise) and any(
        isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        and text in sub.value for sub in ast.walk(node)))


def test_only_as_points_checks_a_trailing_dimension():
    found = {(path.stem, name) for path in SRC.glob("*.py")
             for name in _raisers(ast.parse(path.read_text(encoding="utf-8")),
                                  "trailing dimension")}
    assert found == {("initial_data", "as_points")}


def test_raise_guard_sees_the_innermost_function_and_f_strings():
    tree = ast.parse("def outer(n):\n"
                     "    def inner():\n"
                     "        raise ValueError(f'trailing dimension {n}')\n"
                     "    raise ValueError('another message')\n"
                     "def plain(): raise ValueError('bad trailing dimension')\n"
                     "class A:\n    def method(self): return 'trailing dimension'\n"
                     "raise ValueError('trailing dimension')\n")
    assert _raisers(tree, "trailing dimension") == {"inner", "plain", None}


def _callers(tree, module, attr):
    """Names of the innermost functions (None at module level) holding a
    call of ``module.attr``."""
    return _holders(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module))


def test_one_function_forks_and_its_child_leaves_through_exit():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    forks = {(module, name) for module, tree in trees.items()
             for name in _callers(tree, "os", "fork")}
    exits = {(module, name) for module, tree in trees.items()
             for name in _callers(tree, "os", "_exit")}
    assert len(forks) == 1 and forks <= exits


def test_call_guard_sees_the_innermost_function_and_only_calls():
    tree = ast.parse("import os\n"
                     "def outer():\n"
                     "    def inner(): return os.fork()\n"
                     "    return os.fork\n"
                     "def child():\n    try: os.fork()\n    finally: os._exit(0)\n"
                     "def other(fork): return fork(), sys.fork()\n"
                     "os.fork()\n")
    assert _callers(tree, "os", "fork") == {"inner", "child", None}
    assert _callers(tree, "os", "_exit") == {"child"}
