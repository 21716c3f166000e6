"""Source guards: no module-level memoisation and no dead code outside
fixed allow-lists, and no scipy at run time.

Work shared between the checks of one campaign case lives on its ``Case``;
a process-wide cache would carry it into later cases and campaigns.  Only
pure functions over a small fixed key set may be cached for the process.

``src/dampex`` holds only what a subcommand runs: every function, class
and method there is used by other code of the package.  Helpers that only
tests call belong in ``tests/oracles.py``.

The package runs on numpy alone; scipy stays a test-only reference.

No reported number goes through a general linear solver: nothing calls or
imports ``polyfit``, ``lstsq`` or ``numpy.linalg``.  LAPACK's rounding
follows the CPU's BLAS kernel, and ``np.polyfit`` once gave the decay fit
other bytes under AVX2 kernels than under AVX-512 ones.

The benchmark's tracer counts transforms by wrapping the
``fourier_transform`` attributes of ``InitialDatum`` and ``SumDatum``; a
definition on any other class would hide its calls from those counts.

``initial_data.as_points`` is the one place that decides what a point
array is; no other function checks a trailing dimension of its own.

``initial_data.number`` is the one check of a number from outside: no
other function that raises ``ConfigError`` tests finiteness or the float
range itself, except the checks of computed moments.

One function raises ``SingularEvaluationError``: every form that divides
by 1 - |xi|^2 shares its guard of the unit sphere.

One kernel computes the regular form 2.4: only ``spectral._rep_24`` takes
the multiplier K, so ``evaluate`` and the residual integrand share it.

One function forks, and it ends its child with ``os._exit``: a child that
returned into the caller would run its code, and flush its buffers, twice.
Every ``solve`` row, from either process, comes from ``cli._format_rows``,
the one function of the CLI that fills a row template.

A campaign case holds one moment table: only ``experiments.Case`` builds
the tables a campaign reads, and the series ball asks the case for one.
The single-time ``residual_norm`` and the ``moments`` and ``expansion``
commands build their own.

One class forms the points of a shell field call: only
``spectral.Shells.__init__`` multiplies radii by directions, and only
``norms.norm_curve`` builds a ``Shells``, so every integrand of a field
call reads the same points, heat weights and transforms.

One record holds a quadrature result: ``quadrature.QuadResult`` is the only
dataclass with an ``error_estimate`` field, so no re-wrap drops ``stalled``.

Each check writes its own summary entry: only the four checks and the
property-entry helper hold a dict display with a ``"status"`` key.

One rule stops the truncation probe: ``quadrature.truncation_radius``
tests the floor once, over one list of candidate radii.

The benchmark's tracer binds package names by ``getattr`` with no default;
its install must keep working, or every traced benchmark run fails.  Its
after-hooks also read package results, so one traced operation of the
``campaign`` and ``norm-multid`` workloads runs too.  The benchmark
checks every campaign it draws against its own oracle, and one failed
check sinks a run: 100 untraced campaigns at each of two seeds must pass
it.  Its norm check compares each ``dampex norm`` request with a pinned
or oracle value: 300 untraced requests at each of two seeds must pass it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dampex

SRC = Path(dampex.__file__).parent
CACHE_NAMES = {"cache", "lru_cache"}
ALLOWED = {("quadrature", "_angular_rule"),
           ("quadrature", "_probe_directions")}
# names no package code uses that stay: the public single-time norm and
# the heat increment's norm (the benchmark's tracer binds both by name) and
# the rule list the tracer reads
UNREFERENCED_ALLOWED = {("norms", "region_l2_norm"),
                        ("norms", "heat_increment_norm"),
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


SOLVER_NAMES = {"polyfit", "lstsq", "linalg"}


def _solver_uses(tree):
    """Names of the innermost functions (None at module level) holding a
    call or an import that names ``polyfit``, ``lstsq`` or ``linalg``."""
    def names(node):
        if isinstance(node, ast.Call):
            return {sub.id if isinstance(sub, ast.Name) else sub.attr
                    for sub in ast.walk(node.func)
                    if isinstance(sub, (ast.Name, ast.Attribute))}
        if isinstance(node, ast.Import):
            return {part for alias in node.names
                    for part in alias.name.split(".")}
        if isinstance(node, ast.ImportFrom):
            return ({alias.name for alias in node.names}
                    | set((node.module or "").split(".")))
        return set()

    return _holders(tree, lambda node: bool(names(node) & SOLVER_NAMES))


def test_no_reported_number_goes_through_a_solver():
    found = sorted(f"{path.name} ({name or 'module level'})"
                   for path in SRC.glob("*.py")
                   for name in _solver_uses(
                       ast.parse(path.read_text(encoding="utf-8"))))
    assert not found, "solver calls or imports: " + ", ".join(found)


def test_solver_guard_sees_calls_and_imports():
    tree = ast.parse("import numpy.linalg as la\n"
                     "def fit(x, y): return np.polyfit(x, y, 1)\n"
                     "def solve(a, b): return numpy.linalg.lstsq(a, b)[0]\n"
                     "def bare(a, b): return lstsq(a, b)\n"
                     "def norm(x):\n    from numpy import linalg\n"
                     "    return 0\n"
                     "def nested():\n"
                     "    def inner(d): return np.linalg.norm(d)\n"
                     "    return inner\n"
                     "def other(x, polyfit):\n"
                     "    return np.polyval(x, 'lstsq'), polyfit, x.fit()\n"
                     "from numpy.polynomial import hermite\n")
    assert _solver_uses(tree) == {None, "fit", "solve", "bare", "norm",
                                  "inner"}


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


def _sites(node, match, enclosing=None):
    """The name of the innermost function (None at module level) holding
    each node for which ``match`` is true, in source order."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        enclosing = node.name
    found = [enclosing] if match(node) else []
    for child in ast.iter_child_nodes(node):
        found += _sites(child, match, enclosing)
    return found


def _holders(node, match):
    """Names of the innermost functions (None at module level) holding a
    node for which ``match`` is true."""
    return set(_sites(node, match))


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


def _exception_raisers(tree, name):
    """Names of the innermost functions (None at module level) holding a
    ``raise`` of the exception class ``name``, called or bare."""
    def raises(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return (exc.id if isinstance(exc, ast.Name)
                else exc.attr if isinstance(exc, ast.Attribute) else None) == name

    return _holders(tree, raises)


def test_one_function_guards_the_unit_sphere():
    # every form that divides by 1 - |xi|^2 calls the same guard; a second
    # copy could drift from SINGULAR_GUARD or from its message
    found = {(path.stem, name) for path in SRC.glob("*.py")
             for name in _exception_raisers(
                 ast.parse(path.read_text(encoding="utf-8")),
                 "SingularEvaluationError")}
    assert found == {("spectral", "_check_off_sphere")}


def test_exception_guard_sees_calls_classes_and_attributes():
    tree = ast.parse("def outer():\n"
                     "    def inner(): raise errors.Singular('x')\n"
                     "    return Singular('not raised')\n"
                     "def bare(): raise Singular\n"
                     "def other():\n    raise ValueError('Singular')\n"
                     "def again(): raise\n"
                     "raise Singular(1)\n")
    assert _exception_raisers(tree, "Singular") == {"inner", "bare", None}


def _is_finiteness_test(node):
    """True for a call of ``isfinite``, a read of ``float_info`` and a
    comparison with an ``inf`` attribute."""
    def name(sub):
        return (sub.id if isinstance(sub, ast.Name)
                else sub.attr if isinstance(sub, ast.Attribute) else None)

    if isinstance(node, ast.Call):
        return name(node.func) == "isfinite"
    if isinstance(node, ast.Compare):
        return any(isinstance(sub, ast.Attribute) and sub.attr == "inf"
                   for sub in [node.left, *node.comparators])
    return isinstance(node, ast.Attribute) and node.attr == "float_info"


def _finiteness_checkers(tree):
    """Names of the innermost functions (None at module level) that raise
    ``ConfigError`` and test finiteness or the float range."""
    return (_exception_raisers(tree, "ConfigError")
            & _holders(tree, _is_finiteness_test))


def test_one_function_checks_a_number_from_outside():
    # a second inline check could accept what number rejects: JSON integers
    # beyond the floats once passed one and overflowed in float()
    found = {(path.stem, name) for path in SRC.glob("*.py")
             for name in _finiteness_checkers(
                 ast.parse(path.read_text(encoding="utf-8")))}
    # the moments computed from the data, not numbers from outside
    computed = {("initial_data", "moment_table"), ("initial_data", "raw")}
    assert found == {("initial_data", "number")} | computed


def test_finiteness_guard_sees_calls_reads_and_comparisons():
    tree = ast.parse("def checker(x):\n"
                     "    if abs(x) > sys.float_info.max: raise ConfigError(x)\n"
                     "def inline(t):\n"
                     "    if not math.isfinite(t): raise errors.ConfigError(t)\n"
                     "def bound(x):\n"
                     "    if x < math.inf: return x\n    raise ConfigError\n"
                     "def value_only(): raise ConfigError(math.inf)\n"
                     "def nested():\n"
                     "    def inner(): return isfinite(1.0)\n"
                     "    raise ConfigError('x')\n"
                     "def other(x):\n"
                     "    if not math.isfinite(x): raise ValueError(x)\n")
    assert _finiteness_checkers(tree) == {"checker", "inline", "bound"}


def _callers(tree, module, attr):
    """Names of the innermost functions (None at module level) holding a
    call of ``module.attr``."""
    return _holders(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module))


def _calls_of(name):
    """Match a call of ``name``, bare or as an attribute."""
    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return name == (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)

    return calls


def _name_callers(tree, name):
    """Names of the innermost functions (None at module level) holding a
    call of ``name``, bare or as an attribute."""
    return _holders(tree, _calls_of(name))


def test_one_kernel_takes_the_regular_form():
    # a second grouping of the multipliers, (e^{-t} + K) u0_hat + K u1_hat,
    # lost seven digits where the masses of u0 and u1 cancel
    found = {(path.stem, name) for path in SRC.glob("*.py")
             for name in _name_callers(
                 ast.parse(path.read_text(encoding="utf-8")),
                 "stable_heat_difference")}
    assert found == {("spectral", "_rep_24")}


def test_name_call_guard_sees_bare_and_attribute_calls_only():
    tree = ast.parse("def outer():\n"
                     "    def inner(): return spectral.kernel(1, 2)\n"
                     "    return kernel\n"
                     "def bare(t): return kernel(t, 0.5)\n"
                     "def other(kernel): return other_kernel(kernel)\n"
                     "kernel(0, 1)\n")
    assert _name_callers(tree, "kernel") == {"inner", "bare", None}


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


def _is_row_template(node):
    """True for a ``%`` whose left side holds a string literal and for a
    comprehension of f-strings that hold a newline."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return any(isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                   for sub in ast.walk(node.left))
    return (isinstance(node, (ast.ListComp, ast.GeneratorExp))
            and isinstance(node.elt, ast.JoinedStr)
            and any(isinstance(part, ast.Constant) and "\n" in part.value
                    for part in node.elt.values))


def test_every_solve_row_comes_from_one_formatter():
    # this process's chunks, alone or beside a child, its stand-in for the
    # chunks of a failed child and the child's chunks all come from
    # _format_rows, and no other function of the CLI fills a row template,
    # so the two processes write the bytes of one
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert sorted(_sites(tree, _calls_of("_format_rows"))) == [
        "_fork_formatter", "_write_rows", "_write_rows"]
    assert _holders(tree, _is_row_template) == {"_format_rows"}


def test_row_template_guard_sees_percent_templates_and_row_loops():
    tree = ast.parse("def table(v): return ('%s,' + head) % tuple(v)\n"
                     "def rows(c, v): return ''.join([f'{a},{b!r}\\n' "
                     "for a, b in zip(c, v)])\n"
                     "def lines(r): return '\\n'.join(f'{x!r}' for x in r)\n"
                     "def message(n): return f'{n} failed\\n', n % 3\n"
                     "def each(f): return [f(x) for x in (1, 2)], "
                     "self.f(0), f\n")
    assert _holders(tree, _is_row_template) == {"table", "rows"}
    assert _sites(tree, _calls_of("f")) == ["each", "each"]


def _qualified_holders(node, match, path=()):
    """Dotted names of the innermost classes and functions ("" at module
    level) holding a node for which ``match`` is true."""
    if isinstance(node, DEFINITIONS):
        path = path + (node.name,)
    found = {".".join(path)} if match(node) else set()
    for child in ast.iter_child_nodes(node):
        found |= _qualified_holders(child, match, path)
    return found


def test_one_case_holds_the_campaign_tables():
    # the series ball once grew private tables of its own, so a default
    # campaign built 20 tables where it reads 8
    found = {(path.stem, name) for path in SRC.glob("*.py")
             for name in _qualified_holders(
                 ast.parse(path.read_text(encoding="utf-8")),
                 _calls_of("moment_table"))}
    assert found == {("experiments", "Case.table_to"),
                     ("norms", "residual_norm"),
                     ("cli", "cmd_moments"), ("cli", "cmd_expansion")}


def test_qualified_guard_names_classes_and_nested_functions():
    tree = ast.parse("class Case:\n"
                     "    def table(self): return moment_table(self.v, 2)\n"
                     "    def nested(self):\n"
                     "        def inner(): return initial_data.moment_table(v)\n"
                     "        return inner, moment_table\n"
                     "def command(args): return moment_table(args.v, args.k)\n"
                     "def other(moment_table): return moment_tables(1)\n"
                     "moment_table(v, 1)\n")
    assert _qualified_holders(tree, _calls_of("moment_table")) == {
        "Case.table", "Case.nested.inner", "command", ""}


def _names(node):
    """Every name read in ``node``, as an ast ``Name`` or ``Attribute``."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _is_shell_product(node):
    """True for a product with ``radii`` on one side and ``dirs`` on the
    other."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    left, right = _names(node.left), _names(node.right)
    return (("radii" in left and "dirs" in right)
            or ("dirs" in left and "radii" in right))


def test_one_class_forms_the_shell_points():
    # the low-frequency gap, the single-point norm and the residual each
    # once formed radii[:, None, None] * dirs of their own, beside a Shells
    # that the campaign's stack built per field call
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    products = {(module, name) for module, tree in trees.items()
                for name in _qualified_holders(tree, _is_shell_product)}
    builders = {(module, name) for module, tree in trees.items()
                for name in _qualified_holders(tree, _calls_of("Shells"))}
    assert products == {("spectral", "Shells.__init__")}
    assert builders == {("norms", "norm_curve.field")}


def test_shell_guard_sees_products_on_either_side_only():
    tree = ast.parse("class Shells:\n"
                     "    def __init__(self, radii, dirs):\n"
                     "        self.pts = self.radii[:, None, None] * dirs\n"
                     "def gap(radii, dirs): return dirs * radii[:, None]\n"
                     "def field(radii, dirs): return f(Shells(radii, dirs))\n"
                     "def other(r, dirs, radii):\n"
                     "    return r * g(dirs), radii + dirs, radii * r\n")
    assert _qualified_holders(tree, _is_shell_product) == {
        "Shells.__init__", "gap"}
    assert _qualified_holders(tree, _calls_of("Shells")) == {"field"}


def _dataclasses_declaring(tree, field):
    """Names of the dataclasses in ``tree`` whose body annotates ``field``."""
    def is_dataclass(deco):
        node = deco.func if isinstance(deco, ast.Call) else deco
        return (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else None) == "dataclass"

    def declares(stmt):
        return (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == field)

    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  and any(map(is_dataclass, node.decorator_list))
                  and any(map(declares, node.body)))


def test_one_record_holds_a_quadrature_result():
    # a second record re-wrapping QuadResult once dropped its stalled flag
    found = {(path.stem, cls) for path in SRC.glob("*.py")
             for cls in _dataclasses_declaring(
                 ast.parse(path.read_text(encoding="utf-8")), "error_estimate")}
    assert found == {("quadrature", "QuadResult")}


def test_record_guard_sees_decorated_annotated_fields_only():
    tree = ast.parse("@dataclass\nclass A:\n    error_estimate: float\n"
                     "@dataclasses.dataclass(frozen=True)\nclass B:\n"
                     "    value: float\n    error_estimate: float = 0.0\n"
                     "class C:\n    error_estimate: float\n"
                     "@dataclass\nclass D:\n    error_estimate = 1.0\n"
                     "@dataclass\nclass E:\n    estimate: float\n"
                     "    def f(self): error_estimate: float = 0.0\n")
    assert _dataclasses_declaring(tree, "error_estimate") == ["A", "B"]


def _status_writers(tree):
    """Names of the innermost functions (None at module level) holding a
    dict display with a ``"status"`` key."""
    return _holders(tree, lambda node: isinstance(node, ast.Dict) and any(
        isinstance(key, ast.Constant) and key.value == "status"
        for key in node.keys))


def test_each_check_writes_its_own_status():
    # a verdict built twice, by a check's record and again by a translator
    # in run_report, split the pass rule between the two
    found = {(path.stem, name) for path in SRC.glob("*.py")
             for name in _status_writers(
                 ast.parse(path.read_text(encoding="utf-8")))}
    checks = {"fit_decay_rate", "sandwich_check", "heat_comparison",
              "vanishing_limit_check"}
    assert found == ({("experiments", name) for name in checks}
                     | {("expansion", "_property_entry")})


def test_status_guard_sees_dict_displays_with_the_key_only():
    tree = ast.parse("def outer():\n"
                     "    def inner(): return {'case': 1, 'status': 'pass'}\n"
                     "    return {'state': 'status'}\n"
                     "def merged(e): return {**e, 'status': 'fail'}\n"
                     "def keyword(): return dict(status='pass')\n"
                     "def read(e): return e['status'] == 'pass'\n"
                     "x = {'status': None}\n")
    assert _status_writers(tree) == {"inner", "merged", None}


def _comparisons_with(tree, function, name):
    """The number of comparisons that read ``name``, bare or as an
    attribute, inside the functions called ``function``."""
    def reads(node):
        return any((isinstance(sub, ast.Name) and sub.id == name)
                   or (isinstance(sub, ast.Attribute) and sub.attr == name)
                   for sub in ast.walk(node))

    return sum(isinstance(sub, ast.Compare) and reads(sub)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name == function
               for sub in ast.walk(node))


def test_one_rule_stops_the_truncation_probe():
    # an inward cut over the ladder edges and an outward search over the
    # bundles were two rules, each with its own floor test and tail bound;
    # a third stopping rule has to change this count
    tree = ast.parse((SRC / "quadrature.py").read_text(encoding="utf-8"))
    assert _comparisons_with(tree, "truncation_radius", "TRUNCATION_FLOOR") == 1


def test_comparison_guard_sees_nested_and_attribute_reads_only():
    tree = ast.parse("def rule(x, peak):\n"
                     "    def inner(y): return y <= FLOOR * peak\n"
                     "    if x < q.FLOOR: return x\n"
                     "    bound = FLOOR * peak\n"
                     "    return x > bound\n"
                     "def other(x): return x <= FLOOR\n"
                     "y = 1 < FLOOR\n")
    assert _comparisons_with(tree, "rule", "FLOOR") == 2
    assert _comparisons_with(tree, "other", "FLOOR") == 1


def test_the_benchmark_tracer_installs():
    # perfbench/tracer.py wraps package functions by name; one that a change
    # renames or deletes breaks every traced benchmark run
    root = Path(__file__).resolve().parents[1]
    code = ('import sys; sys.path[:0] = ["perfbench", "src"]; import tracer; '
            'tracer.install(tracer.Tracer())')
    run = subprocess.run([sys.executable, "-c", code], cwd=root,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("workload, counted", [
    ("campaign", ("experiments.curve_points",
                  "quadrature.choose_angular_rule.nodes",
                  "initial_data.fourier_transform.points")),
    ("norm-multid", ("quadrature.choose_angular_rule.nodes",
                     "initial_data.fourier_transform.points"))],
    ids=["campaign", "norm-multid"])
def test_a_traced_benchmark_operation_runs(workload, counted, tmp_path):
    # the tracer's after-hooks read package results (the checks' curve
    # times, the angular rule's weights, the transformed points); a change
    # that breaks one fails only in a traced run
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "run.json"
    run = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", workload,
         "--seed", "1", "--ops", "1", "--trace",
         "--work", str(tmp_path / "work"), "--out", str(out)],
        cwd=root, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    # the warm-up operation and the one timed operation
    assert (result["attempted"], result["failed"]) == (2, 0), result["failures"]
    counts = result["counts"]
    assert all(counts.get(key, 0) > 0 for key in counted), counts


@pytest.mark.parametrize("seed", [7, 11])
def test_the_benchmark_campaign_check_passes(seed, tmp_path):
    # a 20 s benchmark run draws 1,000 to 2,500 campaigns and fails on any
    # output its oracle rejects; 100 of them, as the benchmark runs them
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "run.json"
    run = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", "campaign",
         "--seed", str(seed), "--ops", "100",
         "--work", str(tmp_path / "work"), "--out", str(out)],
        cwd=root, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    # the warm-up operation and the 100 timed ones
    assert (result["attempted"], result["failed"]) == (101, 0), \
        result["failures"]


@pytest.mark.parametrize("seed", [3, 11])
def test_the_benchmark_solve_check_passes(seed, tmp_path):
    # the benchmark's solve check reads every row of each CSV and compares
    # 64 random ones with evaluate; a wrong or missing row of the forked
    # formatter fails it.  The warm-up and 4 timed requests, as the
    # benchmark runs them
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "run.json"
    run = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", "solve-grid",
         "--seed", str(seed), "--ops", "4",
         "--work", str(tmp_path / "work"), "--out", str(out)],
        cwd=root, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert (result["attempted"], result["failed"]) == (5, 0), \
        result["failures"]


@pytest.mark.parametrize("seed", [7, 11])
def test_the_benchmark_norm_check_passes(seed, tmp_path):
    # the benchmark's norm check compares each request with the scipy
    # oracle, its pinned value or both; 300 requests, as the benchmark
    # runs them
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "run.json"
    run = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", "norm-multid",
         "--seed", str(seed), "--ops", "300",
         "--work", str(tmp_path / "work"), "--out", str(out)],
        cwd=root, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    # the warm-up request and the 300 timed ones
    assert (result["attempted"], result["failed"]) == (301, 0), \
        result["failures"]
