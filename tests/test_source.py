"""Source guards: no module-level memoisation and no dead code outside
fixed allow-lists.

Work shared between the checks of one campaign case lives on its ``Case``;
a process-wide cache would carry it into later cases and campaigns.  Only
pure functions over a small fixed key set may be cached for the process.

``src/dampex`` holds only what a subcommand runs: every function, class
and method there is used by other code of the package.  Helpers that only
tests call belong in ``tests/oracles.py``.
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
