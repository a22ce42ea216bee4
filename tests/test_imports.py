"""Every name a module of the package imports is used in that module,
and the package starts without the standard library's heavy modules."""

import ast
import subprocess
import sys
from pathlib import Path

import presburger

PACKAGE = Path(presburger.__file__).resolve().parent


def unused_imports(source):
    """Names bound by import statements and never read; names listed in
    __all__ count as read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_cold_start_imports_no_heavy_modules():
    # dataclasses alone pulls in inspect, ast, dis, tokenize and copy, and
    # a CLI run pays for every import before it answers its one query
    heavy = {"dataclasses", "inspect", "typing", "ast", "copy"}
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
            "import presburger, presburger.cli, presburger.quasipoly; "
            f"print(sorted({heavy!r} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import os, sys\nfrom math import gcd, lcm as l\n"
           "__all__ = ['gcd']\nprint(sys.argv)\n")
    assert unused_imports(src) == [(2, "os"), (3, "l")]


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(found) > 1
    assert {name: bad for name, bad in found.items() if bad} == {}


def orphaned_helpers(sources):
    """Module-level _private functions and classes of the given modules
    (name -> source) whose name no module reads, imports or looks up as an
    attribute."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted((m, name) for m, name in defined if name not in used)


def test_orphaned_helpers_are_found():
    sources = {"a": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n"
                    "def __dunder__(): pass\ndef api(): return _used()\n",
               "b": "from .a import api\n"}
    assert orphaned_helpers(sources) == [("a", "_Gone"), ("a", "_dead")]
    sources["b"] += "from . import a\na._dead()\n"
    assert orphaned_helpers(sources) == [("a", "_Gone")]


def test_no_orphaned_helpers():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_helpers(sources) == []


# Public functions and methods that nothing in the package calls, kept on
# purpose.
UNCALLED_PUBLIC = {
    ("serialize.py", "gf_to_obj"):
        "object form of a GF document: the reference the term-by-term "
        "writer in dumps is tested against, and a benchmark trace target",
    ("serialize.py", "semilinear_to_obj"):
        "object form of a cell document: the reference the cell-by-cell "
        "writer in dumps is tested against, and a benchmark trace target",
    ("serialize.py", "pqp_to_obj"):
        "object form of a pqp document: the reference the piece-by-piece "
        "writer in dumps is tested against, and a benchmark trace target",
    ("serialize.py", "step_to_obj"):
        "object form of a step polynomial: the reference the term-by-term "
        "writer in dumps is tested against, and a benchmark trace target",
    ("quasipoly.py", "partition_count"): "a benchmark trace target",
    ("polyhedra.py", "is_feasible"):
        "a benchmark trace target; to_dnf tests its branches against the "
        "parent's double description instead",
    ("polyhedra.py", "vertices"):
        "the per-vertex reference that vertex_cones is tested against, and "
        "a benchmark trace target",
    ("polyhedra.py", "tangent_cone"):
        "the per-vertex reference that vertex_cones is tested against, and "
        "a benchmark trace target",
    ("polyhedra.py", "has_interior"):
        "the planned refinement of piecewise quasi-polynomial cells uses it",
    ("polyhedra.py", "Polyhedron.intersect"):
        "ROADMAP item 1 refines pqp cells with it",
    ("semilinear.py", "formula_from_semilinear"):
        "the planned converse from a rational GF to a formula prints its "
        "result with it",
}


def _units(tree):
    """(name, nodes) per unit of a module: each method of a top-level class
    is one, named Class.method, and the rest of each top-level statement
    is one, named as the function it defines, if any."""
    for stmt in tree.body:
        inner = set()
        for m in stmt.body if isinstance(stmt, ast.ClassDef) else ():
            if isinstance(m, ast.FunctionDef):
                nodes = list(ast.walk(m))
                inner.update(map(id, nodes))
                yield f"{stmt.name}.{m.name}", nodes
        name = stmt.name if isinstance(stmt, ast.FunctionDef) else None
        yield name, [n for n in ast.walk(stmt) if id(n) not in inner]


def uncalled_public_functions(sources):
    """Module-level public functions and public methods of module-level
    classes of the given modules (name -> source) whose name no other
    unit (see _units) of any module reads, imports or looks up as an
    attribute; a function calling itself does not count."""
    defined = []
    readers = {}  # name -> {(module, index of the unit)}
    for module, source in sources.items():
        for i, (unit, nodes) in enumerate(_units(ast.parse(source))):
            short = unit and unit.rpartition(".")[2]
            if short and not short.startswith("_"):
                defined.append((module, unit, short, i))
            for node in nodes:
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    readers.setdefault(name, set()).add((module, i))
    return sorted((m, unit) for m, unit, short, i in defined
                  if not readers.get(short, set()) - {(m, i)})


def test_uncalled_public_functions_are_found():
    sources = {"a": "def api(): return helper()\ndef helper(): pass\n"
                    "def planted(): return planted()\n"
                    "class K:\n    def used(self): return self.spare()\n"
                    "    def spare(self): return self.spare()\n"
                    "    def alone(self): return self.alone()\n"
                    "    def _private(self): pass\n",
               "__init__.py": "from .a import api\nK().used()\n"}
    assert uncalled_public_functions(sources) == [("a", "K.alone"),
                                                  ("a", "planted")]
    sources["b"] = "from . import a\nx = a.planted\ny = a.K.alone\n"
    assert uncalled_public_functions(sources) == []


def test_every_public_function_is_exported_or_called():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert uncalled_public_functions(sources) == sorted(UNCALLED_PUBLIC)
