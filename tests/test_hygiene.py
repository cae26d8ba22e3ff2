"""Source hygiene: no module imports a name it never references, only
the integrator module loads numpy when it is imported, no package
module uses dataclasses (its records are NamedTuples), the sweep's
lanes call none of numpy's Python-level wrappers, tests/refvals.py
imports nothing, so no pin in it can be computed by the package, and
every name the package exports is read by package code or named in the
README, so no second route kept only for the tests is exported.

No linter ships with the project, so these are plain `ast` scans over
src/ and tests/. For unused imports, package `__init__.py` files are
skipped (their imports are the public re-exports), as are names listed in
a module's `__all__`.
"""

import ast
import re
from pathlib import Path

import pytest

import sddhopf
from sddhopf import dde, model, nonlinearity, normalform, stability

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
PACKAGE_MODULES = sorted((ROOT / "src").rglob("*.py"))
# every package module but the integrator, which is the one that needs numpy
ANALYSIS_MODULES = sorted(p for p in (ROOT / "src" / "sddhopf").glob("*.py")
                          if p.name != "dde.py")


def unused_imports(source):
    """(line, name) of each imported name the module never references."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, (a.asname or a.name).partition(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {e.value for e in ast.walk(node.value)
                         if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported
            if name not in used and name not in exported]


def test_the_scan_flags_only_unreferenced_names():
    source = ("import os\nimport numpy as np\nimport a.b\n"
              "from m import used, unused, exported\nfrom star import *\n"
              "__all__ = ['exported']\nprint(used, np.pi, a.b)\n")
    assert unused_imports(source) == [(1, "os"), (4, "unused")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, "unused imports: %s" % ", ".join(
        "%s (line %d)" % (name, line) for line, name in unused)


def module_level_heavy_imports(source):
    """(line, dotted path) of each import of numpy or of the package's dde
    module that runs when the module is imported: every one outside a
    function body. Relative paths keep their leading dots."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.Import):
                paths = [(0, a.name.split(".")) for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                base = child.module.split(".") if child.module else []
                paths = [(child.level, base + [a.name]) for a in child.names]
            else:
                visit(child)
                continue
            for level, parts in paths:
                heavy = (parts[0] == "dde" if level
                         else parts[0] == "numpy" or parts[:2] == ["sddhopf", "dde"])
                if heavy:
                    found.append((child.lineno, "." * level + ".".join(parts)))

    visit(ast.parse(source))
    return found


def test_the_boundary_scan_flags_only_module_level_numpy_and_dde():
    source = ("import math\nimport numpy as np\nimport numpy.linalg\n"
              "from numpy import pi\nfrom . import dde\nfrom .dde import History\n"
              "from .model import state\nimport sddhopf.dde\n"
              "from sddhopf import dde as d\nfrom sddhopf import model\n"
              "try:\n    import numpy\nexcept ImportError:\n    pass\n"
              "def f():\n    import numpy as np\n    from . import dde\n"
              "class C:\n    from .dde import solve_delay\n"
              "    def g(self):\n        from .dde import History\n")
    assert module_level_heavy_imports(source) == [
        (2, "numpy"), (3, "numpy.linalg"), (4, "numpy.pi"), (5, ".dde"),
        (6, ".dde.History"), (8, "sddhopf.dde"), (9, "sddhopf.dde"),
        (12, "numpy"), (19, ".dde.solve_delay")]


@pytest.mark.parametrize("path", ANALYSIS_MODULES, ids=lambda p: p.name)
def test_only_dde_imports_numpy_or_dde_at_module_level(path):
    found = module_level_heavy_imports(path.read_text())
    assert not found, "module-level imports past the boundary: %s" % ", ".join(
        "%s (line %d)" % (name, line) for line, name in found)


def dataclasses_imports(source):
    """(line, module) of each import of the dataclasses module, at any
    depth of the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.partition(".")[0] == "dataclasses"]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.partition(".")[0] == "dataclasses"):
            found.append((node.lineno, node.module))
    return found


def test_the_dataclasses_scan_flags_every_import_of_it():
    source = ("import dataclasses\nfrom dataclasses import dataclass, field\n"
              "import os, dataclasses as dc\nfrom .dataclasses import x\n"
              "from typing import NamedTuple\ndef f():\n    import dataclasses\n")
    assert dataclasses_imports(source) == [
        (1, "dataclasses"), (2, "dataclasses"), (3, "dataclasses"),
        (7, "dataclasses")]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: p.name)
def test_no_package_module_imports_dataclasses(path):
    found = dataclasses_imports(path.read_text())
    assert not found, "dataclasses imported at line(s) %s" % ", ".join(
        str(line) for line, _ in found)


def import_lines(source):
    """Line of each import statement, at any depth of the source, and of
    each reference to __import__."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  or (isinstance(node, ast.Name) and node.id == "__import__"))


def test_the_import_scan_flags_every_import():
    source = ("X = 1\nimport math\nfrom sddhopf import model\n"
              "def f():\n    from . import dde\n    return __import__('os')\n"
              "Y = {'import': 2}\n")
    assert import_lines(source) == [2, 3, 5, 6]


def test_refvals_imports_nothing():
    found = import_lines((ROOT / "tests" / "refvals.py").read_text())
    assert not found, "tests/refvals.py imports at line(s) %s" % found


# numpy functions that are Python wrappers around a C entry point (an
# ndarray method, a ufunc or its reduce); each costs microseconds more per
# call on short arrays, and the lanes make a few hundred calls a round
NUMPY_WRAPPERS = frozenset(("take", "clip", "flatnonzero", "nonzero", "ravel",
                            "sum", "any", "all"))


def numpy_wrapper_uses(source):
    """(line, name) of each reference to one of NUMPY_WRAPPERS through the
    numpy module, under any alias, or through a name imported from it."""
    tree = ast.parse(source)
    modules, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or "numpy" for a in node.names
                        if (a.name if a.asname else a.name.partition(".")[0]) == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy" and not node.level:
            imported.update((a.asname or a.name, a.name) for a in node.names
                            if a.name in NUMPY_WRAPPERS)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_WRAPPERS
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in imported:
            found.append((node.lineno, imported[node.id]))
    return sorted(found)


def test_the_scan_flags_only_numpy_wrapper_uses():
    source = ("import numpy as np\nimport numpy\nimport numpy.linalg as la\n"
              "from numpy import clip as cl, where\n"
              "def f(a, m):\n    b = np.take(a, m)\n    c = a.take(m)\n"
              "    d = np.add.reduce(a) + np.logical_or.reduce(m)\n"
              "    e = numpy.ravel(a)\n    g = cl(a, 0, 1)\n    s = np.sum\n"
              "    i = m.nonzero()[0], np.nonzero(m)\n    j = where(m, a, b)\n"
              "    k = la.norm(a), np.count_nonzero(m), m.any(), np.argmax(a)\n")
    assert numpy_wrapper_uses(source) == [
        (6, "take"), (9, "ravel"), (10, "clip"), (11, "sum"), (12, "nonzero")]


def test_the_lanes_call_no_numpy_wrapper():
    found = numpy_wrapper_uses((ROOT / "src" / "sddhopf" / "lanes.py").read_text())
    assert not found, "numpy wrappers in the lanes: %s" % ", ".join(
        "%s (line %d)" % (name, line) for line, name in found)


# the package's records: every tuple subclass a package module defines
RECORDS = sorted((obj for mod in (model, nonlinearity, stability, normalform, dde)
                  for obj in vars(mod).values()
                  if isinstance(obj, type) and issubclass(obj, tuple)
                  and obj.__module__ == mod.__name__),
                 key=lambda cls: cls.__name__)


def test_the_records_are_namedtuples():
    assert [cls.__name__ for cls in RECORDS] == [
        "CallableMap", "CompatibilityReport", "CriticalFrame", "Equilibrium",
        "HopfPoint", "InitialHistory", "Kappa3Quadratic",
        "NormalFormReport", "OscillationSummary",
        "QuadraticCoeffs", "RunStats", "StabilityClassification", "Trajectory"]


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_no_record_field_shadows_a_tuple_method(record):
    # a field named count or index would hide the tuple method of that name
    assert not set(record._fields) & set(dir(tuple))


def read_names(source):
    """Every name the source reads, bare, as an attribute or in a from
    import; a def or class statement does not read its own name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def test_the_read_scan_skips_definitions():
    source = ("from m import a\ndef b():\n    return c.d\nclass E:\n    pass\n")
    assert read_names(source) == {"a", "c", "d"}


def test_every_export_is_used_by_the_package_or_documented():
    # a name only the tests call belongs in tests/oracles.py, not the API
    exported = {n for n in dir(sddhopf) if not n.startswith("_")
                and not isinstance(getattr(sddhopf, n), type(sddhopf))}
    read = set().union(*(read_names(p.read_text()) for p in PACKAGE_MODULES
                         if p.name != "__init__.py"))
    readme = (ROOT / "README.md").read_text()
    unused = sorted(n for n in exported - read
                    if not re.search(r"`[^`]*\b%s\b[^`]*`" % n, readme))
    assert not unused, "exported but used only by the tests: %s" % ", ".join(unused)
    # the README names the routes moved to the oracles, as an API change,
    # so the check above would let them back in; this one does not
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    oracles = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not exported & oracles, "exported and in tests/oracles.py: %s" % ", ".join(
        sorted(exported & oracles))
