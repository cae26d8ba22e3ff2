"""Source hygiene: no module imports a name it never references.

No linter ships with the project, so this is a plain `ast` scan over
src/ and tests/. Package `__init__.py` files are skipped (their imports are
the public re-exports), as are names listed in a module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


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
