"""No module imports a name at top level that it never uses.

Every source module of the package (all but ``__init__.py``, which
re-exports) and every test module is parsed with ``ast``; a name bound by
a top-level import must appear as a name somewhere in the same module.
"""

import ast
from pathlib import Path

import gch

PACKAGE = Path(gch.__file__).parent
TESTS = Path(__file__).parent


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport sys as system\nfrom math import pi, tau\n"
                    "print(system.argv, pi)\n")
    assert unused_imports(path) == ["os", "tau"]


def test_no_unused_top_level_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(TESTS.glob("*.py"))
    unused = {p.name: names for p in modules if (names := unused_imports(p))}
    assert unused == {}
