"""No module imports a name at top level that it never uses, and the
package keeps a known set of module-level caches.

Every source module of the package (all but ``__init__.py``, which
re-exports) and every test module is parsed with ``ast``; a name bound by
a top-level import must appear as a name somewhere in the same module.
A module-level name bound to an empty ``{}`` or ``dict()`` is a cache that
lives for the whole process, and the package has exactly four.
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


def empty_dicts(path: Path) -> list[str]:
    """The module-level names bound to an empty ``{}`` or ``dict()``,
    annotated or not."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        empty = (isinstance(value, ast.Dict) and not value.keys
                 or isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                 and value.func.id == "dict" and not value.args and not value.keywords)
        if empty:
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_empty_dict_is_found(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("A = {}\nB: dict[str, int] = dict()\nC = {1: 2}\nD = dict(x=1)\n"
                    "def f():\n    E = {}\n")
    assert empty_dicts(path) == ["A", "B"]


def test_module_level_caches_are_the_known_four():
    """The certificate cache and the class registry, the enumeration cache
    and the shared vertex pairs: the caches a session object would own."""
    caches = {f"{p.stem}.{name}" for p in sorted(PACKAGE.glob("*.py")) for name in empty_dicts(p)}
    assert caches == {"context._CERT_CACHE", "context._CLASSES", "generate._ENUM_CACHE",
                      "graph._PAIRS"}
