"""The oracle module stays independent of the engine it checks.

``gch.oracle`` may import only ``gch.graph`` from the package, and no
other module of the package may import ``gch.oracle``: only the tests
compare the engine against it, so a reference can never share code with
what it is compared against.
"""

import ast
from pathlib import Path

import gch
from gch.families import banana, cycle, rose, theta
from gch.oracle import half_edge_automorphisms

PACKAGE = Path(gch.__file__).parent


def gch_imports(path: Path) -> set[str]:
    """The ``gch`` modules a source file imports, as dotted names; a name
    taken from the package itself counts as ``gch.<name>``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.split(".")[0] == "gch"}
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "gch" + (f".{node.module}" if node.module else "")
            elif node.module and node.module.split(".")[0] == "gch":
                base = node.module
            else:
                continue
            if base == "gch":
                found |= {f"gch.{a.name}" for a in node.names}
            else:
                found.add(base)
    return found


def test_oracle_imports_only_the_graph_module():
    assert gch_imports(PACKAGE / "oracle.py") == {"gch.graph"}


def test_no_engine_module_imports_the_oracle():
    importers = sorted(path.name for path in PACKAGE.glob("*.py")
                       if "gch.oracle" in gch_imports(path))
    assert importers == []


def test_oracle_finds_known_automorphism_counts():
    assert len(half_edge_automorphisms(theta())) == 12
    assert len(half_edge_automorphisms(cycle(5))) == 10
    assert len(half_edge_automorphisms(rose(2))) == 8
    assert len(half_edge_automorphisms(banana(4))) == 48
