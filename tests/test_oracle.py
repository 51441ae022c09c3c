"""The oracle module stays independent of the engine it checks.

``gch.oracle`` may import only ``gch.graph`` from the package, and no
other module of the package may import ``gch.oracle``: only the tests
compare the engine against it, so a reference can never share code with
what it is compared against.  Where the oracle computes one thing two
ways, the two agree.
"""

import ast
import itertools
import math
import random
from pathlib import Path

import pytest

import gch
from gch.context import canonical_entry
from gch.families import banana, cycle, dumbbell, rose, theta, triangle_with_doubled_edge, wheel
from gch.oracle import (
    automorphism_sign,
    compose,
    dense_rank,
    determinant,
    half_edge_automorphisms,
    morphism_sign,
    reference_orientation,
)

from forms import automorphisms

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


def test_determinant_and_rank_by_definition():
    """The shared elimination against the Leibniz formula, and the rank
    against the largest nonzero minor, on random small integer matrices,
    singular ones among them."""
    rng = random.Random(5)
    for n in range(5):
        for _ in range(40):
            a = [[rng.choice((-2, -1, 0, 0, 1, 3)) for _ in range(n)] for _ in range(n)]
            leibniz = sum(math.prod(a[i][p[i]] for i in range(n))
                          * (-1) ** sum(x > y for x, y in itertools.combinations(p, 2))
                          for p in itertools.permutations(range(n)))
            assert determinant(a) == leibniz, a
            minors = [k for k in range(n + 1)
                      for rows in itertools.combinations(range(n), k)
                      for cols in itertools.combinations(range(n), k)
                      if determinant([[a[i][j] for j in cols] for i in rows])]
            assert dense_rank(a) == max(minors), a


def exact_sequence_sign(m):
    """The sign on det H_1 of an automorphism by the exact sequence
    0 -> H_1 -> C_1 -> C_0 -> H_0 -> 0, written here and not in the oracle:
    the parity of its edge images times -1 per reversed edge, times the
    parity of its vertex images."""
    def parity(seq):
        return -1 if sum(a > b for a, b in itertools.combinations(seq, 2)) % 2 else 1
    firsts = m.half_edge_map[::2]
    return (parity([h >> 1 for h in firsts]) * (-1) ** sum(h & 1 for h in firsts)
            * parity(m.vertex_map))


@pytest.mark.parametrize(
    "g",
    [theta(), dumbbell(), rose(1), rose(2), banana(2), banana(4),
     cycle(3), cycle(4), cycle(5), wheel(3), wheel(4), triangle_with_doubled_edge()],
    ids=lambda g: str(g),
)
def test_odd_sign_matches_direction_oracle(g):
    """The oracle's odd sign of an automorphism, its H_1 sign from the
    determinant of the reference cycle basis pushed through it, is the
    exact-sequence sign, the parity of the edge images times the
    edge-direction flips times the vertex-order parity; and its sign on all
    edges is its morphism sign.  The graphs exercise tadpole flips,
    parallel swaps, rotations and reflections."""
    ctx = canonical_entry(g)[0]
    g, gens = ctx.graph, automorphisms(ctx)
    autos = {aut.half_edges: aut for aut in half_edge_automorphisms(g)}
    ref = reference_orientation(g)
    rng = random.Random(11)
    elements = list(gens)
    for _ in range(30):
        a = rng.choice(gens)
        b = rng.choice(elements)
        elements.append(compose(a, b))
    for m in elements:
        aut = autos[tuple(m.half_edge_map)]
        assert aut.h1 == exact_sequence_sign(m)
        assert morphism_sign(m, "odd", ref, ref) == automorphism_sign(aut, range(g.edge_count), True)
