"""The subset orbit tables of the cube-pair complexes against the oracle.

A context keeps, for every edge subset T it has met, the representative R
of its orbit under Aut (the lexicographically least image of T), and the
parity in edge order and the sign on det H_1 of p_k from T onto R, for the
least index k of the edge-action closure with p_k(T) = R; its slot holds
the two signs, not k.  Here R is recomputed from the edge permutations of
:func:`gch.oracle.half_edge_automorphisms`, which finds every automorphism
by search, k by scanning the closure, the parity by counting inversions
and the sign off the closure element k; the order of the stabilizer of T,
which the context reads off the orbit size, is the number of
automorphisms that map T onto itself.  Each closure element also carries a sign on det H_1:
unless an automorphism fixing every edge reverses H_1 (``kernel_odd``,
which the oracle decides too), it must be the C_1.C_0 sign of every
automorphism with that edge permutation; if one does, every odd cube
must vanish.  The graphs are every graph of genus 1 to 3 with at most
six edges (bivalent vertices and tadpoles allowed), the cube-pair family
up to genus 3, and its genus-4 graphs with at most eight edges.  Each is
checked in two fresh class objects, made outside the registry so that no
earlier build has filled their tables: one meets the subsets in reverse
order, so that most lookups miss on a subset that is not its orbit's
representative; the other walks the orbits first.  The forests come from
:func:`gch.oracle.forests`.
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gch import moduli
from gch.canonical import edge_action_closure
from gch.complexes import ComplexSpec
from gch.context import SLOT_EDGES, GraphContext
from gch.generate import EnumSpec, InfeasibleEnumeration, enumerate_graphs
from gch.oracle import automorphism_sign, forests, half_edge_automorphisms

from forms import automorphisms
from masks import mask_of


def _forms():
    specs = [EnumSpec(genus=g, min_valence=2, allow_tadpoles=True, max_edges=6) for g in (1, 2, 3)]
    specs += [EnumSpec(genus=g, min_valence=3, allow_tadpoles=True) for g in (2, 3)]
    specs.append(EnumSpec(genus=4, min_valence=3, allow_tadpoles=True, max_edges=8))
    return list({f.certificate: f for spec in specs for f in enumerate_graphs(spec)}.values())


def _check_graph(form):
    g = form.graph
    autos = half_edge_automorphisms(g)
    edge_perms = [aut.edges for aut in autos]
    subsets = [s for size in range(g.edge_count + 1)
               for s in itertools.combinations(range(g.edge_count), size)]
    orbit = {s: {tuple(sorted(p[e] for e in s)) for p in edge_perms} for s in subsets}
    least = {s: min(images) for s, images in orbit.items()}

    missing_first, walked_first = (GraphContext(form.certificate, g, form.ribbon, form.generators,
                                                form.aut_order)
                                   for _ in range(2))
    # the engine keeps of its closure only the inverse bits and H_1 signs;
    # the same walk with the permutations kept is the reference
    closure = edge_action_closure(g.edge_count,
                                  [(m.edge_action, walked_first.aut_h1(m.half_edge_map))
                                   for m in automorphisms(walked_first)])
    assert walked_first.closure[1] == bytes(sign < 0 for _, sign in closure)
    assert walked_first.closure[0] == [[walked_first.bits[p.index(e)] for e in range(len(p))]
                                       for p, _ in closure]
    assert ({tuple(p) for p, _ in closure}
            == {tuple(p) for p in edge_perms})
    # the cycle-basis sign on det H_1 of each automorphism, by edge
    # permutation: the odd sign on all edges times the even one, the edge
    # parity
    every = tuple(range(g.edge_count))
    h1_signs = {}
    for aut in autos:
        h1_signs.setdefault(aut.edges, set()).add(
            automorphism_sign(aut, every, True) * automorphism_sign(aut, every, False))
    assert walked_first.kernel_odd == (-1 in h1_signs[every]), form.certificate
    if not walked_first.kernel_odd:
        for p, sign in closure:
            assert h1_signs[p] == {sign}, (form.certificate, p)
    forest_set = set(forests(g))
    for forests_only, expected_total in ((True, len(forest_set)), (False, 2 ** g.edge_count - 1)):
        reps = [walked_first.subset_of(mask) for mask in walked_first.subset_orbits(forests_only)]
        members = [s for s in subsets if (s in forest_set if forests_only else len(s) < g.edge_count)]
        assert reps == sorted({least[s] for s in members}, key=lambda s: (len(s), s))
        assert sum(len(orbit[r]) for r in reps) == expected_total

    for ctx, order in ((missing_first, subsets[::-1]), (walked_first, subsets)):
        for s in order:
            mask, even = ctx._align(mask_of(ctx, s), False)
            parity, h1 = int(even < 0), even * ctx._align(mask_of(ctx, s), True)[1]
            rep = ctx.subset_of(mask)
            assert rep == least[s], (form.certificate, s)
            k = next(j for j, (p, _) in enumerate(closure)
                     if tuple(sorted(p[e] for e in s)) == rep)
            images = [closure[k][0][e] for e in s]
            inversions = sum(1 for a, b in itertools.combinations(images, 2) if a > b)
            assert parity == inversions % 2, (form.certificate, s)
            assert h1 == closure[k][1], (form.certificate, s)
            fixing = sum(1 for p in edge_perms if tuple(sorted(p[e] for e in s)) == s)
            assert ctx.stabilizer_order(mask_of(ctx, s)) == fixing, (form.certificate, s)
            # where the closure signs are not well defined, no odd cube survives
            assert not ctx.kernel_odd or ctx.witness("odd", mask_of(ctx, s)), (form.certificate, s)
    return len(subsets)


def test_orbit_tables_match_oracle():
    forms = _forms()
    assert any(f.graph.edge_count == 8 for f in forms)
    assert sum(_check_graph(form) for form in forms) > 10000


SLOTS = r"""
import json, resource
from gch.complexes import ComplexSpec, build_complex
from gch.context import _CLASSES, canonical_entry
from gch.families import cycle
from gch.generate import _trivalent

def tabled():
    return [c for c in _CLASSES.values() if "_orbit" in vars(c)]

out = {}
_trivalent(5)
build_complex(ComplexSpec("com", "odd", 4))
build_complex(ComplexSpec("ass", "even", 3))
out["tables_without_cubes"] = len(tabled())
out["closures_without_cubes"] = sum("closure" in vars(c) for c in _CLASSES.values())
build_complex(ComplexSpec("gp", "odd", 3))
out["odd_kernel_tables"] = sum(c.kernel_odd for c in tabled())
build_complex(ComplexSpec("gf", "even", 3))
out["tables"] = len(tabled())
out["slots"] = sorted({(c._orbit.itemsize, len(c._orbit) == 2 ** c.graph.edge_count)
                       for c in tabled()})
out["orbits"] = sorted({(type(reps).__name__, reps.itemsize) for c in tabled()
                        for name in ("_forest_orbits", "_proper_orbits")
                        if (reps := vars(c).get(name)) is not None})
# a missing guard would ask for 2^29 slots; fail fast instead of paging
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    canonical_entry(cycle(29))[0].subset_orbits(forests_only=False)
except ValueError as exc:
    out["error"] = str(exc)
print(json.dumps(out))
"""


def test_orbit_slots_are_dense_four_byte_tables():
    """In a fresh interpreter, so that no earlier build has given a class
    a table: genus raising and the simplicial and ribbon kinds make no
    subset-orbit table and no edge-action closure; an odd cube build gives
    no table to a class whose odd generators all vanish; a cube build's
    tables have one 4-byte slot per edge subset, and its representatives
    are arrays of 4-byte masks; and a class with more edges than a slot
    encodes is refused with a ValueError before its table is allocated."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", SLOTS], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["tables_without_cubes"] == 0
    assert out["closures_without_cubes"] == 0
    assert out["odd_kernel_tables"] == 0
    assert out["tables"] > 0 and out["slots"] == [[4, True]]
    assert out["orbits"] == [["array", 4]]
    assert "at most 28 edges" in out["error"] and "29" in out["error"]


def test_subset_walks_past_the_slot_table_are_refused(monkeypatch):
    """A cube spec or spine whose graphs can have more edges than a slot
    encodes, min(3g - 3, max_edges), could only fail after its enumeration,
    so it is refused with InfeasibleEnumeration before any; a spec within
    the limit is accepted (and not built here)."""
    assert SLOT_EDGES == 28
    ComplexSpec("gf", "even", 11, max_edges=28)
    ComplexSpec("gp", "odd", 10)  # 27 edges
    ComplexSpec("com_tad", "even", 11)  # no subset walk

    def enumerate_graphs(spec):
        raise AssertionError(f"enumerated {spec}")

    monkeypatch.setattr(moduli, "enumerate_graphs", enumerate_graphs)
    for refused in (lambda: ComplexSpec("gp", "even", 11),
                    lambda: ComplexSpec("gf", "odd", 11, max_edges=29),
                    lambda: moduli.build_spine(11)):
        with pytest.raises(InfeasibleEnumeration, match="at most 28"):
            refused()
