"""The subset orbit tables of the cube-pair complexes against the oracle.

A context keeps, for every edge subset T it has met, the representative R
of its orbit under Aut (the lexicographically least image of T), the
order of the stabilizer of T (read off the orbit size), the even and odd
vanishing verdicts of the orbit, and the parity in subset order and the
sign on det H_1 of the element of its orbit walk that carries T onto R.
Here R is recomputed from the edge permutations of
:func:`gch.oracle.half_edge_automorphisms`, which finds every automorphism
by search; the stabilizer order is the number of those automorphisms that
map T onto itself; a verdict is whether one of them has sign -1 on the
generator (:func:`gch.oracle.automorphism_sign`; for odd parity times the
automorphism's H_1 sign, a cycle-basis determinant).  The aligning sign is defined only where the
generator survives: there it must equal the sign of every element of the
edge-action closure (:func:`gch.oracle.edge_action_closure`) that carries
T onto R.  Each closure element also carries a sign on det H_1: unless an
automorphism fixing every edge reverses H_1 (``kernel_odd``, which the
oracle decides too), it must be the cycle-basis sign of every
automorphism with that edge permutation; if one does, every odd cube must
vanish.  The graphs are every graph of genus 1 to 3 with at most six
edges (bivalent vertices and tadpoles allowed), the cube-pair family up
to genus 3, and its genus-4 graphs with at most eight edges.  Each is
checked in a fresh class object, made outside the registry so that no
earlier build has filled its tables, which walks the orbits first.  A
direct lookup that misses, at a subset that is not its orbit's
representative, walks every proper-subset orbit; it is checked on the
theta and the wheel with four spokes.  The forests come from
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
from gch.complexes import ComplexSpec
from gch.context import SLOT_EDGES, GraphContext, canonical_entry
from gch.families import theta, wheel
from gch.generate import EnumSpec, InfeasibleEnumeration, enumerate_graphs
from gch.oracle import automorphism_sign, edge_action_closure, forests, half_edge_automorphisms

from forms import automorphisms
from masks import mask_of


def _forms():
    specs = [EnumSpec(genus=g, min_valence=2, allow_tadpoles=True, max_edges=6) for g in (1, 2, 3)]
    specs += [EnumSpec(genus=g, min_valence=3, allow_tadpoles=True) for g in (2, 3)]
    specs.append(EnumSpec(genus=4, min_valence=3, allow_tadpoles=True, max_edges=8))
    return list({f.certificate: f for spec in specs for f in enumerate_graphs(spec)}.values())


def _fresh(form) -> GraphContext:
    return GraphContext(form.certificate, form.graph, form.ribbon, form.generators, form.aut_order)


class Reference:
    """What the oracle says of every edge subset of a class: its
    representative, stabilizer order and (even, odd) verdicts, and the
    closure elements with their H_1 signs."""

    def __init__(self, form):
        g = form.graph
        autos = half_edge_automorphisms(g)
        self.certificate = form.certificate
        self.subsets = [s for size in range(g.edge_count + 1)
                        for s in itertools.combinations(range(g.edge_count), size)]
        self.rep = {s: min(tuple(sorted(aut.edges[e] for e in s)) for aut in autos)
                    for s in self.subsets}
        self.stabilizer, self.vanishes = {}, {}
        for s in self.subsets:
            # (even, odd) sign of each automorphism mapping s onto itself
            signs = [(even, even * aut.h1) for aut in autos
                     if (even := automorphism_sign(aut, s, False)) is not None]
            self.stabilizer[s] = len(signs)
            self.vanishes[s] = tuple(any(sign[odd] == -1 for sign in signs) for odd in (0, 1))
        # the cycle-basis sign on det H_1 of each automorphism, by edge
        # permutation: the odd sign on all edges times the even one
        every = tuple(range(g.edge_count))
        self.h1_signs = {}
        for aut in autos:
            self.h1_signs.setdefault(aut.edges, set()).add(
                automorphism_sign(aut, every, True) * automorphism_sign(aut, every, False))
        self.kernel_odd = -1 in self.h1_signs[every]
        ctx = _fresh(form)
        self.closure = edge_action_closure(
            g.edge_count, [(m.edge_action, ctx.aut_h1(m.half_edge_map)) for m in automorphisms(ctx)])
        self.forests = set(forests(g))

    def aligning_signs(self, s, odd: bool) -> set[int]:
        """The signs of the closure elements carrying s onto its
        representative: the parity of each on s in subset order, times for
        odd parity its sign on det H_1."""
        signs = set()
        for p, h1 in self.closure:
            images = [p[e] for e in s]
            if tuple(sorted(images)) == self.rep[s]:
                inversions = sum(a > b for a, b in itertools.combinations(images, 2))
                signs.add((-1 if inversions % 2 else 1) * (h1 if odd else 1))
        return signs


def _check_closure(ref: Reference, ctx: GraphContext) -> None:
    """The closure is the group of the oracle's edge permutations, the
    engine's ``kernel_odd`` is the oracle's, and without it each closure
    element's H_1 sign is the cycle-basis sign of its automorphisms."""
    assert {p for p, _ in ref.closure} == set(ref.h1_signs), ref.certificate
    assert ctx.kernel_odd == ref.kernel_odd, ref.certificate
    if not ref.kernel_odd:
        for p, sign in ref.closure:
            assert ref.h1_signs[p] == {sign}, (ref.certificate, p)


def _check_tables(ref: Reference, ctx: GraphContext, order) -> None:
    """Every subset of ``order``, looked up in that order, has the
    oracle's representative, stabilizer order and both verdicts, and where
    it survives for a parity its aligning sign is the sign of every
    closure element carrying it onto its representative."""
    for s in order:
        mask = mask_of(ctx, s)
        rep = ctx._align(mask, False)[0]
        assert ctx.subset_of(rep) == ref.rep[s], (ref.certificate, s)
        assert ctx.stabilizer_order(mask) == ref.stabilizer[s], (ref.certificate, s)
        for odd, parity in ((False, "even"), (True, "odd")):
            assert bool(ctx.witness(parity, mask)) == ref.vanishes[s][odd], (ref.certificate, s)
            if not ref.vanishes[s][odd]:
                signs = ref.aligning_signs(s, odd)
                assert signs == {ctx._align(mask, odd)[1]}, (ref.certificate, s, parity, signs)


def _check_graph(form) -> int:
    ref = Reference(form)
    walked_first = _fresh(form)
    _check_closure(ref, walked_first)
    g = form.graph
    for forests_only, expected_total in ((True, len(ref.forests)), (False, 2 ** g.edge_count - 1)):
        reps = [walked_first.subset_of(mask) for mask in walked_first.subset_orbits(forests_only)]
        members = [s for s in ref.subsets
                   if (s in ref.forests if forests_only else len(s) < g.edge_count)]
        assert reps == sorted({ref.rep[s] for s in members}, key=lambda s: (len(s), s))
        assert sum(walked_first.aut_order // walked_first.stabilizer_order(mask_of(walked_first, r))
                   for r in reps) == expected_total
    _check_tables(ref, walked_first, ref.subsets)
    return len(ref.subsets)


def test_orbit_tables_match_oracle():
    forms = _forms()
    assert any(f.graph.edge_count == 8 for f in forms)
    assert sum(_check_graph(form) for form in forms) > 10000


@pytest.mark.parametrize("graph", [theta, lambda: wheel(4)], ids=["theta", "wheel4"])
def test_first_lookup_off_representative_walks_every_orbit(graph):
    """A fresh class looked up first at a proper subset that is not its
    orbit's representative misses in ``GraphContext._slot``.  The slot
    that the lookup returns holds the oracle's representative and, for
    each parity where the cube survives, the oracle's aligning sign; the
    miss has walked every proper-subset orbit, whose slots are then the
    oracle's too."""
    form = canonical_entry(graph())[0]
    ref = Reference(form)
    ctx = _fresh(form)
    s = next(s for s in ref.subsets
             if ref.rep[s] != s and len(s) < form.graph.edge_count and not ref.vanishes[s][0])
    slot = ctx._slot(mask_of(ctx, s))
    assert slot >> 3 == mask_of(ctx, ref.rep[s])
    even = -1 if slot & 2 else 1
    for odd, sign in ((False, even), (True, -even if slot & 4 else even)):
        if not ref.vanishes[s][odd]:
            assert ref.aligning_signs(s, odd) == {sign}, (s, odd)
    assert all(ctx._orbit[mask] for mask in range(ctx.full_mask))
    _check_tables(ref, ctx, ref.subsets)


@pytest.mark.parametrize("graph", [theta, lambda: wheel(4)], ids=["theta", "wheel4"])
def test_orbit_table_check_has_teeth(graph):
    """A table with one member's parity bit flipped in an orbit that
    survives for even parity, or with one representative's even verdict
    bit flipped, fails the check that the untouched table passes."""
    form = canonical_entry(graph())[0]
    ref = Reference(form)
    ctx = _fresh(form)
    _check_tables(ref, ctx, ref.subsets)
    members = [s for s in ref.subsets
               if not ref.vanishes[s][0] and ref.rep[s] != s and len(s) < form.graph.edge_count]
    reps = [s for s in ref.subsets if ref.rep[s] == s and len(s) < form.graph.edge_count]
    assert members and reps
    for s, bit in ((members[0], 2), (reps[0], 2)):
        tampered = _fresh(form)
        _check_tables(ref, tampered, ref.subsets)
        tampered._orbit[mask_of(tampered, s)] ^= bit
        with pytest.raises(AssertionError):
            _check_tables(ref, tampered, ref.subsets)


SLOTS = r"""
import json, resource
from gch.complexes import ComplexSpec, build_complex
from gch.context import _CLASSES, canonical_entry
from gch.families import cycle
from gch.generate import _trivalent

def tabled():
    return [c for c in _CLASSES.values() if "_orbit" in vars(c)]

def stepped():
    return [c for c in _CLASSES.values() if "_steps" in vars(c)]

out = {}
_trivalent(5)
build_complex(ComplexSpec("com", "odd", 4))
build_complex(ComplexSpec("ass", "even", 3))
out["tables_without_cubes"] = len(tabled()) + len(stepped())
build_complex(ComplexSpec("gp", "odd", 3))
out["odd_kernel_tables"] = sum(c.kernel_odd for c in tabled())
build_complex(ComplexSpec("gf", "even", 3))
build_complex(ComplexSpec("gp", "even", 4))
out["tables"] = len(tabled())
out["steps_without_table"] = len(set(map(id, stepped())) - set(map(id, tabled())))
out["closures"] = sum(hasattr(c, "closure") for c in _CLASSES.values())
out["slots"] = sorted({(c._orbit.itemsize, len(c._orbit) == 2 ** c.graph.edge_count)
                       for c in tabled()})
out["orbits"] = sorted({(type(reps).__name__, reps.itemsize) for c in tabled()
                        for name in ("_forest_orbits", "_proper_orbits")
                        if (reps := vars(c).get(name)) is not None})
# entries of a generator's walk tables per 2^ceil(E/2)
out["step_entries"] = max(sum(map(len, step[:3])) / 2 ** ((c.graph.edge_count + 1) // 2)
                          for c in stepped() for step in c._steps)
out["widest"] = max(c.graph.edge_count for c in stepped())
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
    subset-orbit table and no walk tables; an odd cube build gives no
    table to a class whose odd generators all vanish; only a class whose
    orbits a cube build walked holds walk tables, and no class has an
    edge-action closure; a cube build's tables have one 4-byte slot per
    edge subset, its representatives are arrays of 4-byte masks, and each
    generator's walk tables hold at most 4 * 2^ceil(E/2) entries, so none
    is as long as the slot table of a 9-edge class; and a class with more
    edges than a slot encodes is refused with a ValueError before its
    table is allocated."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", SLOTS], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["tables_without_cubes"] == 0
    assert out["odd_kernel_tables"] == 0
    assert out["tables"] > 0 and out["slots"] == [[4, True]]
    assert out["steps_without_table"] == 0 and out["closures"] == 0
    assert out["orbits"] == [["array", 4]]
    assert 0 < out["step_entries"] <= 4 and out["widest"] == 9
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


REPRESENTATIVE_STARTS = r"""
import json
from gch import context, generate, moduli
from gch.complexes import ComplexSpec, build_complex
from gch.context import GraphContext

fill, starts = GraphContext._fill_orbit, []

def recording(self, start):
    fill(self, start)
    starts.append(self._orbit[start] & 1)

GraphContext._fill_orbit = recording
enumerate_graphs = moduli.enumerate_graphs
moduli.enumerate_graphs = lambda spec: enumerate_graphs(spec)[::-1]
reversed_spine = moduli.build_spine(4).entries
moduli.enumerate_graphs = enumerate_graphs
for cache in (context._CERT_CACHE, context._CLASSES, generate._ENUM_CACHE):
    cache.clear()
spine = moduli.build_spine(4).entries
for kind in ("gf", "gp"):
    for parity in ("even", "odd"):
        build_complex(ComplexSpec(kind, parity, 4))
print(json.dumps({"same": reversed_spine == spine, "cubes": len(spine),
                  "fills": len(starts), "off_representative": starts.count(0)}))
"""


def test_every_orbit_is_walked_from_its_representative():
    """In a fresh interpreter: the genus-4 spine built over its classes in
    reverse order, so that a collapse lands on a class whose turn has not
    come (the order of certificates from genus 6 on), equals the spine
    built in order, entry by entry; and across both spines and the
    genus-4 ``gf`` and ``gp`` builds in both parities, every orbit walk
    leaves its start marked as its orbit's representative."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", REPRESENTATIVE_STARTS], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["same"] and out["cubes"] > 0, out
    assert out["fills"] > 0 and out["off_representative"] == 0, out
