import collections
import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gch import context, generate
from gch.context import _CERT_CACHE, _CLASSES, GraphContext, canonical_entry
from gch.families import banana, cycle, dumbbell, rose, theta, triangle_with_doubled_edge
from gch.generate import EnumSpec, InfeasibleEnumeration, enumerate_graphs
from gch.graph import _PAIRS, HalfEdgeGraph
from gch.oracle import (Morphism, compose, contract, contract_ribbon, forests, genus, is_stable,
                        mass_table, pairing_classes, ribbon_structures)
from gch.ribbon import RibbonStructure, surface_invariants

from forms import automorphisms, canonical_form
from masks import mask_of

# certificate lists of the degree-sequence enumerator that generation by
# moves replaced; see the "about" field
FIXTURE = json.loads(
    (Path(__file__).parent / "fixtures" / "enumeration_certificates.json").read_text())


def test_genus2_trivalent_is_theta():
    forms = enumerate_graphs(EnumSpec(genus=2))
    assert len(forms) == 1
    assert forms[0].certificate == canonical_form(theta()).certificate


def test_genus1_trivalent_is_empty():
    assert enumerate_graphs(EnumSpec(genus=1)) == []


def test_weighted_genus2_has_six_classes():
    forms = enumerate_graphs(EnumSpec(genus=2, weighted=True, allow_tadpoles=True, min_edges=1))
    assert len(forms) == 6
    certs = {f.certificate for f in forms}
    expected = [
        theta(),
        dumbbell(),
        rose(2),
        HalfEdgeGraph.build(1, [(0, 0)], weights=(1,)),
        HalfEdgeGraph.build(2, [(0, 0), (0, 1)], weights=(0, 1)),
        HalfEdgeGraph.build(2, [(0, 1)], weights=(1, 1)),
    ]
    assert certs == {canonical_form(g).certificate for g in expected}


def test_unbounded_bivalent_request_rejected():
    with pytest.raises(InfeasibleEnumeration):
        enumerate_graphs(EnumSpec(genus=1, min_valence=2))


@pytest.mark.parametrize("bounds", [dict(max_edges=-1), dict(min_edges=-1)])
def test_negative_edge_bounds_rejected(bounds):
    with pytest.raises(ValueError, match="non-negative"):
        EnumSpec(genus=2, **bounds)
    assert enumerate_graphs(EnumSpec(genus=2, max_edges=0)) == []


def test_weighted_family_rejects_min_valence_2():
    """A weighted family is the stable graphs; valence 2 is no bound on it."""
    with pytest.raises(ValueError, match="min_valence"):
        EnumSpec(genus=2, weighted=True, allow_tadpoles=True, min_valence=2)


def test_weighted_family_rejects_genus_0():
    """The weighted genus floor is checked when the spec is made, before
    any enumeration."""
    with pytest.raises(ValueError, match="weighted enumeration needs genus >= 1"):
        EnumSpec(genus=0, weighted=True)


def test_genus1_bivalent_graphs_are_cycles():
    forms = enumerate_graphs(EnumSpec(genus=1, min_valence=2, max_edges=7))
    assert sorted(f.graph.edge_count for f in forms) == list(range(2, 8))
    certs = {f.certificate for f in forms}
    assert certs == {canonical_form(cycle(n)).certificate for n in range(2, 8)}
    with_tad = enumerate_graphs(
        EnumSpec(genus=1, min_valence=2, allow_tadpoles=True, max_edges=7))
    assert {f.certificate for f in with_tad} == certs | {canonical_form(cycle(1)).certificate}


@pytest.mark.parametrize("genus,min_val,tad", [
    (2, 3, False), (2, 3, True), (3, 3, False), (2, 2, False), (2, 2, True),
])
def test_enumeration_matches_naive_pairing_oracle(genus, min_val, tad):
    spec = EnumSpec(genus=genus, min_valence=min_val, allow_tadpoles=tad, max_edges=6)
    forms = enumerate_graphs(spec)
    by_ve = {}
    for f in forms:
        key = (f.graph.vertex_count, f.graph.edge_count)
        by_ve[key] = by_ve.get(key, 0) + 1
    v = 1
    while True:
        e = v + genus - 1
        if e > 6:
            break
        if e >= 1:
            expected = len(pairing_classes(v, e, min_val, tad))
            assert by_ve.get((v, e), 0) == expected, (v, e)
        v += 1


@pytest.mark.parametrize("case", FIXTURE["cases"], ids=lambda case: ",".join(
    f"{k}={v}" for k, v in sorted(case["spec"].items())))
def test_enumeration_reproduces_degree_sequence_certificates(case):
    forms = enumerate_graphs(EnumSpec(**case["spec"]))
    assert [f.certificate for f in forms] == case["certificates"]


def test_outputs_satisfy_filters_and_are_unique():
    for spec in [
        EnumSpec(genus=3),
        EnumSpec(genus=2, min_valence=2, allow_tadpoles=True, max_edges=6),
        EnumSpec(genus=3, weighted=True, allow_tadpoles=True, min_edges=1),
    ]:
        forms = enumerate_graphs(spec)
        certs = [f.certificate for f in forms]
        assert certs == sorted(certs)
        assert len(set(certs)) == len(certs)
        for f in forms:
            g = f.graph
            assert g.is_connected
            assert genus(g) == spec.genus
            if spec.weighted:
                assert is_stable(g)
            else:
                assert not any(g.weights)
                assert all(len(at) >= spec.min_valence for at in g.half_edges_at)
                if not spec.allow_tadpoles:
                    assert not g.has_tadpole
            if spec.min_valence >= 3 and not spec.weighted:
                assert g.edge_count <= 3 * spec.genus - 3
                assert g.vertex_count <= 2 * spec.genus - 2


@pytest.mark.parametrize("spec", [
    EnumSpec(genus=3),
    EnumSpec(genus=3, allow_tadpoles=True),
    EnumSpec(genus=2, min_valence=2, allow_tadpoles=True, max_edges=6),
    EnumSpec(genus=3, weighted=True, allow_tadpoles=True, min_edges=1),
    EnumSpec(genus=3, ribbon=True),
])
def test_enumerated_forms_pin_no_labelled_graph(spec):
    """Enumeration hands out the registry's one object per class, which
    holds no morphism and whose automorphisms, half-edge maps of ints, act
    on its own canonical graph, so it pins no labelled graph that reached
    the class."""
    for ctx in enumerate_graphs(spec):
        assert ctx is _CLASSES[ctx.certificate]
        assert not any(isinstance(value, Morphism) for value in vars(ctx).values())
        assert all(type(h) is int for hmap in ctx.generators for h in hmap)
        assert all(m.source is ctx.graph for m in automorphisms(ctx))


def test_forests_of_theta():
    assert forests(theta()) == [(), (0,), (1,), (2,)]


def test_forests_of_rose_and_spanning_trees():
    assert forests(rose(2)) == [()]
    g = triangle_with_doubled_edge()
    spanning = [s for s in forests(g) if len(s) == g.vertex_count - 1]
    assert len(spanning) == 5


def _subset_orbit_sizes(g):
    """Sizes of the orbits of proper edge subsets, by catalog representative."""
    ctx = canonical_entry(g)[0]
    reps = ctx.subset_orbits(forests_only=False)
    sizes = dict.fromkeys(reps, 0)
    for size in range(ctx.graph.edge_count):
        for subset in itertools.combinations(range(ctx.graph.edge_count), size):
            sizes[ctx._align(mask_of(ctx, subset), False)[0]] += 1
    assert len(sizes) == len(reps)
    return sorted(sizes.values())


def test_subgraph_pairs_theta():
    sizes = _subset_orbit_sizes(theta())
    assert sum(sizes) == 7
    assert len(sizes) == 3


def test_subgraph_pairs_small():
    assert _subset_orbit_sizes(banana(1)) == [1]
    sizes = _subset_orbit_sizes(rose(2))
    assert sum(sizes) == 3
    assert len(sizes) == 2


def _ribbon_classes(genus, edges):
    """The engine's ribbon classes of the genus, with tadpoles, on the
    canonical graph with these edges."""
    spec = EnumSpec(genus=genus, allow_tadpoles=True, ribbon=True)
    return [ctx for ctx in enumerate_graphs(spec) if ctx.graph.edges == edges]


def test_ribbon_structures_theta():
    ribs = ribbon_structures(theta())
    assert len(ribs) == 2
    invs = {surface_invariants(theta(), RibbonStructure(theta(), r)) for r in ribs}
    assert invs == {(0, 3), (1, 1)}
    assert len(_ribbon_classes(2, theta().edges)) == 2


def test_ribbon_structures_single_edge_and_rose():
    """The oracle's orbits of Aut on the cyclic orders: one on the single
    edge, and on rose(2), of the 3! orders of its four half-edges, the
    planar one and the interleaved one, as many as the engine's classes."""
    assert ribbon_structures(banana(1)) == [((0,), (1,))]
    ribs = ribbon_structures(rose(2))
    assert ribs == [((0, 1, 2, 3),), ((0, 2, 1, 3),)]
    assert len(_ribbon_classes(2, rose(2).edges)) == len(ribs)


# the ``gch enumerate`` flag sets with ``--ribbon`` (weighted sets min_edges 1)
RIBBON_FAMILIES = {
    "ribbon": dict(),
    "ribbon-tadpoles": dict(allow_tadpoles=True),
    "bivalent-ribbon": dict(min_valence=2, max_edges=6),
    "weighted-tadpoles-ribbon": dict(weighted=True, allow_tadpoles=True, min_edges=1),
    "weighted-tadpoles-edgeless-ribbon": dict(weighted=True, allow_tadpoles=True, min_edges=0),
}

# (family, genus, max_edges); the edgeless family adds only the one-vertex
# ribbon graph without half-edges to the family above it, so genus 2 and 3
# suffice for it
RIBBON_CASES = [(family, genus, bound) for family in sorted(RIBBON_FAMILIES)
                for genus, bound in [(1, None), (2, None), (3, None), (4, 5), (4, 7)]
                if "edgeless" not in family or genus in (2, 3)]


def _ribbon_rows(forms):
    return [(f.certificate, f.graph, f.ribbon.cycles) for f in forms]


@pytest.mark.parametrize("family,genus,bound", RIBBON_CASES)
def test_ribbon_closure_matches_product_oracle(family, genus, bound):
    """The ribbon closure equals every cyclic-order product of every plain
    graph of the family, one per ribbon class."""
    params = dict(RIBBON_FAMILIES[family])
    if bound is not None:
        params["max_edges"] = bound
    spec = EnumSpec(genus=genus, ribbon=True, **params)
    plain = enumerate_graphs(dataclasses.replace(spec, ribbon=False))
    oracle = sorted((canonical_form(f.graph, ribbon=RibbonStructure(f.graph, cycles))
                     for f in plain for cycles in ribbon_structures(f.graph)),
                    key=lambda f: f.certificate)
    assert _ribbon_rows(enumerate_graphs(spec)) == _ribbon_rows(oracle)


def ribbon_list_sha256(forms):
    """sha256 of the JSON list of [certificate, vertex count, weights,
    edges, cycles], one entry per form in order."""
    rows = [[f.certificate, f.graph.vertex_count, list(f.graph.weights),
             [list(e) for e in f.graph.edges], [list(c) for c in f.ribbon.cycles]]
            for f in forms]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_ribbon_genus5_matches_pinned_list():
    """The genus-5 ribbon graphs of valence >= 3 without tadpoles, pinned
    from the cyclic-order product enumerator."""
    pinned = json.loads((Path(__file__).parent / "fixtures" / "ribbon_genus5.json").read_text())
    forms = enumerate_graphs(EnumSpec(genus=5, ribbon=True))
    assert len(forms) == pinned["count"]
    assert ribbon_list_sha256(forms) == pinned["sha256"]


@pytest.mark.parametrize("spec,count,sha256", [
    (EnumSpec(genus=5, allow_tadpoles=True), 1076,
     "a151323a93efa594163293cc37a6c157be17db6b01486cffeb9c2484838cf45a"),
    (EnumSpec(genus=5, weighted=True, allow_tadpoles=True, min_edges=1), 4554,
     "6cbbb5697da0fea5fdbf84729a94b321683b79f8466d5a31a279247699a811ce"),
])
def test_genus5_certificates_match_pinned_hash(spec, count, sha256):
    """The genus-5 certificates, one per line in order, pinned from the
    labelling that built each class from a validated labelled graph."""
    forms = enumerate_graphs(spec)
    assert len(forms) == count
    assert hashlib.sha256("".join(f.certificate + "\n" for f in forms).encode()).hexdigest() == sha256


def test_trivalent_loopless_class_counts():
    """Connected cubic multigraphs on 2, 4, 6, 8 vertices: 1, 2, 6, 20 without
    loops (OEIS A000421), 2, 5, 17, 71 with loops allowed (OEIS A005967)."""
    for tadpoles, counts in ((False, (1, 2, 6, 20)), (True, (2, 5, 17, 71))):
        for genus, expected in zip((2, 3, 4, 5), counts):
            forms = enumerate_graphs(EnumSpec(genus=genus, min_valence=3, allow_tadpoles=tadpoles,
                                              min_edges=3 * genus - 3))
            assert len(forms) == expected
            assert all(len(at) == 3 for f in forms for at in f.graph.half_edges_at)


def test_banana_counts_match_oracle():
    # every 2-vertex class with e parallel edges is a single banana class
    forms = enumerate_graphs(EnumSpec(genus=3, min_valence=3, max_edges=6))
    two_vertex = [f for f in forms if f.graph.vertex_count == 2]
    assert len(two_vertex) == 1
    assert two_vertex[0].certificate == canonical_form(banana(4)).certificate


def _is_automorphism(graph, ribbon, sigma):
    """Whether a half-edge map is an automorphism of the (ribbon) graph:
    a bijection that commutes with the edge involution, carries the
    half-edges at a vertex onto those at one vertex of the same weight,
    and for a ribbon graph commutes with the cyclic orders."""
    if sorted(sigma) != list(range(graph.half_edge_count)):
        return False
    vertex_map = {}
    for h, image in enumerate(sigma):
        u, x = graph.iota(h), graph.iota(image)
        if sigma[h ^ 1] != image ^ 1 or vertex_map.setdefault(u, x) != x:
            return False
        if graph.weights[u] != graph.weights[x]:
            return False
    if len(set(vertex_map.values())) != len(vertex_map):
        return False
    nxt = None if ribbon is None else ribbon.next_map
    return nxt is None or all(nxt[sigma[h]] == sigma[nxt[h]] for h in range(len(sigma)))


def _direct_collapse(form, e: int):
    """(certificate, half-edge map) of the oracle's contraction of edge e
    of the class, composed with the canonical form's isomorphism onto its
    class: a ribbon graph's two orders joined by ``contract_ribbon``, or a
    ribbon tadpole's two half-edges dropped from its vertex's order."""
    g, ribbon = form.graph, form.ribbon
    if ribbon is None:
        contracted, m = contract(g, e)
        direct = canonical_form(contracted)
    else:
        if g.is_tadpole(e):
            contracted, m = contract(g, e)
            cycles = tuple(tuple(m.half_edge_map[h] for h in cyc if h >> 1 != e)
                           for cyc in ribbon.cycles)
        else:
            contracted, cycles, m = contract_ribbon(g, ribbon.cycles, e)
        direct = canonical_form(contracted, ribbon=RibbonStructure(contracted, cycles))
    return direct.certificate, compose(direct.iso, m).half_edge_map


def _differs_by_automorphism(target, composite, recorded) -> bool:
    """Whether the recorded half-edge map onto the target class is the
    direct composite followed by an automorphism of the target."""
    sigma = [0] * (len(recorded) - 2)
    for h, image in zip(composite, recorded):
        if h is not None:
            sigma[h] = image
    return _is_automorphism(target.graph, target.ribbon, sigma)


def test_recorded_collapses_match_direct_contraction(monkeypatch):
    """In a fresh registry, so that the closures here record every
    collapse: each lands on the class of a direct contraction, and its
    half-edge map is the direct composite onto the canonical target, or,
    for an edge whose record came through an automorphism of the source
    or through a square (``GraphContext._square``), differs from it by an
    automorphism of the target.  Both shortcuts must fire: a closure that
    stops reading squares, or one that stops pruning orbits, falls short
    of the bounds."""
    monkeypatch.setattr(context, "_CERT_CACHE", {})
    monkeypatch.setattr(context, "_CLASSES", {})
    monkeypatch.setattr(generate, "_ENUM_CACHE", {})
    square, squares = GraphContext._square, collections.Counter()

    def counting(self, e):
        hit = square(self, e)
        if hit is not None:
            squares["plain" if self.ribbon is None else "ribbon"] += 1
        return hit

    monkeypatch.setattr(GraphContext, "_square", counting)
    specs = [EnumSpec(genus=g, min_valence=3, allow_tadpoles=True) for g in (2, 3, 4)]
    specs += [EnumSpec(genus=g, weighted=True, allow_tadpoles=True, min_edges=1) for g in (2, 3, 4)]
    specs += [EnumSpec(genus=g, min_valence=3, ribbon=True) for g in (2, 3, 4)]
    specs += [EnumSpec(genus=g, weighted=True, allow_tadpoles=True, ribbon=True) for g in (2, 3)]
    checked = derived = 0
    for form in (f for spec in specs for f in enumerate_graphs(spec)):
        for e, (target, recorded) in form.collapses.items():
            certificate, composite = _direct_collapse(form, e)
            assert target.certificate == certificate, (form.certificate, e)
            assert [h for h, x in enumerate(recorded) if x is None] == [2 * e, 2 * e + 1]
            assert _differs_by_automorphism(target, composite, recorded), (form.certificate, e)
            derived += tuple(recorded) != composite
            checked += 1
    assert checked > 4000 and derived > 100, (checked, derived)
    assert squares["plain"] > 1000 and squares["ribbon"] > 500, squares


def test_ribbon_square_needs_three_endpoints():
    """Why a ribbon class reads a collapse off a square only when its two
    edges have three distinct endpoints.  On the weighted ribbon family of
    genus 3, every square is composed by hand from recorded collapses: for
    each class G and recorded collapses G/d (map a onto D) and G/f (map b),
    where G/f has recorded the collapse of b(d) (target T, map c), the
    collapse of a(f) on D would be (T, c b a^-1).  Every such square on
    three or more endpoints is the direct contraction, and some square
    across a loop or a digon is not."""
    spec = EnumSpec(genus=3, weighted=True, allow_tadpoles=True, ribbon=True)
    agree = disagree = 0
    for source in enumerate_graphs(spec):
        for d, (reached, a) in source.collapses.items():
            inverse = [0] * (len(a) - 2)
            for h, image in enumerate(a):
                if image is not None:
                    inverse[image] = h
            for f, (side, b) in source.collapses.items():
                far = side.collapses.get(b[2 * d] >> 1) if f != d else None
                if far is None:
                    continue
                target, c = far
                composed = tuple(None if b[h] is None else c[b[h]] for h in inverse)
                e = a[2 * f] >> 1
                certificate, composite = _direct_collapse(reached, e)
                same = (target.certificate == certificate
                        and _differs_by_automorphism(target, composite, composed))
                if len({*source.graph.edges[d], *source.graph.edges[f]}) >= 3:
                    assert same, (source.certificate, d, f)
                    agree += 1
                else:
                    disagree += not same
    assert agree > 500 and disagree > 0, (agree, disagree)


WORK_COUNTER = """
import collections, json
import gch.canonical as canonical
import gch.context as context
from gch import ComplexSpec, EnumSpec, build_cell_poset, build_complex, enumerate_graphs
from gch.graph import HalfEdgeGraph

plain = context.canonical_labelling
canonicalized = []
context.canonical_labelling = lambda *g: canonicalized.append(g) or plain(*g)
ribbon = context.ribbon_labelling
spliced = []
context.ribbon_labelling = lambda *g: spliced.append(g) or ribbon(*g)
labeling = canonical._canonical_labeling
searches = []
canonical._canonical_labeling = lambda *g: searches.append(g) or labeling(*g)
contraction = HalfEdgeGraph.contraction
contracted = collections.Counter()

def counting_contraction(g, e):
    contracted[g.vertex_count, g.weights, g.edges, e] += 1
    return contraction(g, e)

HalfEdgeGraph.contraction = counting_contraction
enumerate_graphs(EnumSpec(genus=4, weighted=True, allow_tadpoles=True, min_edges=1))
closure = len(canonicalized)
build_complex(ComplexSpec("cellular_MG", "even", 4))
build_cell_poset(4)
counts = {"closure": closure, "contractions": sum(contracted.values()),
          "repeated": sum(1 for n in contracted.values() if n > 1),
          "canonicalized": len(canonicalized), "searches": len(searches)}
# the ass closure last: its ribbon classes share underlying graphs, so
# their contractions would repeat the plain (graph, edge) keys above
counts["ribbon_classes"] = len(enumerate_graphs(EnumSpec(genus=4, ribbon=True)))
counts["spliced"] = len(spliced)
print(json.dumps(counts))
"""


MOVE_COUNTER = """
import json
import gch.graph as graph
from gch.context import _CLASSES
from gch.generate import EnumSpec, enumerate_graphs

walks, built = [], []
reached = graph._reached
graph._reached = lambda n, edges: walks.append(n) or reached(n, edges)
post_init = graph.HalfEdgeGraph.__post_init__
graph.HalfEdgeGraph.__post_init__ = lambda g: built.append(g.vertex_count) or post_init(g)
specs = [EnumSpec(genus=4, weighted=True, allow_tadpoles=True), EnumSpec(genus=4, ribbon=True),
         EnumSpec(genus=2, min_valence=2, allow_tadpoles=True, max_edges=6)]
for spec in specs:
    enumerate_graphs(spec)
print(json.dumps({"walks": len(walks), "built": len(built), "classes": len(_CLASSES),
                  "specs": len(specs)}))
"""


def test_moves_walk_no_connectivity_and_build_only_new_classes():
    """In a fresh interpreter: enumerating a weighted, a ribbon and a
    bivalent family, whose moves are contraction, genus raising and
    subdivision, never walks a graph for connectivity, and builds one
    graph per class met and the theta and dumbbell seeds of each family,
    none for a move onto a class already known."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    result = subprocess.run([sys.executable, "-c", MOVE_COUNTER], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert counts["walks"] == 0, counts
    assert counts["built"] == counts["classes"] + 2 * counts["specs"], counts


def test_certificate_cache_pins_no_pairs_of_its_own():
    """Every edge pair of every key of the certificate cache is the shared
    tuple of ``graph._PAIRS``, though the moves pass their pairs as tuples
    that no graph has interned."""
    enumerate_graphs(EnumSpec(genus=4, weighted=True, allow_tadpoles=True))
    assert _CERT_CACHE
    assert all(_PAIRS[pair] is pair for key in _CERT_CACHE for pair in key[1])


def test_each_class_edge_is_contracted_once():
    """In a fresh interpreter, so that no earlier test has warmed a cache:
    enumerating the weighted genus-4 family, building even cellular_MG on
    it and then the cell poset contract no (class, edge) twice, and the
    closure canonicalizes at most 452 labelled graphs.  That is each
    class once, where genus raising or a contraction first meets it, plus
    the genus-raising repeats and the contractions that no square gives
    (``GraphContext._square``), because closure order has not yet recorded
    the square's other side.  Each plain labelled graph is searched once,
    to canonicalize it: no class is searched again for its automorphism
    group.  Then the ``ass`` genus-4 closure, 268 ribbon classes, labels
    at most 366 spliced ribbon graphs (``context.ribbon_labelling``, one
    per ribbon contraction that no square gives); with no squares it
    labels 826."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    result = subprocess.run([sys.executable, "-c", WORK_COUNTER], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout)
    assert counts["contractions"] > 0 and counts["repeated"] == 0, counts
    assert counts["closure"] <= 452, counts
    assert counts["searches"] == counts["canonicalized"], counts
    assert counts["ribbon_classes"] == 268 and counts["spliced"] <= 366, counts


def _masses(classes):
    """Sum of 1/order per degree type of (degree type, Aut order) pairs."""
    out = {}
    for valences, order in classes:
        out[valences] = out.get(valences, 0) + Fraction(1, order)
    return out


@pytest.mark.parametrize("genus", [2, 3, 4, 5])
def test_enumeration_matches_mass_formula(genus):
    """Per degree type, the com_tad classes and their automorphism group
    orders give the mass formula's sum of 1/|Aut G|.  Dropping one class or
    doubling one order breaks the match."""
    classes = [(tuple(sorted(map(len, ctx.graph.half_edges_at))), ctx.aut_order)
               for ctx in enumerate_graphs(EnumSpec(genus=genus, min_valence=3, allow_tadpoles=True))]
    table = mass_table(genus)
    assert _masses(classes) == table
    assert _masses(classes[1:]) != table
    assert _masses([(classes[0][0], 2 * classes[0][1]), *classes[1:]]) != table
