import gc
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from gch.canonical import build_group, canonical_labelling
from gch.complexes import generator_vanishes
from gch.context import _CLASSES, canonical_entry
from gch.families import (
    banana,
    cycle,
    dumbbell,
    rose,
    theta,
    triangle_with_doubled_edge,
    wheel,
)
from gch.generate import EnumSpec, enumerate_graphs
from gch.graph import HalfEdgeGraph
from gch.oracle import (automorphism_sign, contract, contract_ribbon, edge_action_closure,
                        half_edge_automorphisms, identity_morphism, is_morphism, relabeled,
                        transport_cycles)
from gch.ribbon import RibbonStructure

from forms import automorphisms, canonical_form
from masks import mask_of

PLANAR_THETA_CYCLES = ((0, 2, 4), (1, 5, 3))

SMALL_GRAPHS = [
    banana(1),
    theta(),
    dumbbell(),
    rose(1),
    rose(2),
    banana(2),
    banana(4),
    cycle(3),
    cycle(4),
    cycle(5),
    triangle_with_doubled_edge(),
    HalfEdgeGraph.build(2, [(0, 0), (0, 1)], weights=(0, 1)),
    HalfEdgeGraph.build(2, [(0, 1)], weights=(1, 1)),
]


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: str(g))
def test_certificate_relabeling_invariance(g):
    rng = random.Random(7)
    cert = canonical_form(g).certificate
    for _ in range(25):
        assert canonical_form(relabeled(g, rng)).certificate == cert


@pytest.mark.parametrize("genus", [2, 3])
def test_certificate_relabeling_invariance_across_families(genus):
    """Every weighted graph with tadpoles of genus 2 and 3, under 200
    random relabelings; the weight-zero ones are the valence >= 3 family."""
    rng = random.Random(1)
    for form in enumerate_graphs(EnumSpec(genus=genus, weighted=True, allow_tadpoles=True,
                                          min_edges=1)):
        for _ in range(200):
            assert canonical_form(relabeled(form.graph, rng)).certificate == form.certificate, \
                str(form.graph)


def test_certificates_distinguish():
    certs = {canonical_form(g).certificate for g in SMALL_GRAPHS}
    assert len(certs) == len(SMALL_GRAPHS)


def test_canonical_iso_is_valid():
    for g in SMALL_GRAPHS:
        form = canonical_form(g)
        assert is_morphism(form.iso)
        assert form.iso.target == form.graph
        # idempotent: canonicalizing a canonical graph is the identity relabeling
        again = canonical_form(form.graph)
        assert again.certificate == form.certificate
        assert again.graph == form.graph


@pytest.mark.parametrize(
    "g,order",
    [
        (rose(1), 2),
        (theta(), 12),
        (wheel(5), 10),
        (dumbbell(), 8),
        (rose(2), 8),
        (banana(2), 4),
    ],
)
def test_automorphism_group_orders(g, order):
    assert canonical_entry(g)[0].aut_order == order


@pytest.mark.parametrize("g", SMALL_GRAPHS, ids=lambda g: str(g))
def test_automorphism_order_matches_brute_force(g):
    assert canonical_entry(g)[0].aut_order == len(half_edge_automorphisms(g))


def _petersen():
    return HalfEdgeGraph.build(10, [(i, (i + 1) % 5) for i in range(5)]
                               + [(i, i + 5) for i in range(5)]
                               + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _complete_bipartite(a, b):
    return HalfEdgeGraph.build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _cube():
    return HalfEdgeGraph.build(8, [(u, u | 1 << k) for u in range(8) for k in range(3)
                                   if not u & 1 << k])


def _generated(generators, size):
    """The half-edge maps that products of the generators, half-edge maps
    themselves, reach."""
    identity = tuple(range(size))
    seen, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for m in generators:
            q = tuple([m[h] for h in p])
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def _two_hubs():
    """A triangle and a square, each vertex of weight 1 and joined to both
    of two hubs of weight 0.  The hubs come first in the colouring, and
    once one is individualized refinement cannot tell the triangle from
    the square, so the first root branch has leaves of several encodings."""
    cycles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
    return HalfEdgeGraph.build(9, cycles + [(h, v) for h in (7, 8) for v in range(7)],
                               weights=(1,) * 7 + (0, 0))


@pytest.mark.parametrize("g,order", [(_petersen(), 120), (_complete_bipartite(3, 3), 72),
                                     (_cube(), 48), (_complete_bipartite(4, 4), 1152),
                                     (_two_hubs(), 96)],
                         ids=["petersen", "K33", "Q3", "K44", "two-hubs"])
def test_generators_generate_aut_of_symmetric_graphs(g, order):
    """The generators are only those the labelling search meets, yet they
    generate a group of the full order, which the oracle confirms."""
    ctx = canonical_entry(g)[0]
    assert ctx.aut_order == order == len(half_edge_automorphisms(g))
    assert len(_generated(ctx.generators, g.half_edge_count)) == order


def test_generators_generate_aut_across_families():
    """Every class of the genus-4 family with tadpoles (up to nine edges)
    and of the weighted genus-3 family, in a random labelling: the group
    that the class would take from a search on that labelling, what
    ``build_group`` makes of the symmetries ``canonical_labelling`` meets,
    has generators that reach ``order`` half-edge maps, and ``order`` is
    the oracle's count."""
    specs = [EnumSpec(genus=4, allow_tadpoles=True, max_edges=9),
             EnumSpec(genus=3, weighted=True, allow_tadpoles=True)]
    rng = random.Random(5)
    for g in (relabeled(ctx.graph, rng) for spec in specs for ctx in enumerate_graphs(spec)):
        symmetries = canonical_labelling(g.vertex_count, g.weights, g.edges)[-1]
        generators, order = build_group(g, None, symmetries)
        assert len(_generated(generators, g.half_edge_count)) == order, str(g)
        assert order == len(half_edge_automorphisms(g)), str(g)


def test_two_hubs_generators_are_distinct_and_not_the_identity():
    """Search nodes under different root branches reach leaves with equal
    encodings many times over; each automorphism is kept once, and the
    identity never."""
    g = _two_hubs()
    maps = list(canonical_entry(g)[0].generators)
    assert len(set(maps)) == len(maps)
    assert tuple(range(g.half_edge_count)) not in maps


def test_class_groups_match_the_oracle():
    """Every class of the weighted genus 2-4 families, the genus-4 family
    with tadpoles (up to nine edges) and the ribbon genus 2-3 families.
    Its group comes from the search that found the class, carried onto the
    canonical labels: each generator is an automorphism of the canonical
    graph (and ribbon), and the generators reach ``order`` half-edge maps,
    the oracle's count."""
    specs = [EnumSpec(genus=g, weighted=True, allow_tadpoles=True, min_edges=1) for g in (2, 3, 4)]
    specs.append(EnumSpec(genus=4, allow_tadpoles=True, max_edges=9))
    specs += [EnumSpec(genus=g, ribbon=True) for g in (2, 3)]
    classes = {ctx.certificate: ctx for spec in specs for ctx in enumerate_graphs(spec)}
    assert len(classes) > 400
    for ctx in classes.values():
        g, ribbon = ctx.graph, ctx.ribbon
        for m in automorphisms(ctx):
            assert is_morphism(m) and m.source is g and m.target is g, ctx.certificate
            assert all(g.weights[x] == w for x, w in zip(m.vertex_map, g.weights)), ctx.certificate
            if ribbon is not None:
                assert transport_cycles(g, ribbon.cycles, m.half_edge_map) == ribbon.cycles, \
                    ctx.certificate
        assert len(_generated(ctx.generators, g.half_edge_count)) == ctx.aut_order, \
            ctx.certificate
        sigma = None if ribbon is None else ribbon.next_map
        assert ctx.aut_order == len(half_edge_automorphisms(g, sigma)), ctx.certificate


def test_generators_are_automorphisms():
    for g in SMALL_GRAPHS:
        ctx = canonical_entry(g)[0]
        for m in automorphisms(ctx):
            assert is_morphism(m)
            assert m.source == m.target == ctx.graph


def test_edge_action_examples():
    g = theta()
    ctx = canonical_entry(g)[0]
    assert ctx.graph == g
    assert identity_morphism(g).edge_action == (0, 1, 2)
    swap = next(
        m for m in automorphisms(ctx)
        if m.vertex_map == (0, 1) and m.edge_action == (0, 2, 1)
    )
    assert swap.edge_action == (0, 2, 1)
    _, collapse = contract(g, 0)
    assert collapse.edge_action == (None, 0, 1)


def test_stabilizer_order_examples():
    ctx = canonical_entry(theta())[0]
    assert ctx.stabilizer_order(mask_of(ctx, (0,))) == 4
    full = len(half_edge_automorphisms(ctx.graph))
    assert ctx.stabilizer_order(mask_of(ctx, ())) == full
    assert ctx.stabilizer_order(mask_of(ctx, (0, 1, 2))) == full


@pytest.mark.parametrize(
    "g,parity,expected",
    [
        (banana(3), "even", True),
        (wheel(5), "even", False),
        (banana(3), "odd", False),
        (wheel(4), "odd", True),
        (wheel(3), "even", False),
        (cycle(4), "even", True),
        (cycle(5), "even", False),
        (cycle(7), "odd", False),
        (rose(1), "odd", True),
        (rose(1), "even", False),
    ],
)
def test_generator_vanishes_by_odd_symmetry(g, parity, expected):
    assert generator_vanishes(g, parity)[0] is expected


def test_public_entries_refuse_a_disconnected_graph():
    """The engine's own moves reach the certificate cache without a
    connectivity walk; the entries for outside graphs still refuse a
    disconnected one."""
    g = HalfEdgeGraph.build(2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="connected"):
        canonical_entry(g)
    with pytest.raises(ValueError, match="connected"):
        generator_vanishes(g, "even")


def test_odd_symmetry_oracle_equivalence():
    """Even case: a graph vanishes iff some automorphism found by the oracle
    permutes its edges oddly."""
    for g in SMALL_GRAPHS:
        edges = range(g.edge_count)
        found = any(automorphism_sign(aut, edges, False) == -1
                    for aut in half_edge_automorphisms(g))
        assert bool(canonical_entry(g)[0].witness("even")) is found, str(g)


def test_edge_action_closure_sizes():
    for g, size in ((theta(), 6), (rose(2), 2), (wheel(5), 10)):
        gens = [(m.edge_action, 1) for m in automorphisms(canonical_entry(g)[0])]
        assert len(edge_action_closure(g.edge_count, gens)) == size


def test_canonical_form_hit_starts_at_the_callers_graph():
    """A cache hit shares the class's canonical graph (and ribbon) but its
    iso starts at the graph it was called with."""
    g, twin = theta(), theta()
    first, second = canonical_form(g), canonical_form(twin)
    assert first.iso.source is g and second.iso.source is twin
    assert second.graph is first.graph and second.certificate == first.certificate
    assert second.iso.half_edge_map == first.iso.half_edge_map
    ribbons = [RibbonStructure(h, PLANAR_THETA_CYCLES) for h in (g, twin)]
    first, second = (canonical_form(h, ribbon=r) for h, r in zip((g, twin), ribbons))
    assert first.iso.source is g and second.iso.source is twin
    assert second.graph is first.graph and second.ribbon is first.ribbon
    assert second.certificate == first.certificate != canonical_form(g).certificate
    for form in (first, second):
        assert is_morphism(form.iso)


def test_canonical_forms_pin_no_contracted_graph():
    """Neither the certificate cache nor the class object keeps the
    labelled graph that a collapse produced, plain or ribbon."""
    g = theta()
    for ribbon in (None, RibbonStructure(g, PLANAR_THETA_CYCLES)):
        if ribbon is None:
            contracted, m = contract(g, 0)
            form = canonical_form(contracted)
        else:
            contracted, cycles, m = contract_ribbon(g, ribbon.cycles, 0)
            ribbon = RibbonStructure(contracted, cycles)
            form = canonical_form(contracted, ribbon=ribbon)
        assert form.iso.source is contracted
        assert _CLASSES[form.certificate].graph is form.graph
        ref = weakref.ref(contracted)
        del contracted, ribbon, m, form
        gc.collect()
        assert ref() is None


GENERATORS = r"""
import gc, json, sys
from gch.complexes import ComplexSpec, build_complex
from gch.context import _CLASSES

out = {}
for kind, parity, genus in (("com", "odd", 4), ("ass", "even", 3)):
    c = build_complex(ComplexSpec(kind, parity, genus))
    classes = {gen.ctx for grade in c.grades.values() for gen in grade} | set(_CLASSES.values())
    out[f"{kind}-{parity}-g{genus}"] = {
        "classes": len(classes),
        "ribbon": sum(ctx.ribbon is not None for ctx in classes),
        "holders": sorted({type(ctx.generators).__name__ for ctx in classes}
                          | {type(s).__name__ for ctx in classes for s in ctx.generators}),
        "entries": sorted({type(h).__name__ for ctx in classes for s in ctx.generators for h in s}),
        "bijective": all(sorted(s) == list(range(ctx.graph.half_edge_count))
                         for ctx in classes for s in ctx.generators),
        "morphisms": sum(type(o).__name__ == "Morphism" for o in gc.get_objects()),
        "oracle": "gch.oracle" in sys.modules,
    }
print(json.dumps(out))
"""


def test_classes_hold_generators_as_half_edge_maps():
    """In a fresh interpreter, after building ``com`` odd at genus 4 and
    ``ass`` even at genus 3, every class the builds made holds its
    generators as a tuple of half-edge maps, each a tuple of ints that is
    a bijection of the half-edges, and no ``Morphism`` exists: the oracle
    that defines it is never imported."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    result = subprocess.run([sys.executable, "-c", GENERATORS], capture_output=True, text=True,
                            env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    assert got["ass-even-g3"]["ribbon"] > 0, got
    for name, case in got.items():
        assert case["classes"] > 10, (name, case)
        assert case["holders"] == ["tuple"], (name, case)
        assert case["entries"] == ["int"], (name, case)
        assert case["bijective"] and case["morphisms"] == 0 and not case["oracle"], (name, case)
