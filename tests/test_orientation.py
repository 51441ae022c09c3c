"""The engine's orientation signs on det H_1, checked against the oracle's
own orientations, cycles and determinants (``gch.oracle``): the sign of
the Kruskal basis against the exact-sequence orientation, by its
definition, and the exact-sequence signs of automorphisms and collapses,
against cycle bases pushed through them."""

import itertools
import random

import pytest

from gch.context import canonical_entry
from gch.families import banana, cycle, dumbbell, rose, theta, triangle_with_doubled_edge, wheel
from gch.generate import EnumSpec, enumerate_graphs
from gch.linalg import SparseMatrix, rank
from gch.oracle import (
    Orientation,
    compose,
    contract,
    determinant,
    fundamental_cycles,
    h1_sign,
    identity_morphism,
    is_forest,
    morphism_sign,
    reference_orientation,
)
from gch.orientation import h1_map_sign, kruskal_sign, spanning_tree

from forms import automorphisms, canonical_form


def test_cycle_basis_theta():
    g = theta()
    assert fundamental_cycles(reference_orientation(g)) == [{0: -1, 1: 1}, {0: -1, 2: 1}]
    assert fundamental_cycles(reference_orientation(g, frozenset({2}))) == [{0: 1, 2: -1}, {1: 1, 2: -1}]
    assert fundamental_cycles(reference_orientation(g, frozenset({1}))) == [{0: 1, 1: -1}, {2: 1, 1: -1}]


def test_cycle_basis_rose_is_identity():
    g = rose(2)
    assert spanning_tree(g) == frozenset()
    assert fundamental_cycles(reference_orientation(g)) == [{0: 1}, {1: 1}]


@pytest.mark.parametrize("g, tree", [(dumbbell(), {0}), (triangle_with_doubled_edge(), {2, 3})],
                         ids=["dumbbell-tadpole", "doubled-edge-pair"])
def test_orientation_rejects_a_tree_that_does_not_span(g, tree):
    """Each tree has the loop number's complement but is no spanning tree:
    the dumbbell's tadpole, and the two parallel edges of the triangle."""
    with pytest.raises(ValueError, match="tree is not spanning"):
        reference_orientation(g, frozenset(tree))


@pytest.mark.parametrize("comp_dirs", [(2,), (2, 4, 0)])
def test_orientation_rejects_comp_dirs_of_the_wrong_length(comp_dirs):
    """The theta has loop number 2, so its orientation needs a direction
    for each of its two complement edges, neither fewer nor more."""
    with pytest.raises(ValueError, match="one direction per complement edge"):
        Orientation(theta(), (0, 1, 2), frozenset({0}), (1, 2), comp_dirs)


@pytest.mark.parametrize("edge_order, comp_order, comp_dirs, message", [
    ((0, 1), (1, 2), (2, 4), "edge_order must enumerate all edges"),
    ((0, 1, 2), (1,), (2,), "comp_order must enumerate the tree complement"),
    ((0, 1, 2), (1, 2), (2, 2), "direction half-edge must belong to its edge"),
], ids=["edge-order", "comp-order", "direction"])
def test_orientation_rejects_malformed_fields(edge_order, comp_order, comp_dirs, message):
    """The theta with tree {0}: an edge order missing an edge, a basis
    missing a complement edge, and a direction from another edge."""
    with pytest.raises(ValueError, match=message):
        Orientation(theta(), edge_order, frozenset({0}), comp_order, comp_dirs)


def _spanning_trees(g):
    return [frozenset(t) for t in itertools.combinations(range(g.edge_count), g.vertex_count - 1)
            if is_forest(g, t)]


def _assert_rows_by_definition(g, comp, dirs, rows):
    """Each row is a cycle (zero boundary) whose coefficient is +-1 on its
    own complement edge, by that edge's direction, and 0 on every other
    one.  Only one chain has these properties, so this pins the rows
    whatever the walk."""
    assert len(rows) == len(comp)
    for e, h, row in zip(comp, dirs, rows):
        boundary = [0] * g.vertex_count
        for f, c in row.items():
            u, v = g.edges[f]
            boundary[v] += c
            boundary[u] -= c
        assert not any(boundary), (str(g), comp, row)
        assert {f: row.get(f, 0) for f in comp} == {
            f: (0 if f != e else 1 if h == 2 * e else -1) for f in comp}


def test_cycle_basis_rows_by_definition():
    """The oracle's cycles on every spanning tree of every graph with at
    most six edges of the weighted genus 2-4 and the bivalent genus-1
    families, with reference directions and with every other complement
    edge reversed, in reversed order."""
    specs = [EnumSpec(genus=g, weighted=True, allow_tadpoles=True, min_edges=1, max_edges=6)
             for g in (2, 3, 4)]
    specs.append(EnumSpec(genus=1, min_valence=2, allow_tadpoles=True, max_edges=6))
    checked = 0
    for g in (form.graph for spec in specs for form in enumerate_graphs(spec)):
        for tree in _spanning_trees(g):
            comp = tuple(sorted(set(range(g.edge_count)) - tree))
            for flips in (0, 1):
                dirs = tuple(2 * e + (flips & i) for i, e in enumerate(comp))
                orient = Orientation(g, tuple(range(g.edge_count)), tree, comp[::-1], dirs[::-1])
                _assert_rows_by_definition(g, orient.comp_order, orient.comp_dirs, fundamental_cycles(orient))
                checked += 1
    assert checked > 1500, checked


def test_cycle_matrix_rank():
    g = wheel(4)
    rows = fundamental_cycles(reference_orientation(g))
    entries = {(i, e): c for i, row in enumerate(rows) for e, c in row.items()}
    assert rank(SparseMatrix(len(rows), g.edge_count, entries)) == g.loop_number == 4


def test_kruskal_sign_by_definition():
    """The sign of the Kruskal basis against the exact-sequence orientation
    is sign det A times sign det B (``oracle.determinant``): A has the
    oracle's Kruskal cycles and then the unit vectors of the tree edges as
    rows, in edge coordinates; B the boundaries of the tree edges and then
    vertex 0, in vertex coordinates.  Every class of the weighted genus 2-4
    family, of the ribbon genus 2-3 families with tadpoles and of the
    bivalent genus 1-3 families with tadpoles up to seven edges."""
    specs = [EnumSpec(genus=g, weighted=True, allow_tadpoles=True, min_edges=1) for g in (2, 3, 4)]
    specs += [EnumSpec(genus=g, allow_tadpoles=True, ribbon=True) for g in (2, 3)]
    specs += [EnumSpec(genus=g, min_valence=2, allow_tadpoles=True, max_edges=7) for g in (1, 2, 3)]
    checked = 0
    for ctx in (form for spec in specs for form in enumerate_graphs(spec)):
        g = ctx.graph
        ref = reference_orientation(g)
        tree = sorted(ref.tree)
        units = [{e: 1} for e in tree]
        a = [[row.get(e, 0) for e in range(g.edge_count)] for row in fundamental_cycles(ref) + units]
        b = []
        for e in tree:
            b.append([0] * g.vertex_count)
            b[-1][g.edges[e][1]] += 1
            b[-1][g.edges[e][0]] -= 1
        b.append([1] + [0] * (g.vertex_count - 1))
        det = determinant(a) * determinant(b)
        assert det and ctx.kruskal_sign == kruskal_sign(g) == (1 if det > 0 else -1), ctx.certificate
        checked += 1
    assert checked > 600, checked


def _comp(g):
    return tuple(sorted(set(range(g.edge_count)) - spanning_tree(g)))


def test_h1_sign_identity():
    for g in [theta(), dumbbell(), wheel(3)]:
        identity = identity_morphism(g).half_edge_map
        ref = reference_orientation(g)
        assert h1_sign(identity, ref, ref) == 1
        assert h1_map_sign(g, identity, g) == 1


def test_h1_sign_tadpole_flip():
    g = rose(1)
    ref = reference_orientation(g)
    ctx = canonical_entry(g)[0]
    assert ctx.graph == g
    flip = next(
        m for m in automorphisms(ctx) if m.half_edge_map == (1, 0)
    )
    assert h1_sign(flip.half_edge_map, ref, ref) == -1
    assert h1_map_sign(g, flip.half_edge_map, g) == -1


def _forest_of(g, edges):
    """The edges, in the given order, that keep a forest."""
    kept = []
    for e in edges:
        if is_forest(g, kept + [e]):
            kept.append(e)
    return kept


def test_collapse_transport_does_not_depend_on_the_tree():
    """The engine's odd sign of a non-tadpole collapse, ``collapse_h1``, is
    ``h1_map_sign`` on the exact-sequence orientations times the
    ``kruskal_sign`` of each side.  The oracle transports a cycle basis
    instead: the basis of a spanning tree through the collapsed edge,
    pushed through the collapse onto the target's reference basis, times
    the sign of the change of basis between that tree's basis and the
    source's reference one, gives the same sign."""
    specs = [EnumSpec(genus=g, min_valence=3, allow_tadpoles=True) for g in (2, 3, 4)]
    specs += [EnumSpec(genus=g, min_valence=3, ribbon=True) for g in (2, 3)]
    checked = 0
    for ctx in (f for spec in specs for f in enumerate_graphs(spec)):
        g = ctx.graph
        ref = reference_orientation(g)
        for e in range(g.edge_count):
            if g.is_tadpole(e):
                continue
            target, half_edge_map = ctx.collapse(e)
            other = reference_orientation(g, frozenset(_forest_of(g, [e, *range(g.edge_count)])))
            assert e in other.tree
            rebase = h1_sign(identity_morphism(g).half_edge_map, other, ref)
            assert ctx.collapse_h1(e) == rebase * h1_sign(
                half_edge_map, other, reference_orientation(target.graph)), (ctx.certificate, e)
            checked += 1
    assert checked > 700, checked


def test_collapse_h1_refuses_a_tadpole():
    """A tadpole collapse drops a cycle, so it has no sign on det H_1: each
    tadpole of the dumbbell raises, though the collapse itself exists."""
    ctx = canonical_entry(dumbbell())[0]
    tadpoles = [e for e in range(ctx.graph.edge_count) if ctx.graph.is_tadpole(e)]
    assert len(tadpoles) == 2
    for e in tadpoles:
        assert 1 in ctx.collapse(e)[0].graph.weights
        with pytest.raises(ValueError):
            ctx.collapse_h1(e)


def test_reference_orientation_deterministic():
    g = theta()
    a = reference_orientation(g)
    assert a == reference_orientation(g) == Orientation(g, (0, 1, 2), frozenset({0}), (1, 2), (2, 4))
    r = reference_orientation(rose(2))
    assert r.tree == frozenset()
    assert r.comp_order == (0, 1)
    form = canonical_form(g)
    assert reference_orientation(form.graph) == a
    assert _comp(form.graph) == a.comp_order


def test_aut_h1_matches_cycle_basis_determinant():
    """The engine's H_1 sign of an automorphism comes from the exact
    sequence; the oracle's reference cycle basis pushed through it and
    written back in that basis gives the same sign.  Every generator of
    Aut of every class of the weighted genus 2-4 family, of the ribbon
    genus 2-3 families with tadpoles and of the bivalent genus 1-3
    families with tadpoles up to seven edges."""
    specs = [EnumSpec(genus=g, weighted=True, allow_tadpoles=True, min_edges=1) for g in (2, 3, 4)]
    specs += [EnumSpec(genus=g, allow_tadpoles=True, ribbon=True) for g in (2, 3)]
    specs += [EnumSpec(genus=g, min_valence=2, allow_tadpoles=True, max_edges=7) for g in (1, 2, 3)]
    checked = 0
    for ctx in (form for spec in specs for form in enumerate_graphs(spec)):
        ref = reference_orientation(ctx.graph)
        for hmap in ctx.generators:
            assert ctx.aut_h1(hmap) == h1_sign(hmap, ref, ref), (ctx.certificate, hmap)
            checked += 1
    assert checked > 1500, checked


def test_morphism_sign_identity_and_transposition():
    g = theta()
    ref = reference_orientation(g)
    assert morphism_sign(identity_morphism(g), "even", ref, ref) == 1
    assert morphism_sign(identity_morphism(g), "odd", ref, ref) == 1
    swap = next(
        m for m in automorphisms(canonical_entry(g)[0]) if m.edge_action == (0, 2, 1)
    )
    assert morphism_sign(swap, "even", ref, ref) == -1


def test_morphism_sign_rejects_multi_collapse():
    g = theta()
    t1, m1 = contract(g, 0)
    t2, m2 = contract(t1, 0)
    ref = reference_orientation(g)
    with pytest.raises(ValueError):
        morphism_sign(compose(m2, m1), "even", ref, reference_orientation(t2))


def test_morphism_sign_rejects_odd_tadpole_collapse():
    """A tadpole collapse drops a cycle, so it has no sign on det H_1."""
    g = dumbbell()
    target, m = contract(g, 0)
    assert morphism_sign(m, "even", reference_orientation(g), reference_orientation(target)) in (1, -1)
    with pytest.raises(ValueError, match="tadpole"):
        morphism_sign(m, "odd", reference_orientation(g), reference_orientation(target))


def test_collapse_sign_against_brute_force_table():
    """Collapsing the i-th of the theta edges alternates signs.

    All three collapse targets are the same rose and the edge matching is
    order-preserving, so the even signs must be exactly (-1)^i.
    """
    g = theta()
    ref = reference_orientation(g)
    signs = []
    for e in range(3):
        target, m = contract(g, e)
        form = canonical_form(target)
        dst = reference_orientation(form.graph)
        total = compose(form.iso, m)
        signs.append(morphism_sign(total, "even", ref, dst))
    assert signs == [-1, 1, -1]


def test_even_sign_ignores_cycle_data():
    """Even-parity signs depend on the edge order alone: re-basing the
    cycle part of either orientation cannot move them."""
    g = theta()
    ref = reference_orientation(g)
    other = reference_orientation(g, frozenset({1}))
    for e in range(3):
        target, m = contract(g, e)
        form = canonical_form(target)
        dst = reference_orientation(form.graph)
        total = compose(form.iso, m)
        assert morphism_sign(total, "even", ref, dst) == \
            morphism_sign(total, "even", other, dst)
    swap = next(
        m for m in automorphisms(canonical_entry(g)[0]) if m.edge_action == (0, 2, 1)
    )
    assert morphism_sign(swap, "even", ref, ref) == \
        morphism_sign(swap, "even", other, other)


def test_morphism_sign_multiplicative():
    rng = random.Random(3)
    for g in [theta(), dumbbell(), rose(2), cycle(4), cycle(5), banana(3), banana(4),
              wheel(3), triangle_with_doubled_edge()]:
        ctx = canonical_entry(g)[0]
        g, gens = ctx.graph, automorphisms(ctx)
        ref = reference_orientation(g)
        for parity in ("even", "odd"):
            for _ in range(20):
                a, b = rng.choice(gens), rng.choice(gens)
                sa = morphism_sign(a, parity, ref, ref)
                sb = morphism_sign(b, parity, ref, ref)
                sab = morphism_sign(compose(a, b), parity, ref, ref)
                assert sab == sa * sb
