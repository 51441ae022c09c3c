import itertools
import random

import pytest

from gch.canonical import automorphism_group
from gch.context import canonical_form
from gch.families import banana, cycle, dumbbell, rose, theta, triangle_with_doubled_edge, wheel
from gch.generate import EnumSpec, enumerate_graphs
from gch.graph import identity_morphism
from gch.linalg import SparseMatrix, rank
from gch.oracle import automorphism_sign, half_edge_automorphisms
from gch.orientation import (
    Orientation,
    cycle_basis,
    cycle_transport_sign,
    exchange_rebase,
    h1_determinant_sign,
    morphism_sign,
    orientation_with_tree,
    reference_orientation,
    sequence_parity,
)


def rows_as_dicts(rows):
    return [dict(row) for row in rows]


def test_cycle_basis_theta():
    g = theta()
    orient = orientation_with_tree(g, frozenset({2}))
    rows = rows_as_dicts(cycle_basis(g, orient))
    assert rows == [{0: 1, 2: -1}, {1: 1, 2: -1}]
    orient2 = orientation_with_tree(g, frozenset({1}))
    rows2 = rows_as_dicts(cycle_basis(g, orient2))
    assert rows2 == [{0: 1, 1: -1}, {2: 1, 1: -1}]


def test_cycle_basis_rose_is_identity():
    g = rose(2)
    orient = reference_orientation(g)
    assert orient.tree == frozenset()
    assert rows_as_dicts(cycle_basis(g, orient)) == [{0: 1}, {1: 1}]


@pytest.mark.parametrize("g, tree", [(dumbbell(), {0}), (triangle_with_doubled_edge(), {2, 3})],
                         ids=["dumbbell-tadpole", "doubled-edge-pair"])
def test_orientation_rejects_a_tree_that_does_not_span(g, tree):
    """Each tree has the loop number's complement but is no spanning tree:
    the dumbbell's tadpole, and the two parallel edges of the triangle."""
    with pytest.raises(ValueError, match="tree is not spanning"):
        orientation_with_tree(g, frozenset(tree))


@pytest.mark.parametrize("comp_dirs", [(2,), (2, 4, 0)])
def test_orientation_rejects_comp_dirs_of_the_wrong_length(comp_dirs):
    """The theta has loop number 2, so its orientation needs a direction
    for each of its two complement edges, neither fewer nor more."""
    with pytest.raises(ValueError, match="one direction per complement edge"):
        Orientation(theta(), (0, 1, 2), frozenset({0}), (1, 2), comp_dirs)


def _spanning_trees(g):
    return [frozenset(t) for t in itertools.combinations(range(g.edge_count), g.vertex_count - 1)
            if _is_spanning_tree(g, t)]


def test_cycle_basis_rows_by_definition():
    """On every spanning tree of every graph with at most six edges of the
    weighted genus 2-4 and the bivalent genus-1 families, with reference
    directions and with every other complement edge reversed, each row is a
    cycle (zero boundary) whose coefficient is +-1 on its own complement
    edge, by that edge's direction, and 0 on every other one.  Only one
    chain has these properties, so this pins the rows whatever the walk."""
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
                rows = cycle_basis(g, orient)
                assert len(rows) == len(comp)
                for e, h, row in zip(orient.comp_order, orient.comp_dirs, rows):
                    row = dict(row)
                    boundary = [0] * g.vertex_count
                    for f, c in row.items():
                        u, v = g.edges[f]
                        boundary[v] += c
                        boundary[u] -= c
                    assert not any(boundary), (str(g), tree, row)
                    assert {f: row.get(f, 0) for f in comp} == {
                        f: (0 if f != e else 1 if h == 2 * e else -1) for f in comp}
                checked += 1
    assert checked > 1500, checked


def test_cycle_matrix_rank():
    g = wheel(4)
    rows = cycle_basis(g, reference_orientation(g))
    entries = {(i, e): c for i, row in enumerate(rows) for e, c in row}
    assert rank(SparseMatrix(len(rows), g.edge_count, entries)) == g.loop_number == 4


def test_h1_sign_identity():
    for g in [theta(), dumbbell(), wheel(3)]:
        ref = reference_orientation(g)
        assert h1_determinant_sign(identity_morphism(g), ref, ref) == 1


def test_h1_sign_tadpole_flip():
    g = rose(1)
    ref = reference_orientation(g)
    flip = next(
        m for m in automorphism_group(g).generators if m.half_edge_map == (1, 0)
    )
    assert h1_determinant_sign(flip, ref, ref) == -1


def test_rebase_between_trees_of_theta():
    g = theta()
    ref = reference_orientation(g)  # tree {0}
    rebased, sign = exchange_rebase(ref, frozenset({1}))
    assert rebased.tree == frozenset({1})
    assert sign == 1
    rebased2, sign2 = exchange_rebase(ref, frozenset({2}))
    assert sign2 == 1


def _assert_rebases_keep_orientation(g):
    ref = reference_orientation(g)
    edges = range(g.edge_count)
    all_trees = [
        frozenset(t)
        for t in itertools.combinations(edges, g.vertex_count - 1)
        if _is_spanning_tree(g, t)
    ]
    for tree in all_trees:
        rebased, sign = exchange_rebase(ref, tree)
        assert sign == 1, (str(g), tree)
        # agreeing with the direct change-of-basis determinant
        assert h1_determinant_sign(identity_morphism(g), rebased, ref) == 1, (str(g), tree)


@pytest.mark.parametrize(
    "g", [theta(), dumbbell(), wheel(3), cycle(4), banana(4), triangle_with_doubled_edge()],
    ids=lambda g: str(g),
)
def test_exchange_rebase_never_flips(g):
    """Stepwise tree exchange preserves the orientation class for every tree pair."""
    _assert_rebases_keep_orientation(g)


@pytest.mark.parametrize("genus", [2, 3])
def test_exchange_rebase_never_flips_across_families(genus):
    """The same on every weighted graph with tadpoles of genus 2 and 3 and
    at most five edges; the weight-zero ones are the valence >= 3 family."""
    for form in enumerate_graphs(EnumSpec(genus=genus, weighted=True, allow_tadpoles=True,
                                          min_edges=1, max_edges=5)):
        _assert_rebases_keep_orientation(form.graph)


def _forest_of(g, edges):
    """The edges, in the given order, that join two components so far."""
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = []
    for e in edges:
        u, v = g.edges[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.append(e)
    return kept


def _is_spanning_tree(g, edges):
    return len(_forest_of(g, edges)) == len(edges) == g.vertex_count - 1


def test_collapse_transport_does_not_depend_on_the_tree():
    """The odd transport across a non-tadpole collapse pushes the reference
    cycle basis through it.  Moving the source first to a spanning tree
    through the collapsed edge, by exchanges that keep the orientation
    class, and counting the exchange sign, gives the same sign."""
    specs = [EnumSpec(genus=g, min_valence=3, allow_tadpoles=True) for g in (2, 3, 4)]
    specs += [EnumSpec(genus=g, min_valence=3, ribbon=True) for g in (2, 3)]
    checked = 0
    for ctx in (f for spec in specs for f in enumerate_graphs(spec)):
        g = ctx.graph
        for e in range(g.edge_count):
            if g.is_tadpole(e):
                continue
            target, half_edge_map = ctx.collapse(e)
            tree = frozenset(_forest_of(g, [e, *range(g.edge_count)]))
            rebased, sign = exchange_rebase(ctx.ref_orientation, tree)
            assert e in rebased.tree
            assert ctx.collapse_h1(e) == sign * cycle_transport_sign(
                cycle_basis(g, rebased), half_edge_map, target.ref_orientation), (ctx.certificate, e)
            checked += 1
    assert checked > 700, checked


def test_reference_orientation_deterministic():
    g = theta()
    a = reference_orientation(g)
    b = reference_orientation(g)
    assert a == b
    assert a.edge_order == (0, 1, 2)
    assert a.comp_dirs == (2, 4)
    r = reference_orientation(rose(2))
    assert r.tree == frozenset()
    assert r.comp_order == (0, 1)
    assert reference_orientation(canonical_form(g)) == a


def test_morphism_sign_identity_and_transposition():
    g = theta()
    ref = reference_orientation(g)
    assert morphism_sign(identity_morphism(g), "even", ref, ref) == 1
    assert morphism_sign(identity_morphism(g), "odd", ref, ref) == 1
    swap = next(
        m for m in automorphism_group(g).generators if m.edge_action == (0, 2, 1)
    )
    assert morphism_sign(swap, "even", ref, ref) == -1


def test_morphism_sign_rejects_multi_collapse():
    g = theta()
    t1, m1 = g.contract(0)
    t2, m2 = t1.contract(0)
    ref = reference_orientation(g)
    with pytest.raises(ValueError):
        morphism_sign(m2.compose(m1), "even", ref, reference_orientation(t2))


def test_collapse_sign_against_brute_force_table():
    """Collapsing the i-th of the theta edges alternates signs.

    All three collapse targets are the same rose and the edge matching is
    order-preserving, so the even signs must be exactly (-1)^i.
    """
    g = theta()
    ref = reference_orientation(g)
    signs = []
    for e in range(3):
        target, m = g.contract(e)
        form = canonical_form(target)
        dst = reference_orientation(form.graph)
        total = form.iso.compose(m)
        signs.append(morphism_sign(total, "even", ref, dst))
    assert signs == [-1, 1, -1]


def odd_total_sign(m):
    """Edge-permutation parity times the cycle-space determinant sign."""
    ref = reference_orientation(m.source)
    return (-1 if sequence_parity(m.edge_action) else 1) * h1_determinant_sign(m, ref, ref)


def oracle_odd_sign(m, autos):
    """The oracle's C_1.C_0 sign of an automorphism on all edges, for odd
    parity; the automorphism must be among the oracle's ``autos``."""
    firsts = m.half_edge_map[::2]
    aut = ([h >> 1 for h in firsts], sum(h & 1 for h in firsts), list(m.vertex_map))
    assert aut in autos
    return automorphism_sign(aut, range(m.source.edge_count), odd=True)


def test_aut_h1_matches_cycle_basis_determinant():
    """The engine's H_1 sign of an automorphism comes from the exact
    sequence; the reference cycle basis pushed through it and written back
    in that basis gives the same sign.  Every generator of Aut of every class
    of the weighted genus 2-4 family, of the ribbon genus 2-3 families with
    tadpoles and of the bivalent genus 1-3 families with tadpoles up to
    seven edges."""
    specs = [EnumSpec(genus=g, weighted=True, allow_tadpoles=True, min_edges=1) for g in (2, 3, 4)]
    specs += [EnumSpec(genus=g, allow_tadpoles=True, ribbon=True) for g in (2, 3)]
    specs += [EnumSpec(genus=g, min_valence=2, allow_tadpoles=True, max_edges=7) for g in (1, 2, 3)]
    checked = 0
    for ctx in (form for spec in specs for form in enumerate_graphs(spec)):
        ref = ctx.ref_orientation
        for m in ctx.group.generators:
            assert ctx.aut_h1(m) == h1_determinant_sign(m, ref, ref), (ctx.certificate, m)
            checked += 1
    assert checked > 1500, checked


@pytest.mark.parametrize(
    "g",
    [theta(), dumbbell(), rose(1), rose(2), banana(2), banana(4),
     cycle(3), cycle(4), cycle(5), wheel(3), wheel(4), triangle_with_doubled_edge()],
    ids=lambda g: str(g),
)
def test_odd_sign_matches_direction_oracle(g):
    """The oracle's sign is the vertex-order parity times the edge-direction
    flips; the graphs exercise tadpole flips, parallel swaps, rotations and
    reflections."""
    autos = half_edge_automorphisms(g)
    gens = automorphism_group(g).generators
    rng = random.Random(11)
    elements = list(gens)
    for _ in range(30):
        a = rng.choice(gens)
        b = rng.choice(elements)
        elements.append(a.compose(b))
    for m in elements:
        assert odd_total_sign(m) == oracle_odd_sign(m, autos)


def test_even_sign_ignores_cycle_data():
    """Even-parity signs depend on the edge order alone: re-basing the
    cycle part of either orientation cannot move them."""
    g = theta()
    ref = reference_orientation(g)
    other = orientation_with_tree(g, frozenset({1}))
    for e in range(3):
        target, m = g.contract(e)
        form = canonical_form(target)
        dst = reference_orientation(form.graph)
        total = form.iso.compose(m)
        assert morphism_sign(total, "even", ref, dst) == \
            morphism_sign(total, "even", other, dst)
    swap = next(
        m for m in automorphism_group(g).generators if m.edge_action == (0, 2, 1)
    )
    assert morphism_sign(swap, "even", ref, ref) == \
        morphism_sign(swap, "even", other, other)


def test_morphism_sign_multiplicative():
    rng = random.Random(3)
    for g in [theta(), dumbbell(), rose(2), cycle(4), cycle(5), banana(3), banana(4),
              wheel(3), triangle_with_doubled_edge()]:
        ref = reference_orientation(g)
        gens = list(automorphism_group(g).generators)
        for parity in ("even", "odd"):
            for _ in range(20):
                a, b = rng.choice(gens), rng.choice(gens)
                sa = morphism_sign(a, parity, ref, ref)
                sb = morphism_sign(b, parity, ref, ref)
                sab = morphism_sign(a.compose(b), parity, ref, ref)
                assert sab == sa * sb
