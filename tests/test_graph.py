import itertools

import pytest

from gch.families import banana, cycle, dumbbell, rose, theta, wheel
from gch.graph import HalfEdgeGraph
from gch.oracle import (DisconnectedGraphError, bridges, components, contract, genus, is_forest,
                        is_morphism, is_one_vertex_irreducible, is_stable, loop_number)


def test_loop_number_examples():
    assert loop_number(theta()) == 2
    assert loop_number(HalfEdgeGraph.build(1, [])) == 0
    assert loop_number(dumbbell()) == 2


def test_loop_number_rejects_disconnected():
    g = HalfEdgeGraph.build(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        loop_number(g)


def test_genus_examples():
    assert genus(theta()) == 2
    assert genus(HalfEdgeGraph.build(1, [], weights=(2,))) == 2
    assert genus(HalfEdgeGraph.build(1, [(0, 0)], weights=(1,))) == 2


def test_stability_examples():
    assert is_stable(theta())
    assert not is_stable(cycle(4))
    assert is_stable(HalfEdgeGraph.build(2, [(0, 1)], weights=(1, 1)))
    # a tadpole contributes two to its vertex valence
    assert is_stable(dumbbell())


def test_half_edge_structure():
    g = theta()
    assert g.half_edge_count == 6
    for h in range(6):
        # the edge involution is h ^ 1: the two halves of one edge, at its ends
        assert h ^ 1 != h and (h ^ 1) >> 1 == h >> 1
        assert {g.iota(h), g.iota(h ^ 1)} == set(g.edges[h >> 1])
    assert g.iota(0) == 0 and g.iota(1) == 1


def test_contract_theta_gives_rose():
    g = theta()
    target, m = contract(g, 2)
    assert target.vertex_count == 1
    assert target.edges == ((0, 0), (0, 0))
    assert is_morphism(m)
    assert m.edge_action == (0, 1, None)


def test_contract_tadpole_increments_weight():
    g = dumbbell()  # edges: tadpole at 0, bridge, tadpole at 1
    target, m = contract(g, 0)
    assert target.vertex_count == 2
    assert target.weights == (1, 0)
    assert target.edges == ((0, 1), (1, 1))
    assert genus(target) == genus(g) == 2
    assert is_morphism(m)


def test_contract_weighted_edge():
    g = HalfEdgeGraph.build(2, [(0, 1)], weights=(1, 1))
    target, _ = contract(g, 0)
    assert target.vertex_count == 1
    assert target.weights == (2,)
    assert target.edges == ()


@pytest.mark.parametrize("g", [theta(), dumbbell(), wheel(4), cycle(5), banana(4), rose(3)])
def test_contraction_preserves_genus_and_tracks_loops(g):
    for e in range(g.edge_count):
        target, m = contract(g, e)
        assert is_morphism(m)
        assert genus(target) == genus(g)
        if g.is_tadpole(e):
            assert loop_number(target) == loop_number(g) - 1
        else:
            assert loop_number(target) == loop_number(g)


def test_contraction_preserves_stability():
    stable = [
        theta(),
        dumbbell(),
        HalfEdgeGraph.build(2, [(0, 0), (0, 1)], weights=(0, 1)),
        HalfEdgeGraph.build(1, [(0, 0)], weights=(1,)),
        wheel(3),
    ]
    for g in stable:
        assert is_stable(g)
        for e in range(g.edge_count):
            assert is_stable(contract(g, e)[0])


def test_structural_predicates_dumbbell():
    g = dumbbell()
    assert g.has_tadpole
    assert bridges(g) == frozenset({1})
    assert not is_one_vertex_irreducible(g)


def test_structural_predicates_theta():
    g = theta()
    assert not g.has_tadpole
    assert bridges(g) == frozenset()
    assert is_one_vertex_irreducible(g)


def test_connectivity_matches_union_find_oracle():
    """Every multigraph on at most 4 vertices with at most 5 edges, tadpoles
    and disconnected ones included: ``is_connected`` against the oracle's
    union-find, and on the connected ones the oracle's bridges and
    one-vertex irreducibility, counted by union-find, against
    ``is_connected`` of each graph with an edge, or a vertex, deleted."""
    checked = 0
    for n in range(5):
        pairs = list(itertools.combinations_with_replacement(range(n), 2))
        for size in range(6):
            for edges in itertools.combinations_with_replacement(pairs, size):
                g = HalfEdgeGraph.build(n, edges)
                connected = components(range(n), edges) == 1
                assert g.is_connected == connected, edges
                checked += 1
                if not connected:
                    with pytest.raises(DisconnectedGraphError):
                        bridges(g)
                    continue
                cut = {e for e, (u, v) in enumerate(edges) if u != v
                       and not HalfEdgeGraph.build(n, edges[:e] + edges[e + 1:]).is_connected}
                assert bridges(g) == cut, edges
                assert is_one_vertex_irreducible(g) == (not cut and (n == 1 or all(
                    HalfEdgeGraph.build(n - 1, [(a - (a > v), b - (b > v)) for a, b in edges
                                                if v not in (a, b)]).is_connected
                    for v in range(n)))), edges
    assert checked == 3528, checked


def test_forest_mask():
    g = theta()
    assert is_forest(g, ())
    assert is_forest(g, (0,))
    assert not is_forest(g, (0, 1))
    d = dumbbell()
    assert not is_forest(d, (0,))  # tadpole is a cycle
    assert is_forest(d, (1,))


def test_contract_edge_function():
    weights, edges, half_edge_map = theta().contraction(0)
    assert weights == (0,) and edges == ((0, 0), (0, 0))
    assert half_edge_map == (None, None, 0, 1, 2, 3)
