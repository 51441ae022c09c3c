import itertools

import pytest

from gch.families import banana, cycle, dumbbell, rose, theta, weighted_point, wheel
from gch.graph import DisconnectedGraphError, HalfEdgeGraph, structural_predicates
from gch.oracle import components, is_forest


def test_loop_number_examples():
    assert theta().loop_number == 2
    assert HalfEdgeGraph.build(1, []).loop_number == 0
    assert dumbbell().loop_number == 2


def test_loop_number_rejects_disconnected():
    g = HalfEdgeGraph.build(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        g.loop_number


def test_genus_examples():
    assert theta().genus == 2
    assert weighted_point(2).genus == 2
    assert HalfEdgeGraph.build(1, [(0, 0)], weights=(1,)).genus == 2


def test_stability_examples():
    assert theta().is_stable
    assert not cycle(4).is_stable
    assert HalfEdgeGraph.build(2, [(0, 1)], weights=(1, 1)).is_stable
    # a tadpole contributes two to its vertex valence
    assert dumbbell().is_stable


def test_half_edge_structure():
    g = theta()
    assert g.half_edge_count == 6
    for h in range(6):
        assert g.epsilon(g.epsilon(h)) == h
        assert g.epsilon(h) != h
    assert g.iota(0) == 0 and g.iota(1) == 1


def test_contract_theta_gives_rose():
    g = theta()
    target, m = g.contract(2)
    assert target.vertex_count == 1
    assert target.edges == ((0, 0), (0, 0))
    assert m.check()
    assert m.edge_action == (0, 1, None)


def test_contract_tadpole_increments_weight():
    g = dumbbell()  # edges: tadpole at 0, bridge, tadpole at 1
    target, m = g.contract(0)
    assert target.vertex_count == 2
    assert target.weights == (1, 0)
    assert target.edges == ((0, 1), (1, 1))
    assert target.genus == g.genus == 2
    assert m.check()


def test_contract_weighted_edge():
    g = HalfEdgeGraph.build(2, [(0, 1)], weights=(1, 1))
    target, _ = g.contract(0)
    assert target.vertex_count == 1
    assert target.weights == (2,)
    assert target.edges == ()


@pytest.mark.parametrize("g", [theta(), dumbbell(), wheel(4), cycle(5), banana(4), rose(3)])
def test_contraction_preserves_genus_and_tracks_loops(g):
    for e in range(g.edge_count):
        target, m = g.contract(e)
        assert m.check()
        assert target.genus == g.genus
        if g.is_tadpole(e):
            assert target.loop_number == g.loop_number - 1
        else:
            assert target.loop_number == g.loop_number


def test_contraction_preserves_stability():
    stable = [
        theta(),
        dumbbell(),
        HalfEdgeGraph.build(2, [(0, 0), (0, 1)], weights=(0, 1)),
        HalfEdgeGraph.build(1, [(0, 0)], weights=(1,)),
        wheel(3),
    ]
    for g in stable:
        assert g.is_stable
        for e in range(g.edge_count):
            assert g.contract(e)[0].is_stable


def test_structural_predicates_dumbbell():
    rep = structural_predicates(dumbbell())
    assert rep.has_tadpole
    assert rep.bridges == frozenset({1})
    assert not rep.is_bridge_free
    assert not rep.is_one_vertex_irreducible


def test_structural_predicates_theta():
    rep = structural_predicates(theta())
    assert not rep.has_tadpole
    assert rep.bridges == frozenset()
    assert rep.is_bridge_free
    assert rep.is_one_vertex_irreducible


def test_connectivity_matches_union_find_oracle():
    """Every multigraph on at most 4 vertices with at most 5 edges, tadpoles
    and disconnected ones included: ``is_connected`` against the oracle's
    union-find, and on the connected ones the bridges (delete each edge) and
    one-vertex irreducibility (delete each vertex) of
    ``structural_predicates``."""
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
                        structural_predicates(g)
                    continue
                rep = structural_predicates(g)
                bridges = {e for e, (u, v) in enumerate(edges) if u != v
                           and components(range(n), edges[:e] + edges[e + 1:]) > 1}
                assert rep.bridges == bridges, edges
                assert rep.is_one_vertex_irreducible == (not bridges and all(
                    components([w for w in range(n) if w != v],
                               [p for p in edges if v not in p]) <= 1
                    for v in range(n))), edges
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
    assert theta().contract(0)[0].vertex_count == 1
