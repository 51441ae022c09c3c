import pytest

from gch.context import canonical_entry
from gch.families import banana, theta, wheel
from gch.generate import EnumSpec, enumerate_graphs
from gch.graph import HalfEdgeGraph
from gch.oracle import contract_ribbon, is_morphism, ribbon_structures, transport_cycles
from gch.ribbon import RibbonStructure, faces, surface_invariants

from forms import automorphisms, canonical_form


def planar_theta():
    g = theta()
    # half-edges at vertex 0: 0, 2, 4; at vertex 1: 1, 3, 5
    return g, RibbonStructure(g, ((0, 2, 4), (1, 5, 3)))


def nonplanar_theta():
    g = theta()
    return g, RibbonStructure(g, ((0, 2, 4), (1, 3, 5)))


def test_face_counts_of_thetas():
    g, planar = planar_theta()
    assert len(faces(g, planar)) == 3
    g, twisted = nonplanar_theta()
    assert len(faces(g, twisted)) == 1


def test_surface_invariants_examples():
    g, planar = planar_theta()
    assert surface_invariants(g, planar) == (0, 3)
    g, twisted = nonplanar_theta()
    assert surface_invariants(g, twisted) == (1, 1)
    s = banana(1)
    rib = RibbonStructure(s, ((0,), (1,)))
    assert surface_invariants(s, rib) == (0, 1)
    # a vertex without edges thickens to a disk, bounded by one empty cycle
    point = HalfEdgeGraph.build(1, [])
    disk = RibbonStructure(point, ((),))
    assert faces(point, disk) == [()]
    assert surface_invariants(point, disk) == (0, 1)


def test_ribbon_validation():
    g = theta()
    with pytest.raises(ValueError):
        RibbonStructure(g, ((0, 2), (1, 3, 5)))
    with pytest.raises(ValueError):
        RibbonStructure(g, ((0, 2, 4), (1, 3, 3)))


def test_contract_ribbon_splice():
    """The class's collapse and the oracle's contraction, which joins the
    two orders by their definition, reach one class."""
    g, planar = planar_theta()
    target = canonical_entry(g, planar)[0].collapse(2)[0]
    assert target.graph.vertex_count == 1
    assert target.graph.edge_count == 2
    assert sorted(len(c) for c in target.ribbon.cycles) == [4]
    assert surface_invariants(target.graph, target.ribbon) == (0, 3)
    contracted, cycles, _ = contract_ribbon(g, planar.cycles, 2)
    assert canonical_entry(contracted, RibbonStructure(contracted, cycles))[0] is target


def test_contract_ribbon_rejects_tadpole():
    g = HalfEdgeGraph.build(2, [(0, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError):
        contract_ribbon(g, ((0, 1, 2), (3, 4, 5)), 0)


def test_contraction_preserves_surface():
    for g, ribbon in (planar_theta(), nonplanar_theta()):
        ctx = canonical_entry(g, ribbon)[0]
        for e in range(3):
            target = ctx.collapse(e)[0]
            assert surface_invariants(target.graph, target.ribbon) == surface_invariants(g, ribbon)
    assert surface_invariants(*planar_theta()) == (0, 3)
    assert surface_invariants(*nonplanar_theta()) == (1, 1)


def test_contraction_preserves_surface_across_family():
    """Every ribbon structure of the oracle on the genus-3 graphs up to six
    edges keeps its surface through every collapse of its class."""
    forms = enumerate_graphs(EnumSpec(genus=3, min_valence=3, allow_tadpoles=False, max_edges=6))
    for form in forms:
        g = form.graph
        for cycles in ribbon_structures(g):
            ctx = canonical_entry(g, RibbonStructure(g, cycles))[0]
            inv = surface_invariants(ctx.graph, ctx.ribbon)
            for e in range(ctx.graph.edge_count):
                if ctx.graph.is_tadpole(e):
                    continue
                target = ctx.collapse(e)[0]
                assert surface_invariants(target.graph, target.ribbon) == inv


def test_half_edge_budget():
    g, rib = planar_theta()
    assert sum(len(c) for c in rib.cycles) == 2 * g.edge_count


def test_ribbon_certificates_distinguish_thetas():
    g, planar = planar_theta()
    _, twisted = nonplanar_theta()
    cert_planar = canonical_form(g, ribbon=planar).certificate
    cert_twisted = canonical_form(g, ribbon=twisted).certificate
    assert cert_planar != cert_twisted
    # forgetting the ribbon collapses both onto the same plain certificate
    assert canonical_form(g).certificate == canonical_form(theta()).certificate
    assert not canonical_form(g).certificate.count(";r")
    assert cert_planar.startswith(canonical_form(g).certificate)


def test_ribbon_certificate_invariance():
    g, planar = planar_theta()
    # push through every generator of Aut: the certificate must not move
    for m in automorphisms(canonical_entry(g)[0]):
        moved = RibbonStructure(g, transport_cycles(g, planar.cycles, m.half_edge_map))
        assert canonical_form(g, ribbon=moved).certificate == \
            canonical_form(g, ribbon=planar).certificate


def test_ribbon_automorphisms_form_subgroup_of_aut():
    g, planar = planar_theta()
    auts = automorphisms(canonical_entry(g, planar)[0])
    assert len(auts) in (2, 3, 6, 12)
    full = canonical_entry(g)[0].aut_order
    assert full % len(auts) == 0
    for m in auts:
        assert is_morphism(m)


def test_surface_euler_parity_across_wheel_ribbons():
    g = wheel(3)
    for cycles in ribbon_structures(g):
        gs, b = surface_invariants(g, RibbonStructure(g, cycles))
        assert gs >= 0 and b >= 1
        assert (g.vertex_count - g.edge_count + b) % 2 == 0
