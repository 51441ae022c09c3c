import pytest

from gch.canonical import automorphism_group
from gch.context import canonical_form
from gch.families import single_edge, theta, wheel
from gch.generate import EnumSpec, enumerate_graphs, enumerate_ribbon_structures
from gch.graph import HalfEdgeGraph
from gch.ribbon import RibbonStructure, contract_ribbon, faces, surface_invariants


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
    s = single_edge()
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
    g, planar = planar_theta()
    target, rib, m = contract_ribbon(g, planar, 2)
    assert target.vertex_count == 1
    assert target.edge_count == 2
    assert sorted(len(c) for c in rib.cycles) == [4]
    assert surface_invariants(target, rib) == (0, 3)


def test_contract_ribbon_rejects_tadpole():
    g = HalfEdgeGraph.build(2, [(0, 0), (0, 1), (1, 1)])
    rib = RibbonStructure(g, ((0, 1, 2), (3, 4, 5)))
    with pytest.raises(ValueError):
        contract_ribbon(g, rib, 0)


def test_contraction_preserves_surface():
    g, planar = planar_theta()
    for e in range(3):
        t, rib, _ = contract_ribbon(g, planar, e)
        assert surface_invariants(t, rib) == (0, 3)
    g, twisted = nonplanar_theta()
    for e in range(3):
        t, rib, _ = contract_ribbon(g, twisted, e)
        assert surface_invariants(t, rib) == (1, 1)


def test_contraction_preserves_surface_across_family():
    forms = enumerate_graphs(EnumSpec(genus=3, min_valence=3, allow_tadpoles=False, max_edges=6))
    for form in forms:
        g = form.graph
        for rib in enumerate_ribbon_structures(g):
            inv = surface_invariants(g, rib)
            for e in range(g.edge_count):
                if g.is_tadpole(e):
                    continue
                t, trib, _ = contract_ribbon(g, rib, e)
                assert surface_invariants(t, trib) == inv


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
    # push through every graph automorphism: the certificate must not move
    for m in automorphism_group(g).generators:
        from gch.ribbon import transport_ribbon

        moved = transport_ribbon(planar, m)
        assert canonical_form(g, ribbon=moved).certificate == \
            canonical_form(g, ribbon=planar).certificate


def test_ribbon_automorphisms_form_subgroup_of_aut():
    g, planar = planar_theta()
    auts = automorphism_group(g, planar).generators
    assert len(auts) in (2, 3, 6, 12)
    full = automorphism_group(g).order
    assert full % len(auts) == 0
    for m in auts:
        assert m.check()


def test_surface_euler_parity_across_wheel_ribbons():
    g = wheel(3)
    for rib in enumerate_ribbon_structures(g):
        gs, b = surface_invariants(g, rib)
        assert gs >= 0 and b >= 1
        assert (g.vertex_count - g.edge_count + b) % 2 == 0
