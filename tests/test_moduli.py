import pytest

from gch.families import triangle_with_doubled_edge
from gch.generate import EnumSpec, enumerate_graphs
from gch.moduli import build_cell_poset, build_spine, f_vector
from gch.oracle import contract

from forms import canonical_form


def test_poset_genus2():
    poset = build_cell_poset(2)
    assert len(poset.nodes) == 6
    assert poset.max_dimension == 2
    assert f_vector(poset) == (2, 2, 2)
    assert f_vector(poset, odd_symmetry_free=True) == (2, 1, 0)


def test_poset_rejects_small_genus():
    with pytest.raises(ValueError):
        build_cell_poset(1)
    with pytest.raises(ValueError):
        build_spine(1)


def test_poset_covers_drop_dimension_and_keep_genus():
    poset = build_cell_poset(3)
    assert poset.max_dimension == 5
    for i, j in poset.covers:
        assert poset.nodes[i].dimension == poset.nodes[j].dimension + 1
        assert poset.nodes[i].graph.genus == poset.nodes[j].graph.genus == 3


def test_maximal_weight_zero_cells_are_trivalent():
    poset = build_cell_poset(3)
    top = poset.max_dimension
    for node in poset.nodes:
        if node.dimension == top:
            assert node.weight_total == 0
            assert all(len(at) == 3 for at in node.graph.half_edges_at)


def test_weight_zero_faces_are_forest_collapses():
    """A collapse keeps weight zero exactly when the collapsed part is a forest;
    single-edge covers therefore keep weight zero iff the edge is not a tadpole."""
    poset = build_cell_poset(2)
    for i, j in poset.covers:
        src, dst = poset.nodes[i], poset.nodes[j]
        if src.weight_total == 0:
            grew = dst.weight_total > 0
            tadpole_available = any(
                canonical_form(contract(src.graph, e)[0]).certificate == dst.certificate
                and src.graph.is_tadpole(e)
                for e in range(src.graph.edge_count)
            )
            assert grew == tadpole_available or not grew


def test_weight_zero_face_iff_forest():
    """Collapsing an edge subset of a weight-zero cell keeps weight zero
    exactly when the subset is a forest."""
    import itertools

    from gch.oracle import is_forest

    poset = build_cell_poset(2)
    for node in poset.nodes:
        if node.weight_total:
            continue
        g = node.graph
        for size in range(1, g.edge_count):
            for subset in itertools.combinations(range(g.edge_count), size):
                current = g
                remaining = list(subset)
                while remaining:
                    e = remaining[0]
                    current, m = contract(current, e)
                    remaining = [m.edge_action[x] for x in remaining[1:]]
                assert (sum(current.weights) == 0) == is_forest(g, subset), (g, subset)


def test_spine_genus2():
    spine = build_spine(2)
    assert spine.max_dimension == 1
    assert f_vector(spine) == (3, 2)
    assert spine.facets_closed()


def test_spine_dimensions():
    assert build_spine(3).max_dimension == 3
    assert build_spine(2).max_dimension == 1


def test_spine_top_cubes_are_spanning_trees():
    spine = build_spine(3)
    top = spine.max_dimension
    by_cert = {}
    for entry in spine.entries:
        if entry.dimension == top:
            assert len(entry.subset) == top
    # top cubes sit inside trivalent graphs and use a spanning tree
    graphs = {form.certificate: form.graph for form in
              enumerate_graphs(EnumSpec(genus=3, min_valence=3, allow_tadpoles=True))}
    for entry in spine.entries:
        if entry.dimension == top:
            g = graphs[entry.graph_certificate]
            assert len(entry.subset) == g.vertex_count - 1


def test_five_spanning_tree_cubes():
    g = triangle_with_doubled_edge()
    from gch.oracle import forests

    spanning = [s for s in forests(g) if len(s) == g.vertex_count - 1]
    assert len(spanning) == 5


def test_f_vector_totals():
    poset = build_cell_poset(3)
    assert sum(f_vector(poset)) == len(poset.nodes)
    spine = build_spine(3)
    assert sum(f_vector(spine)) == len(spine.entries)
