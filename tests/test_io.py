import tracemalloc
from fractions import Fraction

import pytest

from gch.families import dumbbell, theta
from gch.generate import EnumSpec, enumerate_graphs
from gch.io import (
    DocumentError,
    document_to_graph,
    graph_to_document,
    matrix_to_text,
    parse_graph_json,
    text_to_matrix,
)
from gch.linalg import SparseMatrix
from gch.ribbon import RibbonStructure

from forms import canonical_form


def test_theta_document():
    g, rib = document_to_graph({"vertices": 2, "weights": [0, 0],
                                "edges": [[0, 1], [0, 1], [0, 1]], "ribbon": None})
    assert rib is None
    assert g.vertex_count == 2
    assert g.edges == ((0, 1),) * 3


def test_tadpole_edge():
    g, _ = document_to_graph({"vertices": 1, "weights": [0], "edges": [[0, 0]]})
    assert g.is_tadpole(0)


def test_round_trip_canonicalizes():
    for g in (theta(), dumbbell()):
        doc = graph_to_document(g)
        back, _ = document_to_graph(doc)
        assert canonical_form(back).certificate == canonical_form(g).certificate


def test_round_trip_ribbon():
    g = theta()
    rib = RibbonStructure(g, ((0, 2, 4), (1, 5, 3)))
    doc = graph_to_document(g, rib)
    back, back_rib = document_to_graph(doc)
    assert back == g
    assert back_rib == rib


def test_round_trip_whole_enumeration():
    for genus in (2, 3, 4):
        for form in enumerate_graphs(EnumSpec(genus=genus, weighted=True,
                                              allow_tadpoles=True, min_edges=1)):
            doc = graph_to_document(form.graph)
            back, _ = document_to_graph(doc)
            assert canonical_form(back).certificate == form.certificate


@pytest.mark.parametrize("doc,field", [
    ({"vertices": -1, "edges": []}, "vertices"),
    ({"vertices": 2, "weights": [0], "edges": []}, "weights"),
    ({"vertices": 1, "weights": [0], "edges": [[0, 1]]}, "edges[0]"),
    ({"vertices": 1, "weights": [0], "edges": [[0]]}, "edges[0]"),
    ({"vertices": 1, "weights": [0], "edges": [[0, 0]], "ribbon": [[0, 0]]}, "ribbon[0]"),
    ({"vertices": 1, "weights": [0], "edges": [[0, 0]], "ribbon": [[0]]}, "ribbon"),
    # JSON booleans are not integers, though Python's bool subclasses int
    ({"vertices": True, "edges": []}, "vertices"),
    ({"vertices": 1, "weights": [True], "edges": []}, "weights"),
    ({"vertices": 2, "weights": [0, 0], "edges": [[0, True]]}, "edges[0]"),
    ({"vertices": 1, "weights": [0], "edges": [[0, 0]], "ribbon": [[False, 1]]}, "ribbon[0]"),
])
def test_document_errors(doc, field):
    with pytest.raises(DocumentError) as err:
        document_to_graph(doc)
    assert err.value.field == field


@pytest.mark.parametrize("doc,field", [
    ({"vertices": 10**7, "weights": [], "edges": []}, "weights"),
    # a vertex count above twice the edges leaves a vertex without a half-edge
    ({"vertices": 10**7, "edges": []}, "vertices"),
])
def test_huge_vertex_count_is_rejected_before_allocation(doc, field):
    """A short document claiming many vertices is refused by its field
    before anything of the claimed size is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError) as err:
            document_to_graph(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.field == field
    assert peak < 2**20, peak


def test_parse_graph_json_rejects_bad_json():
    with pytest.raises(DocumentError):
        parse_graph_json("{nope")
    with pytest.raises(DocumentError):
        parse_graph_json('{"vertices": true, "edges": [[0, false]]}')


def test_matrix_round_trip():
    m = SparseMatrix(3, 4, {(0, 0): Fraction(1), (2, 3): Fraction(-5, 3), (1, 2): Fraction(7)})
    text = matrix_to_text(m)
    lines = text.strip().splitlines()
    assert lines[0] == "3 4 M"
    assert lines[-1] == "0 0 0"
    assert "3 4 -5/3" in lines
    back = text_to_matrix(text)
    assert back.rows == 3 and back.cols == 4
    assert back.entries == m.entries


def test_matrix_parse_errors():
    with pytest.raises(ValueError):
        text_to_matrix("")
    with pytest.raises(ValueError):
        text_to_matrix("2 2\n0 0 0")
    with pytest.raises(ValueError):
        text_to_matrix("2 2 M\n1 1 1")
    bad = [
        "-2 3 M\n0 0 0",                       # negative shape
        "2 -3 M\n0 0 0",
        "2 2 M\n1 1 1\n1 1 2\n0 0 0",          # duplicate entry
        "2 2 M\n1 1 1\n0 0 0\n2 2 1",          # entry after the terminator
        "2 2 M\n1 1 1\n0 0 0\n2 2 1\n0 0 0",
        "2 2 M\n1 1 1/0\n0 0 0",               # zero denominator
        "2 2 M\n3 1 1\n0 0 0",                 # out of range
    ]
    for text in bad:
        with pytest.raises(ValueError):
            text_to_matrix(text)
    # a coordinate out of range names the file's 1-based line, not a 0-based entry
    for line in ("0 1 3", "3 1 1", "1 3 1"):
        with pytest.raises(ValueError, match=f"entry line '{line}' out of range 1..2 x 1..2"):
            text_to_matrix(f"2 2 M\n{line}\n0 0 0")


def test_sparse_matrix_rejects_negative_shape():
    for shape in ((-1, 0), (0, -1), (-2, 3)):
        with pytest.raises(ValueError):
            SparseMatrix(*shape)


@pytest.mark.parametrize("value", [0.1, 2.0, 0.0, "1", "", True, False, None])
def test_sparse_matrix_rejects_inexact_entries(value):
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, {(0, 0): value})


@pytest.mark.parametrize("coordinate", [(0.5, 0), (0, 1.0), (True, 0), (0, False), ("0", 0)])
def test_sparse_matrix_rejects_non_int_coordinates(coordinate):
    with pytest.raises(TypeError):
        SparseMatrix(2, 2, {coordinate: 1})


@pytest.mark.parametrize("key", [(0,), (0, 1, 1), "01"])
def test_sparse_matrix_rejects_keys_that_are_not_coordinate_pairs(key):
    with pytest.raises((TypeError, ValueError)):
        SparseMatrix(2, 2, {key: 1})


def test_sparse_matrix_keeps_exact_entries():
    m = SparseMatrix(1, 3, {(0, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 2): Fraction(0)})
    assert m.entries == {(0, 0): 2, (0, 1): Fraction(1, 3)}
    assert type(m.entries[(0, 0)]) is int and not m.integral
