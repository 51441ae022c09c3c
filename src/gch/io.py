"""Serialization: JSON graph documents and plain-text triple matrices.

A graph document is ``{"vertices": n, "weights": [...], "edges": [[u,v],
...], "ribbon": null | [[half-edge ids], ...]}``; the ribbon field lists
one cyclic order per vertex.  Matrices use the plain-text triple format
common in exact linear algebra tooling: a header ``rows cols M``, one line
``i j value`` per entry with 1-based indices and values written as
``num/den`` (plain integers when the denominator is one), closed by the
line ``0 0 0``.  The lines come by row, then column, the order in which a
matrix keeps its nonzeros.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .graph import HalfEdgeGraph
from .linalg import SparseMatrix
from .ribbon import RibbonStructure


class DocumentError(ValueError):
    """Schema violation in a graph document, with the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def graph_to_document(g: HalfEdgeGraph, ribbon: RibbonStructure | None = None) -> dict:
    return {
        "vertices": g.vertex_count,
        "weights": list(g.weights),
        "edges": [[u, v] for u, v in g.edges],
        "ribbon": None if ribbon is None else [list(c) for c in ribbon.cycles],
    }


def _is_int(x) -> bool:
    """A JSON integer; ``true`` and ``false`` are not, though bool subclasses int."""
    return isinstance(x, int) and not isinstance(x, bool)


def document_to_graph(doc) -> tuple[HalfEdgeGraph, RibbonStructure | None]:
    if not isinstance(doc, dict):
        raise DocumentError("$", "expected a JSON object")
    n = doc.get("vertices")
    if not _is_int(n) or n < 0:
        raise DocumentError("vertices", "expected a non-negative integer")
    # lengths are checked against n before anything of n's size is made
    weights = doc.get("weights")
    if "weights" in doc and (not isinstance(weights, list) or len(weights) != n
                             or any(not _is_int(w) or w < 0 for w in weights)):
        raise DocumentError("weights", f"expected {n} non-negative integers")
    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise DocumentError("edges", "expected a list of vertex pairs")
    if n > max(1, 2 * len(edges)):
        # some vertex has no half-edge, so the graph is not connected
        raise DocumentError("vertices", f"{n} vertices cannot be joined by {len(edges)} edges")
    pairs = []
    for k, e in enumerate(edges):
        if (not isinstance(e, list) or len(e) != 2
                or any(not _is_int(x) for x in e)):
            raise DocumentError(f"edges[{k}]", "expected a pair of integers")
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise DocumentError(f"edges[{k}]", f"vertex out of range 0..{n - 1}")
        pairs.append((u, v))
    rib_doc = doc.get("ribbon")
    if rib_doc is not None and (not isinstance(rib_doc, list) or len(rib_doc) != n):
        raise DocumentError("ribbon", f"expected {n} half-edge cycles")
    g = HalfEdgeGraph.build(n, pairs, weights)
    if rib_doc is None:
        return g, None
    seen = set()
    cycles = []
    for v, cyc in enumerate(rib_doc):
        if not isinstance(cyc, list) or any(not _is_int(h) for h in cyc):
            raise DocumentError(f"ribbon[{v}]", "expected a list of half-edge ids")
        for h in cyc:
            if not (0 <= h < g.half_edge_count):
                raise DocumentError(f"ribbon[{v}]", f"half-edge {h} out of range")
            if g.iota(h) != v:
                raise DocumentError(f"ribbon[{v}]", f"half-edge {h} sits at vertex {g.iota(h)}")
            if h in seen:
                raise DocumentError(f"ribbon[{v}]", f"half-edge {h} listed twice")
            seen.add(h)
        cycles.append(tuple(cyc))
    if len(seen) != g.half_edge_count:
        raise DocumentError("ribbon", "cycles must cover every half-edge exactly once")
    return g, RibbonStructure(g, tuple(cycles))


def parse_graph_json(text: str) -> tuple[HalfEdgeGraph, RibbonStructure | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"invalid JSON: {exc}") from None
    return document_to_graph(doc)


def matrix_to_text(m: SparseMatrix) -> str:
    lines = [f"{m.rows} {m.cols} M"]
    for i, j, v in m.items():
        # a matrix keeps every integral value as an int
        val = v if type(v) is int else f"{v.numerator}/{v.denominator}"
        lines.append(f"{i + 1} {j + 1} {val}")
    lines.append("0 0 0")
    return "\n".join(lines) + "\n"


def text_to_matrix(text: str) -> SparseMatrix:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix document")
    head = lines[0].split()
    if len(head) != 3 or head[2] != "M":
        raise ValueError("matrix header must be 'rows cols M'")
    rows, cols = int(head[0]), int(head[1])
    if lines[-1].split() != ["0", "0", "0"]:
        raise ValueError("matrix document must end with the '0 0 0' terminator")
    entries: dict[tuple[int, int], Fraction] = {}
    for ln in lines[1:-1]:
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"malformed entry line {ln!r}")
        if parts == ["0", "0", "0"]:
            raise ValueError("lines after the '0 0 0' terminator")
        i, j = int(parts[0]) - 1, int(parts[1]) - 1
        if not (0 <= i < rows and 0 <= j < cols):
            raise ValueError(f"entry line {ln!r} out of range 1..{rows} x 1..{cols}")
        if (i, j) in entries:
            raise ValueError(f"duplicate entry ({i + 1},{j + 1})")
        try:
            entries[(i, j)] = Fraction(parts[2])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in entry line {ln!r}") from None
    return SparseMatrix(rows, cols, entries)
