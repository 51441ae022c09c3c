"""Canonical forms and automorphisms as the oracle's graph maps, for tests
that check the engine's half-edge maps by the laws of a graph map.

The engine holds a class's automorphisms as half-edge maps and a labelled
input's map onto its class as the half-edge map of ``canonical_entry``;
these helpers wrap them in :class:`gch.oracle.Morphism` records, each
with the vertex map that its half-edge map induces."""

from dataclasses import dataclass

from gch.context import canonical_entry
from gch.graph import HalfEdgeGraph
from gch.oracle import Morphism
from gch.ribbon import RibbonStructure


@dataclass(frozen=True)
class CanonicalForm:
    """A labelled input's class data, with its isomorphism onto the class's
    canonical graph."""

    graph: HalfEdgeGraph
    certificate: str
    iso: Morphism  # from the input graph onto the canonical graph
    ribbon: RibbonStructure | None = None


def canonical_form(g: HalfEdgeGraph, ribbon: RibbonStructure | None = None) -> CanonicalForm:
    """Canonical representative of a labelled input plus an isomorphism of
    the input onto it; ``iso`` starts at the caller's graph on every call."""
    ctx, half_edge_map = canonical_entry(g, ribbon)
    iso = Morphism("isomorphism", g, ctx.graph, _vertex_map(g, ctx.graph, half_edge_map),
                   half_edge_map)
    return CanonicalForm(ctx.graph, ctx.certificate, iso, ctx.ribbon)


def automorphisms(ctx) -> list[Morphism]:
    """The class's generators of Aut as isomorphisms of its canonical graph
    onto itself."""
    g = ctx.graph
    return [Morphism("isomorphism", g, g, _vertex_map(g, g, hmap), hmap) for hmap in ctx.generators]


def _vertex_map(source: HalfEdgeGraph, target: HalfEdgeGraph, half_edge_map) -> tuple[int, ...]:
    """The vertex map of an isomorphism given by its half-edge map: the
    vertex of each half-edge h goes to the vertex of its image, and a
    vertex without half-edges, the one vertex of an edgeless connected
    graph, to itself."""
    vertex_map = list(range(source.vertex_count))
    for h, image in enumerate(half_edge_map):
        vertex_map[source.iota(h)] = target.iota(image)
    return tuple(vertex_map)
