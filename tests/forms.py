"""Canonical forms and automorphisms as the oracle's graph maps, for tests
that check the engine's half-edge maps by the laws of a graph map.

The engine holds a class's automorphisms as half-edge maps and a labelled
input's map onto its class as the maps of ``canonical_entry``; these
helpers wrap them in :class:`gch.oracle.Morphism` records."""

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
    ctx, vertex_map, half_edge_map = canonical_entry(g, ribbon)
    iso = Morphism("isomorphism", g, ctx.graph, vertex_map, half_edge_map)
    return CanonicalForm(ctx.graph, ctx.certificate, iso, ctx.ribbon)


def automorphisms(ctx) -> list[Morphism]:
    """The class's generators of Aut as isomorphisms of its canonical graph
    onto itself.  A generator is a half-edge map; the vertex map sends the
    vertex of each half-edge h to the vertex of its image, and fixes a
    vertex without half-edges."""
    g, out = ctx.graph, []
    for hmap in ctx.generators:
        vertex_map = list(range(g.vertex_count))
        for h, image in enumerate(hmap):
            vertex_map[g.iota(h)] = g.iota(image)
        out.append(Morphism("isomorphism", g, g, tuple(vertex_map), hmap))
    return out
