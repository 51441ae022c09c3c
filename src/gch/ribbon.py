"""Ribbon (fat) graph structure: cyclic orders, the splice of a
contraction, face tracing.

A ribbon structure assigns to every vertex a cyclic order of its half-edges.
The disjoint union of these cycles is a permutation sigma of the half-edge
set; the boundary components of the thickened surface are the orbits of
sigma composed with the edge involution.  A ribbon class contracts an edge
only by :func:`splice` on sigma, in ``GraphContext.collapse``; the tests
check it against :func:`gch.oracle.contract_ribbon`, which joins the two
cyclic orders as the definition reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import HalfEdgeGraph


def normalize_cycle(cycle):
    """Rotate a cyclic sequence so that it starts at its minimum."""
    if not cycle:
        return tuple(cycle)
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


@dataclass(frozen=True)
class RibbonStructure:
    """Cyclic orders of the half-edges at each vertex of a graph."""

    graph: HalfEdgeGraph
    cycles: tuple[tuple[int, ...], ...]  # one cycle per vertex, rotation-normalized

    def __post_init__(self):
        g = self.graph
        if len(self.cycles) != g.vertex_count:
            raise ValueError("one cyclic order per vertex required")
        seen = set()
        norm = []
        for v, (cyc, own) in enumerate(zip(self.cycles, g.half_edges_at)):
            if tuple(sorted(cyc)) != own:
                raise ValueError(f"cycle at vertex {v} must order its own half-edges")
            seen.update(cyc)
            norm.append(normalize_cycle(tuple(cyc)))
        if len(seen) != g.half_edge_count:
            raise ValueError("cycles must partition the half-edge set")
        object.__setattr__(self, "cycles", tuple(norm))

    @cached_property
    def next_map(self):
        """sigma as a flat permutation of half-edge ids."""
        return sigma(self.cycles, self.graph.half_edge_count)


def sigma(cycles, half_edge_count: int) -> tuple[int, ...]:
    """The cyclic orders as one flat permutation of the half-edge ids."""
    nxt = [0] * half_edge_count
    for cyc in cycles:
        for i, h in enumerate(cyc):
            nxt[h] = cyc[(i + 1) % len(cyc)]
    return tuple(nxt)


def splice(ribbon: RibbonStructure, e: int, half_edge_map) -> list[int]:
    """sigma after contracting the edge ``e``, as a list on the labels that
    the contraction's ``half_edge_map`` (None on ``e``) gives the surviving
    half-edges.

    A half-edge keeps its successor unless that lies on ``e``.  With
    h = 2e and h' = 2e + 1, the orders at the two ends of a non-tadpole
    join where they held it: sigma'(sigma^-1 h) = sigma(h') and
    sigma'(sigma^-1 h') = sigma(h), stepping on once more past an end
    where ``e`` is the only half-edge.  A tadpole, which a weighted family
    contracts into a weight, leaves its vertex's order: sigma' steps past
    h and h'.
    """
    nxt = ribbon.next_map
    # a step on e continues from the other half-edge for a non-tadpole
    other = int(not ribbon.graph.is_tadpole(e))
    out = [0] * (len(nxt) - 2)
    for x, image in enumerate(half_edge_map):
        if image is not None:
            y = nxt[x]
            while y >> 1 == e:
                y = nxt[y ^ other]
            out[image] = half_edge_map[y]
    return out


def cyclic_orders(nxt, half_edges_at) -> tuple[tuple[int, ...], ...]:
    """The cyclic orders of sigma (``nxt``), one per vertex, each from the
    least of the vertex's half-edges ``half_edges_at``."""
    out = []
    for hs in half_edges_at:
        cyc = []
        if hs:
            h = hs[0]
            while True:
                cyc.append(h)
                h = nxt[h]
                if h == hs[0]:
                    break
        out.append(tuple(cyc))
    return tuple(out)


def faces(g: HalfEdgeGraph, ribbon: RibbonStructure):
    """Boundary cycles of the thickening: orbits of sigma o epsilon, and
    one empty cycle for each vertex without half-edges, which thickens to
    a disk."""
    nxt = ribbon.next_map
    seen = [False] * g.half_edge_count
    out = []
    for h0 in range(g.half_edge_count):
        if seen[h0]:
            continue
        cyc = []
        h = h0
        while not seen[h]:
            seen[h] = True
            cyc.append(h)
            h = nxt[h ^ 1]
        out.append(tuple(cyc))
    out.extend(cyc for cyc in ribbon.cycles if not cyc)
    return out


def surface_invariants(g: HalfEdgeGraph, ribbon: RibbonStructure):
    """(surface genus, boundary count) of the unique oriented thickening."""
    if not g.is_connected:
        raise ValueError("surface invariants need a connected graph")
    b = len(faces(g, ribbon))
    euler = g.vertex_count - g.edge_count + b
    if euler % 2:
        raise AssertionError("Euler characteristic of a closed surface must be even")
    gs = (2 - euler) // 2
    if gs < 0:
        raise AssertionError("negative surface genus")
    return gs, b


def cycles_word(cycles) -> str:
    """The cyclic orders, each starting at its least half-edge, listed by
    that half-edge: the ribbon part of a certificate."""
    parts = []
    for cyc in sorted(cycles, key=lambda c: c[0] if c else -1):
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts)
