"""Ribbon (fat) graph structure: cyclic orders, contraction, face tracing.

A ribbon structure assigns to every vertex a cyclic order of its half-edges.
The disjoint union of these cycles is a permutation sigma of the half-edge
set; the boundary components of the thickened surface are the orbits of
sigma composed with the edge involution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graph import HalfEdgeGraph, Morphism


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
        nxt = [0] * self.graph.half_edge_count
        for cyc in self.cycles:
            for i, h in enumerate(cyc):
                nxt[h] = cyc[(i + 1) % len(cyc)]
        return tuple(nxt)


def contract_ribbon(g: HalfEdgeGraph, ribbon: RibbonStructure, e: int):
    """Contract a non-tadpole edge, splicing the two cyclic orders.

    With the order at one endpoint written ending in the half-edge of ``e``
    and the order at the other starting with its partner, the new vertex
    carries the concatenation with both halves of ``e`` removed.  Returns
    ``(graph, ribbon, morphism)``.
    """
    if g.is_tadpole(e):
        raise ValueError("cannot contract a tadpole in a ribbon graph")
    target, m = g.contract(e)
    h, hp = 2 * e, 2 * e + 1
    v, w = g.iota(h), g.iota(hp)
    cyc_v = list(ribbon.cycles[v])
    cyc_w = list(ribbon.cycles[w])
    # rotate so cyc_v ends with h and cyc_w starts with h'
    iv = cyc_v.index(h)
    cyc_v = cyc_v[iv + 1:] + cyc_v[:iv]
    iw = cyc_w.index(hp)
    cyc_w = cyc_w[iw + 1:] + cyc_w[:iw]
    merged = cyc_v + cyc_w

    new_cycles: list[tuple[int, ...]] = [()] * target.vertex_count
    merged_at = m.vertex_map[v]
    for x in range(g.vertex_count):
        if x in (v, w):
            continue
        new_cycles[m.vertex_map[x]] = tuple(m.half_edge_map[y] for y in ribbon.cycles[x])
    new_cycles[merged_at] = tuple(m.half_edge_map[y] for y in merged)
    return target, RibbonStructure(target, tuple(new_cycles)), m


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


def transport_ribbon(ribbon: RibbonStructure, m: Morphism) -> RibbonStructure:
    """Push a ribbon structure through an isomorphism."""
    target = m.target
    new_cycles: list[tuple[int, ...]] = [()] * target.vertex_count
    for v, cyc in enumerate(ribbon.cycles):
        new_cycles[m.vertex_map[v]] = tuple(m.half_edge_map[h] for h in cyc)
    return RibbonStructure(target, tuple(new_cycles))


def cycles_word(cycles) -> str:
    """The cyclic orders, each starting at its least half-edge, listed by
    that half-edge: the ribbon part of a certificate."""
    parts = []
    for cyc in sorted(cycles, key=lambda c: c[0] if c else -1):
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts)
