"""Exhaustive, duplicate-free enumeration of complex generators.

Graphs are generated by moves on graphs, and isomorphism classes are told
apart by certificate.  Three moves cover every family:

* **Genus raising.**  The trivalent graphs of genus 2, tadpoles allowed,
  are the theta and the dumbbell.  One genus up, join the midpoints of two
  edges (possibly the same edge) by a new edge, or hang a tadpole on the
  midpoint of an edge.  Every trivalent graph of genus g >= 3 arises so:
  deleting a tadpole with its stem, or any non-bridge edge, and smoothing
  the bivalent vertices left behind gives a connected trivalent graph of
  genus g - 1 from which one of the two moves rebuilds it.
* **Collapse closure.**  The moduli space of stable tropical curves of
  genus g is pure of dimension 3g - 4 (Chan-Galatius-Payne), so every
  stable weighted graph is a contraction of a trivalent weight-zero one:
  a weight is undone by a tadpole, a vertex of valence >= 4 by splitting
  it into two of valence >= 3.  Closing the trivalent graphs under every
  contraction gives all stable weighted graphs; closing them under the
  non-tadpole contractions keeps the weights at zero and gives every graph
  of valence >= 3.
* **Subdivision closure.**  Smoothing a bivalent vertex removes an edge and
  keeps the genus, so every graph of valence >= 2 and genus >= 2 is a
  subdivision of one of valence >= 3, and every cycle is a subdivision of
  the one-edge loop.  Subdividing up to ``max_edges`` gives the bivalent
  families.

Loopless graphs can have contractions and smoothings with tadpoles, so the
closures keep tadpoles and the tadpole and edge-count filters come last.
Everything is deterministic; outputs come back sorted by certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .canonical import CanonicalForm, canonical_form
from .families import cycle, dumbbell, theta
from .graph import HalfEdgeGraph, SubgraphMask
from .ribbon import RibbonStructure


class InfeasibleEnumeration(ValueError):
    """An unbounded request: needs max_edges to become finite."""


@dataclass(frozen=True)
class EnumSpec:
    genus: int
    min_valence: int = 3
    allow_tadpoles: bool = False
    weighted: bool = False
    max_edges: int | None = None
    ribbon: bool = False
    min_edges: int = 0

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.min_valence not in (2, 3):
            raise ValueError("min_valence must be 2 or 3")
        if self.min_edges < 0:
            raise ValueError("min_edges must be non-negative")
        if self.max_edges is not None and self.max_edges < 0:
            raise ValueError("max_edges must be non-negative")


_ENUM_CACHE: dict[EnumSpec, tuple] = {}


def _closure(graphs, moves) -> dict[str, CanonicalForm]:
    """Classes of ``graphs`` and of everything ``moves`` reaches from them."""
    found: dict[str, CanonicalForm] = {}
    frontier = list(graphs)
    while frontier:
        reached = []
        for g in frontier:
            form = canonical_form(g)
            if form.certificate not in found:
                found[form.certificate] = form
                reached.extend(moves(form.graph))
        frontier = reached
    return found


def _subdivide(g: HalfEdgeGraph, e: int) -> HalfEdgeGraph:
    """Weight-zero ``g`` with a new vertex on edge ``e``; the other half of
    ``e`` becomes the last edge, so no edge index moves."""
    u, v = g.edges[e]
    a = g.vertex_count
    edges = list(g.edges)
    edges[e] = (u, a)
    return HalfEdgeGraph.build(a + 1, edges + [(a, v)])


def _raise_genus(g: HalfEdgeGraph):
    """Trivalent graphs one genus above trivalent ``g``."""
    n = g.vertex_count
    for i in range(g.edge_count):
        s = _subdivide(g, i)
        yield HalfEdgeGraph.build(n + 2, s.edges + ((n, n + 1), (n + 1, n + 1)))
        # j == i puts the second midpoint on the first half of edge i
        for j in range(i, g.edge_count):
            yield HalfEdgeGraph.build(n + 2, _subdivide(s, j).edges + ((n, n + 1),))


def _trivalent(genus: int) -> list[HalfEdgeGraph]:
    """Trivalent weight-zero classes of the genus, tadpoles allowed."""
    graphs = [theta(), dumbbell()] if genus >= 2 else []
    for _ in range(genus - 2):
        raised = _closure([h for g in graphs for h in _raise_genus(g)], lambda g: ())
        graphs = [f.graph for f in raised.values()]
    return graphs


def _select(found: dict[str, CanonicalForm], spec: EnumSpec, low: int, cap: int):
    """The classes with ``low`` to ``cap`` edges that the spec admits, by certificate."""
    return [found[c] for c in sorted(found)
            if low <= found[c].graph.edge_count <= cap
            and (spec.allow_tadpoles or not found[c].graph.has_tadpole)]


def _weight_zero_graphs(spec: EnumSpec):
    g = spec.genus
    if spec.min_valence >= 3:
        cap = 3 * g - 3
        if spec.max_edges is not None:
            cap = min(cap, spec.max_edges)
    else:
        if spec.max_edges is None:
            raise InfeasibleEnumeration(
                "min_valence 2 admits arbitrarily long cycles; pass max_edges")
        cap = spec.max_edges
    low = max(spec.min_edges, 1)
    # contractions below ``low`` edges are dropped, unless subdivisions follow
    floor = 1 if spec.min_valence == 2 else low
    found = _closure(_trivalent(g), lambda h: (
        h.contract(e)[0] for e in range(h.edge_count)
        if h.edge_count > floor and not h.is_tadpole(e)))
    if spec.min_valence == 2:
        seeds = [f.graph for f in found.values()] + ([cycle(1)] if g == 1 else [])
        found = _closure(seeds, lambda h: (
            _subdivide(h, e) for e in range(h.edge_count) if h.edge_count < cap))
    return _select(found, spec, low, cap)


def _weighted_graphs(spec: EnumSpec):
    g = spec.genus
    if g < 1:
        raise ValueError("weighted enumeration needs genus >= 1")
    cap = 3 * g - 3
    if spec.max_edges is not None:
        cap = min(cap, spec.max_edges)
    found = _closure(_trivalent(g), lambda h: (
        h.contract(e)[0] for e in range(h.edge_count) if h.edge_count > spec.min_edges))
    return _select(found, spec, spec.min_edges, cap)


def enumerate_graphs(spec: EnumSpec) -> list[CanonicalForm]:
    """All isomorphism classes matching the spec, canonically ordered."""
    hit = _ENUM_CACHE.get(spec)
    if hit is not None:
        return list(hit)
    if spec.weighted:
        result = _weighted_graphs(spec)
    else:
        result = _weight_zero_graphs(spec)
    if spec.ribbon:
        expanded = []
        for form in result:
            for rib in enumerate_ribbon_structures(form.graph):
                expanded.append(canonical_form(form.graph, ribbon=rib))
        expanded.sort(key=lambda f: f.certificate)
        result = expanded
    _ENUM_CACHE[spec] = tuple(result)
    return list(result)


def enumerate_forests(g: HalfEdgeGraph) -> list[SubgraphMask]:
    """Every acyclic edge subset, the empty one included."""
    if not g.is_connected:
        raise ValueError("forest enumeration needs a connected graph")
    non_tadpoles = [e for e in range(g.edge_count) if not g.is_tadpole(e)]
    found: list[SubgraphMask] = []

    def rec(idx, parent, chosen):
        if idx == len(non_tadpoles):
            found.append(SubgraphMask(g, frozenset(chosen)))
            return
        rec(idx + 1, parent, chosen)
        e = non_tadpoles[idx]
        u, v = g.edges[e]

        def find(p, x):
            while p[x] != x:
                x = p[x]
            return x

        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            child = dict(parent)
            child[ru] = rv
            rec(idx + 1, child, chosen + [e])

    rec(0, {v: v for v in range(g.vertex_count)}, [])
    found.sort(key=lambda m: (len(m.edge_subset), m.sorted_edges()))
    return found


def enumerate_ribbon_structures(g: HalfEdgeGraph) -> list[RibbonStructure]:
    """Orbit representatives of cyclic-order products under automorphisms."""
    if not g.is_connected:
        raise ValueError("ribbon enumeration needs a connected graph")
    per_vertex = []
    for v in range(g.vertex_count):
        hs = sorted(h for h in range(g.half_edge_count) if g.iota(h) == v)
        if not hs:
            per_vertex.append([()])
            continue
        head, rest = hs[0], hs[1:]
        per_vertex.append([(head,) + p for p in itertools.permutations(rest)])
    reps: dict[str, RibbonStructure] = {}
    for combo in itertools.product(*per_vertex):
        rib = RibbonStructure(g, tuple(combo))
        cert = canonical_form(g, ribbon=rib).certificate
        reps.setdefault(cert, rib)
    return [reps[c] for c in sorted(reps)]
