"""Exhaustive, duplicate-free enumeration of complex generators.

Graphs are generated by moves on graphs, and isomorphism classes are told
apart by certificate.  Three moves cover every family:

* **Genus raising.**  The trivalent graphs of genus 2, tadpoles allowed,
  are the theta and the dumbbell.  One genus up, join the midpoints of two
  distinct edges by a new edge, or hang a tadpole on the midpoint of an
  edge, once per automorphism orbit of edges or edge pairs.  Every
  trivalent graph of genus g >= 3 arises so.  It has a tadpole, or a
  non-bridge edge with no parallel partner: otherwise every 2-edge-connected
  block is a digon attached by two bridges, and a leaf of the bridge tree
  would be a vertex of valence 1.  Deleting such an edge, or a tadpole
  with its stem, and smoothing the bivalent vertices left behind gives a
  connected trivalent graph of genus g - 1.  A join of two distinct edges,
  or a tadpole hang, rebuilds the graph from it, and keeps a connected
  graph connected: each new vertex lies on an old edge, and the new edge
  or the stem ends at new vertices.
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
  families.  A subdivision keeps a connected graph connected: the new
  vertex joins both ends of the edge it splits.

Ribbon graphs take the same moves, lifted to cyclic orders.  A trivalent
graph t has 2^V choices of cyclic orders, and an isomorphism between two
ribbon structures on t is an automorphism of t, so the ribbon classes over
t are the orbits of Aut(t) on the choices: the seeds are one choice per
orbit, the first in product order (``_ribbon_seeds``).  A contraction
splices the two orders of its edge on sigma (``GraphContext.collapse``),
a tadpole contraction of a weighted family drops the loop's two
half-edges from sigma, and a subdivision gives the new
vertex its only order.  Splitting a vertex of valence >= 4 along its
cyclic order into two of valence >= 3 is undone by a contraction, so
every ribbon graph of valence >= 3 is a contraction of a trivalent one,
and smoothing a bivalent vertex undoes a subdivision.  This closure is
the one way ribbon classes are made: the ``ass`` complexes and
``gch verify`` read it, and the tests check it against
:func:`gch.oracle.ribbon_structures`, the orbits of brute-force
automorphisms on the products of cyclic orders of each plain graph.

The bivalent and weighted families, and the families with tadpoles, can
need tadpoles on the way (a loopless graph can smooth or uncontract to one
with tadpoles), so their closures keep them and the tadpole and edge-count
filters come last.  A loopless family of valence >= 3 needs none:
splitting a loopless vertex makes no loop, so it starts from the loopless
trivalent graphs and contracts only edges without a parallel partner.
Everything is deterministic; outputs come back sorted by certificate.

One function, ``enumerate_graphs``, runs the closures of every family,
weighted or not, and returns the registry's own object of each class of
:mod:`gch.context`.  Genus raising and the ribbon seeds take the first
member of each orbit of Aut on their edges and edge pairs, or on their
cyclic-order choices, by one walk (``_orbit_firsts``) through the moves
of the generators of Aut, and leave the class no walk tables and no
subset-orbit table: the cube kinds' table has a slot for each of the 2^E
subsets, and a trivalent class of genus g has 3g - 3 edges.  The collapse
closure reads each class's collapses from ``GraphContext.collapse``,
which does the orbit pruning: it collapses one edge per orbit of the
class's automorphism group, gives the other edges of the orbit the
collapsed edge's map composed with an automorphism of the source, and
records the target class and the half-edge map onto its canonical graph
in the class.  The one edge is read off a commuting square where it can
be: a class D first reached as G/d, with map a, collapses its edge a(f)
onto the class that G/f reached by collapsing b(d), b the map of G/f,
with the composed map, since both are G/{d,f}.  The composed map differs
from a direct contraction's by an automorphism of the target, as an
orbit-derived map does, which changes no coefficient.  A ribbon class
takes the square only when d and f have three distinct endpoints, since
splicing commutes on a two-edge forest but not across a loop or a
digon.  Since the closure collapses G's edges before those of G/d, it
canonicalizes about once per class, plus the squares whose side G/f
comes later.  The complexes and the cell poset read their collapses from
the same entries.  A contraction keeps a connected graph connected too,
so every move hands its result's tuples to
``context._canonical_entry``, which walks no graph for connectivity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .canonical import edge_action
from .context import GraphContext, _canonical_entry
from .families import dumbbell, rose, theta
from .graph import HalfEdgeGraph


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
        if self.weighted and self.min_valence == 2:
            raise ValueError("weighted families are stable: min_valence 2 does not apply")
        if self.weighted and self.genus < 1:
            raise ValueError("weighted enumeration needs genus >= 1")
        if self.min_edges < 0:
            raise ValueError("min_edges must be non-negative")
        if self.max_edges is not None and self.max_edges < 0:
            raise ValueError("max_edges must be non-negative")
        if self.min_valence == 2 and self.max_edges is None:
            raise InfeasibleEnumeration("min_valence 2 admits arbitrarily long cycles; pass max_edges")


_ENUM_CACHE: dict[EnumSpec, tuple] = {}


def _closure(seeds, step) -> dict[str, GraphContext]:
    """The ``seeds`` classes and every class that ``step`` reaches from
    them; ``step`` maps a class to the classes it reaches."""
    found: dict[str, GraphContext] = {}
    frontier = list(seeds)
    while frontier:
        reached = []
        for ctx in frontier:
            if ctx.certificate not in found:
                found[ctx.certificate] = ctx
                reached.extend(step(ctx))
        frontier = reached
    return found


def _subdivide(a: int, edges, e: int, cycles=None):
    """(vertex count, weights, edge pairs, cyclic orders or None) of the
    weight-zero graph on the vertices 0..a-1 with the ``edges`` and
    ``cycles``, after a new vertex ``a`` on edge ``e``.  The other half of
    ``e`` becomes the last edge, so no edge index moves; its half at the
    old endpoint takes the place of ``2e+1`` in that vertex's order, and
    the new vertex has its only cyclic order.  Both new pairs end at
    ``a``, the largest vertex, so they are normalized."""
    u, v = edges[e]
    moved = 2 * len(edges)  # the new edge's half at v
    edges = edges[:e] + ((u, a),) + edges[e + 1:] + ((v, a),)
    if cycles is not None:
        cycles = tuple(tuple(moved if h == 2 * e + 1 else h for h in cyc) for cyc in cycles)
        cycles += ((2 * e + 1, moved + 1),)
    return a + 1, (0,) * (a + 1), edges, cycles


def _orbit_firsts(points, moves):
    """The first point of each orbit in ``points``, in their order, of the
    group that the ``moves``, functions from a point to its image,
    generate: each orbit is walked from its first point."""
    seen = set()
    for point in points:
        if point not in seen:
            seen.add(point)
            orbit = [point]
            for x in orbit:
                fresh = {move(x) for move in moves} - seen
                seen |= fresh
                orbit += fresh
            yield point


def _raise_genus(ctx: GraphContext):
    """(vertex count, weights, edge pairs) of the trivalent graphs one
    genus above the trivalent class, one per orbit of its Aut on its edges
    (hang a tadpole) and on its pairs of edges (join the midpoints), the
    first of each orbit in combinations order (``_orbit_firsts``).  Each
    orbit is walked through the edge actions of the generators of Aut, so
    the class builds no walk tables and no table of all 2^E subsets."""
    g = ctx.graph
    n = g.vertex_count
    moves = [lambda x, p=edge_action(hmap): tuple(sorted([p[e] for e in x])) for hmap in ctx.generators]
    for edges in _orbit_firsts(itertools.chain.from_iterable(
            itertools.combinations(range(g.edge_count), size) for size in (1, 2)), moves):
        s = g.edges
        for a, e in enumerate(edges, n):
            s = _subdivide(a, s, e)[2]
        stem = ((n + 1, n + 1),) if len(edges) == 1 else ()
        yield n + 2, (0,) * (n + 2), s + ((n, n + 1),) + stem


def _trivalent(genus: int) -> list[GraphContext]:
    """Trivalent weight-zero classes of the genus, tadpoles allowed."""
    classes = [_canonical_entry(g.vertex_count, g.weights, g.edges)[0]
               for g in (theta(), dumbbell())] if genus >= 2 else []
    for _ in range(genus - 2):
        classes = list(dict.fromkeys(_canonical_entry(*h)[0] for r in classes for h in _raise_genus(r)))
    return classes


def _seeds(genus: int, ribbon: bool, tadpoles: bool):
    """The trivalent classes of the genus (with tadpoles only if asked),
    or with ``ribbon`` set their ribbon classes (``_ribbon_seeds``)."""
    for ctx in _trivalent(genus):
        if ctx.graph.has_tadpole and not tadpoles:
            continue
        if ribbon:
            yield from _ribbon_seeds(ctx)
        else:
            yield ctx


def _ribbon_seeds(ctx: GraphContext):
    """One ribbon class per orbit of Aut(t) on the 2^V cyclic-order choices
    of the trivalent class t: the first choice of each orbit in
    ``itertools.product`` order (``_orbit_firsts``) is canonicalized.

    Choice i at vertex v orders its half-edges a < b < c as (a, b, c) for
    i = 0 and (a, c, b) for i = 1, and index k of the product holds the
    choice of v at bit V-1-v.  An automorphism s carries the order at v to
    (s(a), s(b), s(c)) at s(v), the vertex of s(a), which flips the choice
    when that is an odd permutation of its sorted half-edges.  An
    isomorphism between two ribbon structures on t is an automorphism of
    t, so the orbits are the classes, one to one."""
    t = ctx.graph
    at = t.half_edges_at
    top = t.vertex_count - 1
    moves = []
    for hmap in ctx.generators:
        # (bit of s(v), flip) for each v; distinct vertices' bits sum to their union
        move = [(1 << top - t.iota(hmap[a]),
                 (hmap[a] < hmap[b]) + (hmap[b] < hmap[c]) + (hmap[c] < hmap[a]) != 2)
                for a, b, c in at]
        moves.append(lambda x, move=move: sum(
            bit for v, (bit, flip) in enumerate(move) if (x >> top - v & 1) ^ flip))
    for k in _orbit_firsts(range(1 << t.vertex_count), moves):
        cycles = tuple((a, c, b) if k >> top - v & 1 else (a, b, c) for v, (a, b, c) in enumerate(at))
        yield _canonical_entry(t.vertex_count, t.weights, t.edges, cycles)[0]


def enumerate_graphs(spec: EnumSpec) -> list[GraphContext]:
    """All isomorphism classes matching the spec, canonically ordered: the
    registry's object of each class.

    A weighted family contracts every edge, tadpoles into weights, down to
    ``min_edges`` edges; the others contract the non-tadpole edges, down to
    one edge when subdivisions follow."""
    hit = _ENUM_CACHE.get(spec)
    if hit is not None:
        return list(hit)
    g = spec.genus
    cap = 3 * g - 3 if spec.min_valence == 3 else spec.max_edges
    if spec.max_edges is not None:
        cap = min(cap, spec.max_edges)
    low = spec.min_edges if spec.weighted else max(spec.min_edges, 1)
    # contractions below ``low`` edges are dropped, unless subdivisions follow
    floor = 1 if spec.min_valence == 2 else low
    # splitting a loopless vertex makes no loop, so a loopless family of
    # valence >= 3 needs neither tadpole seeds nor contractions that make one
    loopless = spec.min_valence == 3 and not spec.allow_tadpoles and not spec.weighted

    def contractible(h: HalfEdgeGraph) -> list[int]:
        if h.edge_count <= floor:
            return []
        return [e for e in range(h.edge_count) if (spec.weighted or not h.is_tadpole(e))
                and not (loopless and h.multiplicities[h.edges[e]] > 1)]

    found = _closure(_seeds(g, spec.ribbon, not loopless),
                     lambda r: [r.collapse(e)[0] for e in contractible(r.graph)])
    if spec.min_valence == 2:
        seeds = list(found.values())
        if g == 1:
            seeds.append(_canonical_entry(1, (0,), rose(1).edges, ((0, 1),) if spec.ribbon else None)[0])
        found = _closure(seeds, lambda r: (
            _canonical_entry(*_subdivide(r.graph.vertex_count, r.graph.edges, e,
                                         None if r.ribbon is None else r.ribbon.cycles))[0]
            for e in range(r.graph.edge_count) if r.graph.edge_count < cap))
    result = _ENUM_CACHE[spec] = tuple(
        r for r in map(found.__getitem__, sorted(found))
        if low <= r.graph.edge_count <= cap and (spec.allow_tadpoles or not r.graph.has_tadpole))
    return list(result)
