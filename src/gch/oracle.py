"""Brute-force references for automorphisms, signs, orientations,
enumeration, connectivity, forests, ribbon structures and ranks.

Each function recomputes by exhaustive search, or by plain elimination,
something that the engine computes another way.  The module imports
nothing from ``gch`` except :mod:`gch.graph`, so a fault in canonical
forms, automorphism groups, orientations, generation, ribbon splicing or
sparse elimination cannot also sit in its check.  Only the tests call it;
no module of the package imports it.

The sign of a map on det H_1 is the determinant of a cycle basis pushed
through it, written in a basis of the target (:func:`h1_sign`), with
bases from spanning trees and edge directions (:class:`Orientation`).
The engine reads the same sign off the exact sequence
0 -> H_1 -> C_1 -> C_0 -> H_0 -> 0 instead (Conant-Vogtmann, *On a
theorem of Kontsevich*, arXiv:math/0208169), so no rule is shared:
:func:`half_edge_automorphisms` signs each automorphism by :func:`h1_sign`
between reference orientations, and face signs are checked against
:func:`morphism_sign`, on morphisms built here too
(:func:`identity_morphism`, :func:`contract`, :func:`compose`).

Ribbon structures are tuples of cyclic orders, one per vertex, each from
its least half-edge.  The ribbon classes on a graph are the orbits of
:func:`half_edge_automorphisms` on the products of cyclic orders
(:func:`ribbon_structures`), not the engine's certificates, and a
contraction joins the two orders at the ends of the edge as the
definition reads (:func:`contract_ribbon`), not by the engine's splice of
sigma.  Bridges and one-vertex irreducibility are deletions counted by
union-find (:func:`bridges`, :func:`is_one_vertex_irreducible`).  The
edge-action closure (:func:`edge_action_closure`) lists every edge
permutation of a group with a sign on each, where the engine walks its
subset orbits through the generators alone.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .graph import DisconnectedGraphError, HalfEdgeGraph


def _parity(seq) -> int:
    """+1/-1 for an even/odd arrangement of distinct values, by inversions."""
    inversions = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class Automorphism:
    """A half-edge automorphism: edge e goes to edge ``edges[e]`` and
    half-edge h to ``half_edges[h]``."""

    edges: tuple[int, ...]
    half_edges: tuple[int, ...]
    reference: Orientation = field(repr=False, compare=False)

    @cached_property
    def h1(self) -> int:
        """Its sign on det H_1: :func:`h1_sign` from the reference
        orientation to itself, a cycle-basis determinant, taken once."""
        return h1_sign(self.half_edges, self.reference, self.reference)


def half_edge_automorphisms(g: HalfEdgeGraph, sigma=None) -> list[Automorphism]:
    """Every half-edge automorphism of a connected graph.

    An automorphism is a bijection of half-edges that commutes with the
    edge involution and induces a weight-preserving bijection of vertices;
    given the successor map ``sigma`` of a ribbon structure, it must also
    commute with ``sigma``.
    """
    n, m = g.vertex_count, g.edge_count
    ref = reference_orientation(g)
    found = []
    hmap = [None] * (2 * m)
    vmap, vinv = [None] * n, [None] * n

    def bind(v, w, trail):
        if vmap[v] is None and vinv[w] is None and g.weights[v] == g.weights[w]:
            vmap[v], vinv[w] = w, v
            trail.append(v)
            return True
        return vmap[v] == w

    def extend(e, used):
        if e == m:
            if sigma is None or all(hmap[sigma[h]] == sigma[hmap[h]] for h in range(2 * m)):
                found.append(Automorphism(tuple(hmap[2 * f] >> 1 for f in range(m)),
                                          tuple(hmap), ref))
            return
        for f in range(m):
            if f in used:
                continue
            for flip in (0, 1):
                a, b = 2 * f + flip, 2 * f + 1 - flip
                trail = []
                if bind(g.iota(2 * e), g.iota(a), trail) and bind(g.iota(2 * e + 1), g.iota(b), trail):
                    hmap[2 * e], hmap[2 * e + 1] = a, b
                    extend(e + 1, used | {f})
                for v in trail:
                    vinv[vmap[v]] = None
                    vmap[v] = None

    extend(0, frozenset())
    return found


def automorphism_sign(aut: Automorphism, subset, odd: bool) -> int | None:
    """Sign of an automorphism from :func:`half_edge_automorphisms` on the
    generator (graph, ``subset``) for even or odd parity, or None when it
    does not map the subset onto itself: the parity of its action on the
    subset, times for odd parity its sign on det H_1."""
    images = [aut.edges[e] for e in subset]
    if sorted(images) != sorted(subset):
        return None
    return _parity(images) * aut.h1 if odd else _parity(images)


def edge_action_closure(edge_count: int, generators) -> list[tuple[tuple[int, ...], int]]:
    """The sorted group of permutations of ``edge_count`` edges spanned by
    (edge permutation tuple, sign) generators, each with the product of the
    generator signs along the path that first reached it.  That sign is
    well defined when the signs are a character trivial on the elements
    that fix every edge; otherwise it depends on the path.

    The group grows one generator at a time, and a generator already in
    the group built so far is skipped.  The group is closed under the
    generators kept before a new one, so only the new one acts on its old
    elements; every element it adds meets all the kept generators."""
    seen = {tuple(range(edge_count)): 1}
    kept = []
    for q, sq in generators:
        if q in seen:
            continue
        kept.append((q, sq))
        frontier = []
        for p, sp in list(seen.items()):
            pq = tuple([q[x] for x in p])
            if pq not in seen:
                seen[pq] = sq * sp
                frontier.append(pq)
        while frontier:
            p = frontier.pop()
            sp = seen[p]
            for r, sr in kept:
                pr = tuple([r[x] for x in p])
                if pr not in seen:
                    seen[pr] = sr * sp
                    frontier.append(pr)
    return sorted(seen.items())


def _multiplicities(edges, perm):
    return sorted(Counter(tuple(sorted((perm[u], perm[v]))) for u, v in edges).items())


def pairing_classes(v: int, e: int, min_valence: int, allow_tadpoles: bool):
    """One edge list per isomorphism class of connected multigraphs with
    ``v`` vertices, ``e`` edges and every valence at least ``min_valence``.

    Every sorted degree sequence is laid out as half-edge stubs and every
    pairing of the stubs is tried; two graphs are the same class when some
    vertex permutation matches their edge multiplicities.
    """

    def pairings(free):
        if not free:
            yield []
            return
        for i in range(1, len(free)):
            for tail in pairings(free[1:i] + free[i + 1:]):
                yield [(free[0], free[i])] + tail

    identity = range(v)
    reps = []
    for degrees in itertools.combinations_with_replacement(range(min_valence, 2 * e + 1), v):
        if sum(degrees) != 2 * e:
            continue
        slots = [x for x, d in enumerate(degrees) for _ in range(d)]
        seen = set()
        for pairing in pairings(list(range(2 * e))):
            edges = tuple(sorted(tuple(sorted((slots[a], slots[b]))) for a, b in pairing))
            if edges in seen:
                continue
            seen.add(edges)
            if not allow_tadpoles and any(a == b for a, b in edges):
                continue
            if components(identity, edges) != 1:
                continue
            key = _multiplicities(edges, identity)
            if not any(_multiplicities(r, perm) == key
                       for r in reps for perm in itertools.permutations(identity)):
                reps.append(edges)
    return reps


def components(vertices, edges) -> int:
    """How many components the edges, pairs of the given vertices, leave,
    by union-find."""
    root = {v: v for v in vertices}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for u, v in edges:
        root[find(u)] = find(v)
    return len({find(v) for v in root})


def is_forest(g: HalfEdgeGraph, edges) -> bool:
    """Whether the edge subset spans no cycle: each edge joins two
    components; a tadpole is a cycle."""
    return components(range(g.vertex_count), [g.edges[e] for e in edges]) == g.vertex_count - len(edges)


def forests(g: HalfEdgeGraph) -> list[tuple[int, ...]]:
    """Every forest of the graph, the empty one included, by size and then
    lexicographically: every edge subset, kept when :func:`is_forest`."""
    return [s for size in range(g.edge_count + 1)
            for s in itertools.combinations(range(g.edge_count), size) if is_forest(g, s)]


def bridges(g: HalfEdgeGraph) -> frozenset[int]:
    """The non-tadpole edges of a connected graph whose deletion leaves two
    components."""
    vertices = range(g.vertex_count)
    if components(vertices, g.edges) != 1:
        raise DisconnectedGraphError("bridges need a connected graph")
    return frozenset(e for e, (u, v) in enumerate(g.edges)
                     if u != v and components(vertices, g.edges[:e] + g.edges[e + 1:]) > 1)


def is_one_vertex_irreducible(g: HalfEdgeGraph) -> bool:
    """Whether a connected graph is bridge-free and deleting any one vertex,
    with its edges, leaves the rest connected.  Bridge-freeness keeps the
    dumbbell reducible, though deleting a bridge end there leaves a lone
    tadpole vertex."""
    n = g.vertex_count
    return not bridges(g) and all(
        components([w for w in range(n) if w != v], [p for p in g.edges if v not in p]) <= 1
        for v in range(n))


def is_stable(g: HalfEdgeGraph) -> bool:
    """Every vertex has 2 * weight + valence > 2."""
    return all(2 * w + len(at) > 2 for w, at in zip(g.weights, g.half_edges_at))


@dataclass(frozen=True)
class Morphism:
    """A graph map at half-edge resolution, built only here
    (:func:`identity_morphism`, :func:`contract`, :func:`compose`) and by
    the tests; the engine holds an automorphism as its half-edge map alone.

    ``half_edge_map`` commutes with the incidence and involution maps;
    collapsed half-edges map to ``None``.  Isomorphisms are bijective on
    vertices and half-edges.
    """

    kind: str  # isomorphism | edge-collapse
    source: HalfEdgeGraph
    target: HalfEdgeGraph
    vertex_map: tuple[int, ...]
    half_edge_map: tuple[int | None, ...]
    collapsed_edges: tuple[int, ...] = ()

    @cached_property
    def edge_action(self):
        """Induced (partial) map on edge indices."""
        out = []
        for e in range(len(self.source.edges)):
            h = self.half_edge_map[2 * e]
            out.append(None if h is None else h >> 1)
        return tuple(out)


def is_morphism(m: Morphism) -> bool:
    """Whether ``m`` obeys the laws of a graph map: its half-edge map
    commutes with the vertex map and the edge involution, only collapsed
    edges map to None, and an isomorphism is bijective."""
    src, dst = m.source, m.target
    if len(m.vertex_map) != src.vertex_count or len(m.half_edge_map) != src.half_edge_count:
        return False
    for h, image in enumerate(m.half_edge_map):
        if image is None:
            if h >> 1 not in m.collapsed_edges:
                return False
        elif dst.iota(image) != m.vertex_map[src.iota(h)] or m.half_edge_map[h ^ 1] != image ^ 1:
            return False
    return m.kind != "isomorphism" or (sorted(m.vertex_map) == list(range(dst.vertex_count))
                                       and sorted(m.half_edge_map) == list(range(dst.half_edge_count)))


def _from_least(cycle) -> tuple[int, ...]:
    """A cyclic order rotated to start at its least half-edge."""
    k = cycle.index(min(cycle)) if cycle else 0
    return tuple(cycle[k:]) + tuple(cycle[:k])


def transport_cycles(target: HalfEdgeGraph, cycles, half_edge_map) -> tuple[tuple[int, ...], ...]:
    """Cyclic orders pushed onto ``target`` by a half-edge map defined on
    their half-edges, an isomorphism's or a collapse's: each image order
    sits at the vertex of its half-edges, from its least half-edge."""
    out = [()] * target.vertex_count
    for cycle in cycles:
        if cycle:
            image = [half_edge_map[h] for h in cycle]
            out[target.iota(image[0])] = _from_least(image)
    return tuple(out)


def ribbon_structures(g: HalfEdgeGraph) -> list[tuple[tuple[int, ...], ...]]:
    """One choice of cyclic orders per ribbon class on a connected graph:
    the orbits of :func:`half_edge_automorphisms` on the product of the
    cyclic orders at the vertices, each orbit's first member in product
    order."""
    choices = [[(hs[0], *rest) for rest in itertools.permutations(hs[1:])] if hs else [()]
               for hs in g.half_edges_at]
    auts = half_edge_automorphisms(g)
    seen, reps = set(), []
    for cycles in itertools.product(*choices):
        if cycles not in seen:
            reps.append(cycles)
            seen.update(transport_cycles(g, cycles, aut.half_edges) for aut in auts)
    return reps


def contract_ribbon(g: HalfEdgeGraph, cycles, e: int):
    """(graph, cyclic orders, morphism) of the contraction of the
    non-tadpole edge ``e`` of a ribbon graph, by the definition: the new
    vertex carries the order at the end of half-edge 2e, rotated to end
    just before it, followed by the order at the other end, rotated to
    start just after 2e + 1.  The other orders are carried along."""
    v, w = g.edges[e]
    if v == w:
        raise ValueError("cannot contract a tadpole in a ribbon graph")
    target, m = contract(g, e)
    at_v, at_w = list(cycles[v]), list(cycles[w])
    i, j = at_v.index(2 * e), at_w.index(2 * e + 1)
    merged = at_v[i + 1:] + at_v[:i] + at_w[j + 1:] + at_w[:j]
    kept = [cycle for x, cycle in enumerate(cycles) if x not in (v, w)]
    return target, transport_cycles(target, kept + [merged], m.half_edge_map), m


@dataclass(frozen=True)
class Orientation:
    """An edge order and a basis of H_1: a spanning tree and its complement
    edges in basis order, each leaving from the half-edge in comp_dirs."""

    graph: HalfEdgeGraph
    edge_order: tuple[int, ...]
    tree: frozenset[int]
    comp_order: tuple[int, ...]
    comp_dirs: tuple[int, ...]

    def __post_init__(self):
        g, edges = self.graph, set(range(self.graph.edge_count))
        if sorted(self.edge_order) != sorted(edges):
            raise ValueError("edge_order must enumerate all edges")
        if not (self.tree <= edges and len(self.tree) == g.vertex_count - 1 and is_forest(g, self.tree)):
            raise ValueError("tree is not spanning")
        if sorted(self.comp_order) != sorted(edges - self.tree):
            raise ValueError("comp_order must enumerate the tree complement")
        if len(self.comp_dirs) != len(self.comp_order):
            raise ValueError("comp_dirs must give one direction per complement edge")
        if any(h >> 1 != e for e, h in zip(self.comp_order, self.comp_dirs)):
            raise ValueError("direction half-edge must belong to its edge")


def reference_orientation(g: HalfEdgeGraph, tree=None) -> Orientation:
    """The identity edge order and the complement of ``tree`` in index
    order, edge e leaving from half-edge 2e.  The tree defaults to
    Kruskal's: each edge in turn that keeps a forest."""
    if tree is None:
        tree = []
        for e in range(g.edge_count):
            if is_forest(g, tree + [e]):
                tree.append(e)
    comp = tuple(e for e in range(g.edge_count) if e not in tree)
    return Orientation(g, tuple(range(g.edge_count)), frozenset(tree), comp, tuple(2 * e for e in comp))


def fundamental_cycles(o: Orientation) -> list[dict[int, int]]:
    """Per complement edge, ``{edge: coefficient}``: the edge, then the
    tree path from its head back to its tail, walked breadth-first from the
    head; an edge walked from half-edge 2e to 2e+1 counts +1."""
    g, cycles = o.graph, []
    for e, h in zip(o.comp_order, o.comp_dirs):
        came = {g.iota(h ^ 1): None}
        for x in (queue := [g.iota(h ^ 1)]):
            for f in o.tree:
                for a, b, c in (g.edges[f] + (1,), g.edges[f][::-1] + (-1,)):
                    if a == x and b not in came:
                        came[b] = (x, f, c)
                        queue.append(b)
        cycle, x = {e: 1 if h == 2 * e else -1}, g.iota(h)
        while came[x]:
            x, f, c = came[x]
            cycle[f] = c
        cycles.append(cycle)
    return cycles


def h1_sign(half_edge_map, src: Orientation, dst: Orientation) -> int:
    """Sign on det H_1 of a map given by its half-edge map, None on a
    collapsed edge: the source basis cycles pushed through it have
    coordinates X with X B = Z in the target basis B, so on the target's
    complement edges det X has the sign of det Z times det B.  Defined
    for isomorphisms and collapses of an edge that is no tadpole."""
    pushed = []
    for cycle in fundamental_cycles(src):
        pushed.append(image := {})
        for e, c in cycle.items():
            if (h := half_edge_map[2 * e]) is not None:
                image[h >> 1] = image.get(h >> 1, 0) + (-c if h & 1 else c)
    if len(pushed) != len(dst.comp_order):
        raise ValueError("cycle ranks differ")
    det = math.prod(determinant([[z.get(e, 0) for e in dst.comp_order] for z in rows])
                    for rows in (pushed, fundamental_cycles(dst)))
    if det == 0:
        raise ValueError("pushed cycles do not form a basis")
    return 1 if det > 0 else -1


def identity_morphism(g: HalfEdgeGraph) -> Morphism:
    return Morphism("isomorphism", g, g, tuple(range(g.vertex_count)),
                    tuple(range(g.half_edge_count)))


def contract(g: HalfEdgeGraph, e: int) -> tuple[HalfEdgeGraph, Morphism]:
    """The contraction of edge ``e`` (``HalfEdgeGraph.contraction``) and
    its edge-collapse morphism."""
    weights, edges, vertex_map, half_edge_map = g.contraction(e)
    target = HalfEdgeGraph(len(weights), weights, edges)
    return target, Morphism("edge-collapse", g, target, vertex_map, half_edge_map, (e,))


def compose(second: Morphism, first: Morphism) -> Morphism:
    """Composite morphism applying ``first``, then ``second``."""
    if first.target is not second.source and first.target != second.source:
        raise ValueError("morphisms not composable")
    vmap = tuple(second.vertex_map[x] for x in first.vertex_map)
    hmap = tuple(None if h is None else second.half_edge_map[h] for h in first.half_edge_map)
    collapsed = tuple(sorted(
        set(first.collapsed_edges)
        | {e for e, f in enumerate(first.edge_action)
           if f is not None and second.edge_action[f] is None}))
    kind = "isomorphism" if second.kind == first.kind == "isomorphism" else "edge-collapse"
    return Morphism(kind, first.source, second.target, vmap, hmap, collapsed)


def morphism_sign(m: Morphism, parity: str, src: Orientation, dst: Orientation) -> int:
    """Sign of an isomorphism, or a single-edge collapse then one, against
    two orientations: the parity of the surviving edges in the target edge
    order, times (-1)^i for a collapsed edge at 1-based position i of the
    source order, times for odd parity :func:`h1_sign`."""
    if parity not in ("even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    position = {e: i for i, e in enumerate(dst.edge_order)}
    sign = _parity([position[m.edge_action[e]] for e in src.edge_order if m.edge_action[e] is not None])
    if m.kind != "isomorphism":
        if len(m.collapsed_edges) != 1:
            raise ValueError("compose single-edge collapses instead of collapsing several edges")
        e = m.collapsed_edges[0]
        if parity == "odd" and m.source.is_tadpole(e):
            raise ValueError("odd-parity transport is undefined across a tadpole collapse")
        sign *= (-1) ** (src.edge_order.index(e) + 1)
    if parity == "odd":
        sign *= h1_sign(m.half_edge_map, src, dst)
    return sign


def _eliminate(rows):
    """Row echelon form over ``Fraction``: the pivots, by column, and the row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    pivots, swaps = [], 0
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        swaps += piv != r
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(a[r][c])
    return pivots, swaps


def dense_rank(rows) -> int:
    """Rank of a dense matrix, given as a list of rows."""
    return len(_eliminate(rows)[0])


def determinant(rows) -> Fraction:
    """Determinant of a square matrix, given as a list of rows."""
    pivots, swaps = _eliminate(rows)
    return (-1) ** swaps * math.prod(pivots) if len(pivots) == len(rows) else Fraction(0)


def relabeled(g: HalfEdgeGraph, rng) -> HalfEdgeGraph:
    """The graph with its vertices and its edges in a random order drawn
    from ``rng``."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    weights = [0] * g.vertex_count
    for v, w in enumerate(g.weights):
        weights[perm[v]] = w
    return HalfEdgeGraph.build(g.vertex_count, edges, weights)


def mass_table(genus: int) -> dict[tuple[int, ...], Fraction]:
    """Sum of 1/|Aut G| over the connected graphs of the genus with every
    valence at least 3, tadpoles and multiple edges allowed, per degree
    type (the sorted valences), Aut acting on half-edges.

    Laying out n_k vertices of valence k as stubs and pairing the 2E stubs
    in all (2E-1)!! ways reaches every graph, connected or not, as often as
    the k!^{n_k} n_k! relabellings of the stubs over |Aut G|, so
    Z = sum (2E-1)!! prod x_k^{n_k} / (k!^{n_k} n_k!) sums 1/|Aut G| over
    all graphs and log Z over the connected ones (Borinsky, "Graphs in
    perturbation theory", 2018).  A connected graph of the genus has
    sum (k-2) n_k = 2E - 2V = 2g - 2, and each vertex adds at least 1 to
    that grade, so the series is cut there.
    """
    top = 2 * genus - 2

    def types(rest, least):
        """Every sorted tuple of valences >= least of grade <= rest."""
        yield ()
        for k in range(least, rest + 3):
            yield from ((k, *tail) for tail in types(rest - k + 2, k))

    z = {}
    for t in types(top, 3):
        if t and sum(t) % 2 == 0:
            z[t] = Fraction(math.prod(range(sum(t) - 1, 0, -2)), math.prod(
                math.factorial(k) ** n * math.factorial(n) for k, n in Counter(t).items()))
    log, power = {}, {(): Fraction(1)}
    for j in range(1, top + 1):
        product = {}
        for a, x in power.items():
            for b, y in z.items():
                if sum(key := tuple(sorted(a + b))) - 2 * len(key) <= top:
                    product[key] = product.get(key, 0) + x * y
        power = product
        for key, x in power.items():
            log[key] = log.get(key, 0) + (-1) ** (j + 1) * x / j
    return {key: x for key, x in log.items() if x and sum(key) - 2 * len(key) == top}
