"""Brute-force references for automorphisms, signs, enumeration,
connectivity, forests and ranks.

Each function recomputes by exhaustive search, or by plain elimination,
something that the engine computes another way.  The module imports
nothing from ``gch`` except :class:`HalfEdgeGraph`, so a fault in
canonical forms, automorphism groups, orientations, generation or sparse
elimination cannot also sit in its check.  Only the tests call it; no
module of the package imports it.

The sign of an automorphism on det H_1 comes from the exact sequence
0 -> H_1 -> C_1 -> C_0 -> H_0 -> 0 of a connected graph (Conant-Vogtmann,
*On a theorem of Kontsevich*, arXiv:math/0208169): it is the sign on the
oriented edges C_1 (edge permutation parity times -1 per reversed edge)
times the sign on the vertices C_0, so :func:`automorphism_sign` needs no
cycle basis or spanning tree.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from .graph import HalfEdgeGraph


def _parity(seq) -> int:
    """+1/-1 for an even/odd arrangement of distinct values, by inversions."""
    inversions = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
    return -1 if inversions % 2 else 1


def half_edge_automorphisms(g: HalfEdgeGraph, sigma=None):
    """(edge permutation, reversed-edge count, vertex permutation) for every
    half-edge automorphism of a connected graph.

    An automorphism is a bijection of half-edges that commutes with the
    edge involution and induces a weight-preserving bijection of vertices;
    given the successor map ``sigma`` of a ribbon structure, it must also
    commute with ``sigma``.  Edge ``e`` goes to edge ``perm[e]``, and it is
    reversed when its first half-edge lands on a second one.
    """
    n, m = g.vertex_count, g.edge_count
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
                edges = [hmap[2 * f] >> 1 for f in range(m)]
                reversed_count = sum(hmap[2 * f] & 1 for f in range(m))
                found.append((edges, reversed_count, list(vmap) if m else list(range(n))))
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


def automorphism_sign(aut, subset, odd: bool) -> int | None:
    """Sign of an automorphism from :func:`half_edge_automorphisms` on the
    generator (graph, ``subset``) for even or odd parity, or None when it
    does not map the subset onto itself."""
    edges, reversed_count, vertices = aut
    images = [edges[e] for e in subset]
    if sorted(images) != sorted(subset):
        return None
    sign = _parity(images)
    if odd:
        sign *= _parity(edges) * (-1) ** reversed_count * _parity(vertices)
    return sign


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


def dense_rank(rows) -> int:
    """Rank of a dense matrix, given as a list of rows, by Gaussian
    elimination over ``Fraction``."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c] / a[r][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


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
