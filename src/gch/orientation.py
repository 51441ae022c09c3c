"""Orientation signs on det H_1, by the exact sequence.

An odd generator is oriented by its edges and by det H_1
(Conant-Vogtmann, arXiv:math/0208169).  The exact sequence
0 -> H_1 -> C_1 -> C_0 -> H_0 -> 0 of a connected graph identifies det H_1
with det C_1 times det C_0, once C_1 is oriented by the edges in index
order, edge e from half-edge ``2e`` (its tail ``edges[e][0]``) to its head,
and C_0 by the vertices in index order.  A map of graphs then has a sign
on det H_1 read off its edges and vertices alone (:func:`h1_map_sign`),
for automorphisms and collapses alike.

The engine's reference orientation of det H_1 is still the Kruskal
spanning tree's basis: per complement edge, in index order, the cycle that
runs along it from half-edge ``2e`` and returns through the tree.  It
enters as one sign per class, the basis against the exact-sequence
orientation (:func:`kruskal_sign`).  The tests check both against the
oracle's cycle bases and determinants (:mod:`gch.oracle`).
"""

from __future__ import annotations

from .graph import HalfEdgeGraph


def sequence_parity(seq) -> int:
    """Parity (0 even, 1 odd) of a sequence of distinct non-negative ints:
    the parity of its inversions, which is that of the permutation sorting
    it."""
    seen = inversions = 0
    for x in seq:
        inversions += (seen >> x).bit_count()
        seen |= 1 << x
    return inversions & 1


def spanning_tree(g: HalfEdgeGraph) -> frozenset[int]:
    """Kruskal spanning tree in edge order."""
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for e in range(g.edge_count):
        ru, rv = map(find, g.edges[e])
        if ru != rv:
            parent[ru] = rv
            tree.append(e)
    if len(tree) != g.vertex_count - 1:
        raise ValueError("graph is not connected")
    return frozenset(tree)


def kruskal_sign(g: HalfEdgeGraph) -> int:
    """Sign of the Kruskal cycle basis against the exact-sequence
    orientation of det H_1: sign det A times sign det B, where A has the
    cycles and then the tree edges as rows in edge coordinates, and B the
    boundaries of the tree edges and then vertex 0 in vertex coordinates.

    Clearing the tree coordinates of the cycles leaves A a permutation
    matrix: the complement edges, then the tree edges.  Walking the tree
    from vertex 0, each other vertex v takes its parent edge, whose
    boundary is +-(v - parent of v), - when v is its tail; B's rows put in
    that order, with vertex 0 moved first, make a triangular matrix."""
    tree = sorted(spanning_tree(g))
    odd = g.vertex_count - 1
    odd += sequence_parity([e for e in range(g.edge_count) if e not in tree] + tree)
    parent_rank: list[int | None] = [-1] + [None] * (g.vertex_count - 1)
    for x in (reached := [0]):
        for rank, e in enumerate(tree):
            u, v = g.edges[e]
            if x in (u, v) and parent_rank[w := u + v - x] is None:
                parent_rank[w] = rank
                odd += w == u
                reached.append(w)
    odd += sequence_parity(parent_rank[1:])
    return -1 if odd & 1 else 1


def h1_map_sign(graph: HalfEdgeGraph, half_edge_map, target: HalfEdgeGraph,
                e: int | None = None) -> int:
    """Sign on det H_1, both sides oriented by the exact sequence, of an
    isomorphism ``graph -> target`` or, given ``e``, of the collapse of the
    edge e, by its half-edge map (None on e's half-edges).

    An isomorphism's sign is its sign on the oriented edges C_1, the parity
    of the edge images times -1 per reversed edge, times its parity on the
    vertices C_0.  A collapse kills e in C_1 and merges its endpoints in
    C_0: the same product over the surviving edges and over every vertex
    but the head, the tail standing for the merged vertex, times
    (-1)^(e + b + head) for moving e and the head out of the two
    determinants, b the loop number.  A tadpole collapse drops a cycle,
    so it has no such sign and raises ValueError."""
    ends, vertex, images, odd = target.edges, [0] * graph.vertex_count, [], 0
    for (u, v), h in zip(graph.edges, half_edge_map[::2]):
        if h is not None:
            images.append(f := h >> 1)
            if h & 1:
                odd += 1
                vertex[v], vertex[u] = ends[f]
            else:
                vertex[u], vertex[v] = ends[f]
    if e is not None:
        tail, head = graph.edges[e]
        if tail == head:
            raise ValueError("a tadpole collapse has no sign on det H_1")
        odd += e + graph.edge_count - graph.vertex_count + 1 + head
        # an endpoint with no surviving half-edge reads 0, so the larger
        # image is the merged vertex (0 too when the target has no edge)
        vertex[tail] = max(vertex[tail], vertex.pop(head))
    odd += sequence_parity(images) + sequence_parity(vertex)
    return -1 if odd & 1 else 1
