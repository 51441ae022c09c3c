"""The reference orientation of a graph and the odd collapse sign.

An odd generator is oriented by its edges and by det H_1
(Conant-Vogtmann, arXiv:math/0208169).  The engine's one basis of H_1 is
the Kruskal spanning tree's: per complement edge, in index order, the
cycle that runs along it from half-edge ``2e`` (lower to higher endpoint)
and returns through the tree.  A cycle's coordinates are then its
coefficients on the complement edges, so a collapse's sign on det H_1 is
the determinant of the source basis pushed through it, read on the
target's complement edges.  The tests check it against the oracle's own
orientations (:mod:`gch.oracle`).
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


def det_sign(matrix):
    """Sign of the determinant of a small integer matrix (0 if singular)."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pv = m[col][col]
        if pv < 0:
            sign = -sign
        for r in range(col + 1, n):
            if f := m[r][col]:
                m[r] = [a * abs(pv) - b * (f if pv > 0 else -f) for a, b in zip(m[r], m[col])]
    return sign


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


def cycle_basis(g: HalfEdgeGraph):
    """The reference cycle basis: one row per complement edge of the
    Kruskal tree, in index order, as sorted ``(edge, coefficient)`` pairs,
    +1 along the reference direction and -1 against it.  The cycle of a
    complement edge from vertex a to vertex b is the edge plus the tree
    path from b to a: the signed tree path from vertex 0 to a minus the one
    from vertex 0 to b, whose shared part cancels."""
    tree = spanning_tree(g)
    at: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e in tree:
        u, v = g.edges[e]
        at[u].append(e)
        at[v].append(e)
    path: dict[int, dict[int, int]] = {0: {}}
    for x in (reached := [0]):
        for e in at[x]:
            u, v = g.edges[e]
            if v not in path:
                path[v] = {**path[x], e: 1}
                reached.append(v)
            elif u not in path:
                path[u] = {**path[x], e: -1}
                reached.append(u)
    rows = []
    for e in range(g.edge_count):
        if e in tree:
            continue
        u, v = g.edges[e]
        coeff = dict(path[u])
        for f, c in path[v].items():
            coeff[f] = coeff.get(f, 0) - c
        coeff[e] = 1
        rows.append(tuple(sorted((k, v) for k, v in coeff.items() if v)))
    return tuple(rows)


def _image_row(row, half_edge_map):
    """Push a cycle row through a half-edge map, in target reference
    directions; a collapsed edge (half-edge image None) drops out."""
    out: dict[int, int] = {}
    for e, c in row:
        if (img := half_edge_map[2 * e]) is not None:
            out[img >> 1] = out.get(img >> 1, 0) + (-c if img & 1 else c)
    return out


def cycle_transport_sign(src_rows, half_edge_map, dst_comp) -> int:
    """Sign of det of the source cycle basis ``src_rows`` (from
    :func:`cycle_basis`) pushed through a half-edge map and written in the
    target's reference basis, whose complement edges are ``dst_comp``.
    Valid for isomorphisms and non-tadpole collapses, which carry every
    cycle basis onto one."""
    if len(dst_comp) != len(src_rows):
        raise ValueError("cycle ranks differ")
    matrix = []
    for row in src_rows:
        img = _image_row(row, half_edge_map)
        matrix.append([img.get(e, 0) for e in dst_comp])
    s = det_sign(matrix)
    if s == 0:
        raise ValueError("pushed cycles do not form a basis")
    return s
