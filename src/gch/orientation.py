"""Orientations and the sign calculus.

An orientation of a graph is an order on its edges together with an
orientation of the rational cycle space.  The cycle part is represented by
a directed spanning-tree basis: a spanning tree ``T``, a direction for each
complement edge and an order on those complement edges.  Each complement
edge stands for the cycle that runs along it in the given direction and
returns through the unique tree path.

Reference conventions, fixed once so that every sign is reproducible:

* every edge is directed from its lower to its higher endpoint, a tadpole
  from its even to its odd half-edge (edges are stored as sorted pairs, so
  the reference source of edge ``e`` is always half-edge ``2e``);
* the reference orientation of a graph uses the identity edge order, the
  first spanning tree in Kruskal order, and the complement edges in index
  order with reference directions.

Signs of isomorphisms and single-edge collapses are computed against these
data, by pushing the source cycle basis through the map and taking the
determinant in the target basis (:func:`cycle_transport_sign`).  The
complexes take only collapse signs this way: the sign of an automorphism
on det H_1 follows from the exact sequence 0 -> H_1 -> C_1 -> C_0 -> H_0
-> 0 without a basis (``GraphContext.aut_h1``), and the tests compare it
with :func:`h1_determinant_sign`.  Everything is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import HalfEdgeGraph, Morphism, identity_morphism


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
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pv = m[col][col]
        if pv < 0:
            sign = -sign
        for r in range(col + 1, n):
            f = m[r][col]
            if f:
                m[r] = [a * abs(pv) - b * (f if pv > 0 else -f) for a, b in zip(m[r], m[col])]
    return sign


@dataclass(frozen=True)
class Orientation:
    """Edge order plus a directed spanning-tree cycle basis."""

    graph: HalfEdgeGraph
    edge_order: tuple[int, ...]
    tree: frozenset[int]
    comp_order: tuple[int, ...]
    comp_dirs: tuple[int, ...]  # source half-edge per complement edge

    def __post_init__(self):
        g = self.graph
        if sorted(self.edge_order) != list(range(g.edge_count)):
            raise ValueError("edge_order must enumerate all edges")
        if sorted(self.comp_order) != sorted(set(range(g.edge_count)) - self.tree):
            raise ValueError("comp_order must enumerate the tree complement")
        tree = tuple(g.edges[e] for e in range(g.edge_count) if e in self.tree)
        if (len(tree) != len(self.tree) or len(tree) != g.vertex_count - 1
                or not HalfEdgeGraph(g.vertex_count, g.weights, tree).is_connected):
            raise ValueError("tree is not spanning")
        if len(self.comp_dirs) != len(self.comp_order):
            raise ValueError("comp_dirs must give one direction per complement edge")
        for e, h in zip(self.comp_order, self.comp_dirs):
            if h >> 1 != e:
                raise ValueError("direction half-edge must belong to its edge")

    def edge_position(self, e):
        """1-based position of edge ``e`` in the edge order."""
        return self.edge_order.index(e) + 1


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
        u, v = g.edges[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append(e)
    if len(tree) != g.vertex_count - 1:
        raise ValueError("graph is not connected")
    return frozenset(tree)


def orientation_with_tree(g: HalfEdgeGraph, tree: frozenset[int]) -> Orientation:
    comp = tuple(sorted(set(range(g.edge_count)) - tree))
    return Orientation(
        graph=g,
        edge_order=tuple(range(g.edge_count)),
        tree=tree,
        comp_order=comp,
        comp_dirs=tuple(2 * e for e in comp),
    )


def reference_orientation(g) -> Orientation:
    """Deterministic orientation of a graph or of a canonical form."""
    graph = getattr(g, "graph", g)
    return orientation_with_tree(graph, spanning_tree(graph))


def cycle_basis(g: HalfEdgeGraph, orientation: Orientation):
    """One row per complement edge: its directed cycle through the tree,
    as sorted ``(edge, coefficient)`` pairs.

    The coefficient on an edge is +1 when the cycle traverses it along the
    reference direction (lower to higher endpoint), -1 against it.  The
    cycle of a complement edge from vertex a to vertex b is the edge plus
    the tree path from b to a: the signed tree path from vertex 0 to a
    minus the one from vertex 0 to b, whose shared part cancels.
    """
    at: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for e in orientation.tree:
        u, v = g.edges[e]
        at[u].append(e)
        at[v].append(e)
    path: dict[int, dict[int, int]] = {0: {}}
    stack = [0]
    while stack:
        x = stack.pop()
        for e in at[x]:
            u, v = g.edges[e]
            if v not in path:
                path[v] = {**path[x], e: 1}
                stack.append(v)
            elif u not in path:
                path[u] = {**path[x], e: -1}
                stack.append(u)
    rows = []
    for e, h in zip(orientation.comp_order, orientation.comp_dirs):
        coeff = dict(path[g.iota(h)])
        for f, c in path[g.iota(h ^ 1)].items():
            coeff[f] = coeff.get(f, 0) - c
        coeff[e] = 1 if h == 2 * e else -1
        rows.append(tuple(sorted((k, v) for k, v in coeff.items() if v)))
    return tuple(rows)


def _image_row(row, half_edge_map):
    """Push a cycle row through a half-edge map, in target reference
    coordinates."""
    out: dict[int, int] = {}
    for e, c in row:
        img = half_edge_map[2 * e]
        if img is None:
            continue
        f = img >> 1
        s = 1 if img == 2 * f else -1
        out[f] = out.get(f, 0) + c * s
    return out


def h1_determinant_sign(m: Morphism, orient_src: Orientation, orient_dst: Orientation) -> int:
    """Sign of det of the source cycle basis written in the target basis.

    Valid whenever the pushed-forward cycles span the target cycle space:
    isomorphisms, and any non-tadpole collapse, which is a homotopy
    equivalence and so carries every cycle basis onto one.
    """
    return cycle_transport_sign(cycle_basis(orient_src.graph, orient_src),
                                m.half_edge_map, orient_dst)


def cycle_transport_sign(src_rows, half_edge_map, orient_dst: Orientation) -> int:
    """:func:`h1_determinant_sign` for a source cycle basis computed once,
    ``src_rows`` from :func:`cycle_basis`, and a morphism's half-edge map."""
    h = len(src_rows)
    if len(orient_dst.comp_order) != h:
        raise ValueError("cycle ranks differ")
    if h == 0:
        return 1
    dst_sign = {e: (1 if d == 2 * e else -1) for e, d in zip(orient_dst.comp_order, orient_dst.comp_dirs)}
    matrix = []
    for row in src_rows:
        img = _image_row(row, half_edge_map)
        matrix.append([img.get(e, 0) * dst_sign[e] for e in orient_dst.comp_order])
    s = det_sign(matrix)
    if s == 0:
        raise ValueError("pushed cycles do not form a basis")
    return s


def exchange_rebase(orientation: Orientation, tree: frozenset[int]) -> tuple[Orientation, int]:
    """Move to another spanning tree by iterated single-edge exchanges.

    Each step swaps one complement edge into the tree and directs the edge
    leaving the tree so that its new cycle replaces the old one in place;
    this keeps the orientation class fixed, so the accumulated sign is
    always +1 (tested against the direct change-of-basis determinant).
    """
    g = orientation.graph
    cur = orientation
    total = 1
    guard = 0
    while cur.tree != tree:
        guard += 1
        if guard > 4 * g.edge_count:
            raise RuntimeError("tree exchange failed to terminate")
        enter = min(e for e in tree if e not in cur.tree)
        pos = cur.comp_order.index(enter)
        row = dict(cycle_basis(g, cur)[pos])
        leave = min(e for e in row if e in cur.tree and e not in tree)
        new_tree = frozenset(set(cur.tree) - {leave} | {enter})
        # the leaving edge inherits the direction it had inside the old cycle
        leave_dir = 2 * leave if row[leave] == 1 else 2 * leave + 1
        comp = [leave if e == enter else e for e in cur.comp_order]
        dirs = [leave_dir if e == leave else d for e, d in zip(comp, cur.comp_dirs)]
        nxt = Orientation(g, cur.edge_order, new_tree, tuple(comp), tuple(dirs))
        total *= h1_determinant_sign(identity_morphism(g), nxt, cur)
        cur = nxt
    return cur, total


def morphism_sign(m: Morphism, parity: str, orient_src: Orientation, orient_dst: Orientation) -> int:
    """Sign a morphism contributes against the two chosen orientations.

    Isomorphism: the parity of the induced edge permutation (between the
    two edge orders), times the cycle-basis determinant sign when the
    parity flag is odd.

    Single-edge collapse (optionally already composed with an isomorphism
    onto a canonical target): (-1)^i for the collapsed edge at 1-based
    position i of the source order, times the edge-matching parity; for odd
    parity additionally the transport of the cycle orientation: the sign of
    the source cycle basis pushed through the collapse, in the target basis.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    order_dst_pos = {e: i for i, e in enumerate(orient_dst.edge_order)}
    if m.kind == "isomorphism":
        sign = -1 if sequence_parity([order_dst_pos[m.edge_action[e]]
                                      for e in orient_src.edge_order]) else 1
    else:
        if len(m.collapsed_edges) != 1:
            raise ValueError("compose single-edge collapses instead of collapsing several edges")
        e = m.collapsed_edges[0]
        if parity == "odd" and m.source.is_tadpole(e):
            raise ValueError("odd-parity transport is undefined across a tadpole collapse")
        matching = sequence_parity([order_dst_pos[m.edge_action[f]]
                                    for f in orient_src.edge_order if f != e])
        sign = -1 if (orient_src.edge_position(e) + matching) % 2 else 1
    if parity == "odd":
        sign *= h1_determinant_sign(m, orient_src, orient_dst)
    return sign
