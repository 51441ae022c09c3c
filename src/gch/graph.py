"""Half-edge multigraphs with vertex weights.

A graph is stored as a vertex count, a weight per vertex and a tuple of
unordered vertex pairs, one pair per edge.  Edge ``i`` owns the half-edges
``2i`` and ``2i+1``; half-edge ``2i`` sits at ``edges[i][0]`` and ``2i+1``
at ``edges[i][1]``.  The edge involution is therefore ``h ^ 1`` and tadpoles
are pairs ``(v, v)``.  Legs (fixed points of the involution) are not
representable on purpose.

All values are immutable; every operation returns fresh values, and
graphs share one tuple per vertex pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


# one shared tuple per normalized vertex pair, so that graphs and the
# canonical-form cache keys built from them hold no pairs of their own;
# graphs of at most V vertices have fewer than V^2 pairs
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


@dataclass(frozen=True)
class HalfEdgeGraph:
    vertex_count: int
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.weights) != self.vertex_count:
            raise ValueError("one weight per vertex required")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        n, norm = self.vertex_count, []
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "edges", tuple(map(_PAIRS.setdefault, norm, norm)))

    @staticmethod
    def build(vertex_count, edges, weights=None):
        if weights is None:
            weights = (0,) * vertex_count
        return HalfEdgeGraph(vertex_count, tuple(weights), tuple(tuple(e) for e in edges))

    # -- half-edge structure --------------------------------------------

    @property
    def edge_count(self):
        return len(self.edges)

    @property
    def half_edge_count(self):
        return 2 * len(self.edges)

    def iota(self, h):
        """Vertex carrying half-edge ``h``."""
        return self.edges[h >> 1][h & 1]

    @cached_property
    def half_edges_at(self):
        """The half-edges at each vertex, in increasing order."""
        at = [[] for _ in range(self.vertex_count)]
        for e, (u, v) in enumerate(self.edges):
            at[u].append(2 * e)
            at[v].append(2 * e + 1)
        return tuple(map(tuple, at))

    def is_tadpole(self, e):
        u, v = self.edges[e]
        return u == v

    @cached_property
    def has_tadpole(self):
        return any(u == v for u, v in self.edges)

    @cached_property
    def multiplicities(self):
        """Multiset of edges as a dict ``(u, v) -> count`` with ``u <= v``."""
        mult: dict[tuple[int, int], int] = {}
        for e in self.edges:
            mult[e] = mult.get(e, 0) + 1
        return mult

    # -- connectivity ----------------------------------------------------

    @cached_property
    def is_connected(self):
        """Whether the graph is connected; a connected graph has a vertex."""
        n = self.vertex_count
        return n > 0 and _reached(n, self.edges) == n

    # -- rebuilding ------------------------------------------------------

    def contraction(self, e):
        """(weights, edges, half-edge map) of the contraction of edge ``e``,
        without building the graph.

        A non-tadpole merges its endpoints (weights add); a tadpole is
        removed and its vertex weight grows by one, so the genus is
        preserved either way.  The surviving vertex of a merge is the
        smaller endpoint, vertices above the larger one shift down, the
        other edges keep their order, and each keeps its half-edges in the
        order of its target pair, a tadpole image keeping (2j, 2j+1).
        ``e``'s half-edges map to None.
        """
        u, v = self.edges[e]
        vertex_map = [i if u == v or i < v else u if i == v else i - 1 for i in range(self.vertex_count)]
        weights = [0] * (self.vertex_count - (u != v))
        for i, w in enumerate(self.weights):
            weights[vertex_map[i]] += w
        weights[u] += u == v

        new_edges = []
        half_edge_map: list[int | None] = []
        for i, (a, b) in enumerate(self.edges):
            if i == e:
                half_edge_map += (None, None)
                continue
            a, b = vertex_map[a], vertex_map[b]
            j = 2 * len(new_edges)
            if a <= b:
                new_edges.append((a, b))
                half_edge_map += (j, j + 1)
            else:
                new_edges.append((b, a))
                half_edge_map += (j + 1, j)
        return tuple(weights), tuple(new_edges), tuple(half_edge_map)

    def __str__(self):
        w = "" if not any(self.weights) else f" w={list(self.weights)}"
        return f"HalfEdgeGraph(v={self.vertex_count}, e={list(self.edges)}{w})"


def _reached(n, edges):
    """How many of the vertices 0..n-1 the edges join to vertex 0, itself
    included."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if not seen[y]:
                seen[y] = 1
                stack.append(y)
    return sum(seen)
