"""Small named graph families used by checks and experiments."""

from __future__ import annotations

from .graph import HalfEdgeGraph


def theta() -> HalfEdgeGraph:
    """Two vertices joined by three parallel edges (the 3-banana)."""
    return banana(3)


def banana(n: int) -> HalfEdgeGraph:
    if n < 1:
        raise ValueError("a banana needs at least one edge")
    return HalfEdgeGraph.build(2, [(0, 1)] * n)


def cycle(n: int) -> HalfEdgeGraph:
    """Cycle with n vertices and n edges; n=1 is a tadpole, n=2 a double edge."""
    if n < 1:
        raise ValueError("a cycle needs at least one vertex")
    if n == 1:
        return HalfEdgeGraph.build(1, [(0, 0)])
    return HalfEdgeGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def wheel(n: int) -> HalfEdgeGraph:
    """Hub joined to an n-cycle by n spokes; vertex 0 is the hub.

    n = 2 degenerates to a doubled rim edge and a bivalent hub.
    """
    if n < 2:
        raise ValueError("a wheel needs at least two spokes")
    rim = [(1 + i, 1 + (i + 1) % n) for i in range(n)]
    spokes = [(0, 1 + i) for i in range(n)]
    return HalfEdgeGraph.build(n + 1, spokes + rim)


def rose(k: int) -> HalfEdgeGraph:
    """One vertex with k tadpoles."""
    return HalfEdgeGraph.build(1, [(0, 0)] * k)


def dumbbell() -> HalfEdgeGraph:
    """Two vertices with one tadpole each, joined by a bridge."""
    return HalfEdgeGraph.build(2, [(0, 0), (0, 1), (1, 1)])


def triangle_with_doubled_edge() -> HalfEdgeGraph:
    """Three vertices, four edges, one of them doubled; its spine has five cubes."""
    return HalfEdgeGraph.build(3, [(0, 2), (0, 1), (1, 2), (1, 2)])

